"""Multiplier bootstrap for the rank-averaged Kaplan-Meier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsskm import (
    EmptySampleError,
    ParameterError,
    RankedSetSample,
    RngStream,
    draw_balanced_rss,
    multiplier_bootstrap,
    rss_kaplan_meier,
    rss_mean,
)
from rsskm import bootstrap
from rsskm.models import WeibullModel, censoring_for_fraction
from rsskm.survival import SortedSample

from oracles import MultiplierLaw, weighted_product_limit

EXP = WeibullModel()


def dense_bootstrap(sample, t_grid, n_reps, shape, rng):
    """``multiplier_bootstrap`` at gamma shape ``shape`` written out replicate
    by replicate, rank by rank and death group by death group, each total
    drawn by the earlier law ``oracles.MultiplierLaw``.  A rank's death times
    u_1 < ... < u_G hold dN_g deaths and E_g = R_g - R_(g+1) - dN_g other
    units, with R_g = #{Y >= u_g} and R_(G+1) = 0.  Each kind of total has
    its own stream, read one total at a time in replicate order: replicate
    b draws from ``rng.child(0)`` the death total D*_g of every group of
    every rank, ranks in order, from ``rng.child(1)`` in the same order the
    other total E*_g of every group whose E_g is 1, and from
    ``rng.child(2)`` that of every group whose E_g is more (E*_g = 0 where
    E_g = 0).  R*_g is the running sum of D*_g + E*_g from the rank's last
    group back, S* the running product of 1 - min(max(D*/R*, 0), 1), or 0
    where R* <= 0, read at the last death time <= t.  Returns the
    replicates, the variance of the kept ones and the number excluded for
    some R* <= 0 at a death time <= max(t_grid)."""
    k = sample.times.shape[0]
    groups = []
    for r in range(k):
        t, e = sample.times[r], sample.events[r]
        u = np.unique(t[e])
        at_risk = np.array([np.count_nonzero(t >= x) for x in u])
        died = np.array([np.count_nonzero((t == x) & e) for x in u])
        groups.append((u, died, at_risk - np.r_[at_risk[1:], 0] - died))
    reps, excluded = np.empty((n_reps, t_grid.size)), np.zeros(n_reps, dtype=bool)
    law = MultiplierLaw.of_shape(shape)
    deaths, ones, more = (rng.child(kind).generator() for kind in range(3))
    for b in range(n_reps):
        d_star = [[law.draw_sums(deaths, [n])[0] for n in died] for _, died, _ in groups]
        e_star = [np.zeros(rest.size) for _, _, rest in groups]
        for gen, one in ((ones, True), (more, False)):
            for (_, _, rest), e in zip(groups, e_star):
                for g in np.flatnonzero((rest == 1) if one else (rest > 1)):
                    e[g] = law.draw_sums(gen, [rest[g]])[0]
        total = np.zeros(t_grid.size)
        for (u, _, _), d, e in zip(groups, d_star, e_star):
            tail, r_star = 0.0, np.empty(u.size)
            for g in range(u.size - 1, -1, -1):
                tail += d[g] + e[g]
                r_star[g] = tail
            surv, s = [1.0], 1.0
            for g in range(u.size):
                gone = r_star[g] <= 0
                excluded[b] |= gone and u[g] <= t_grid.max()
                s *= 0.0 if gone else 1.0 - min(max(d[g] / r_star[g], 0.0), 1.0)
                surv.append(s)
            total += np.array(surv)[np.searchsorted(u, t_grid, side="right")]  # rank order
        reps[b] = total / k
    kept = reps[~excluded]
    return reps, np.var(kept - kept[:1], axis=0, ddof=1), int(excluded.sum())


# evaluation grids of a (k, m) sample's times and events for the bitwise
# reference test: all event times, or a grid whose largest time comes before
# the last entries of the tie-group layout
REFERENCE_GRIDS = {
    "event-times": lambda t, d: np.unique(t[d]),
    "before-median-death": lambda t, d: np.quantile(t[d], [0.1, 0.25, 0.4]),
    "max-at-a-tie-group": lambda t, d: np.unique(t[d])[[2, len(np.unique(t[d])) // 2]],
    "before-first-death": lambda t, d: np.array([t[d].min() / 2]),
    "beyond-last-time": lambda t, d: np.array([np.median(t), t.max() + 1.0]),
    "unsorted": lambda t, d: np.quantile(t[d], [0.6, 0.1, 0.35]),
    "with-zero": lambda t, d: np.array([0.0, np.quantile(t[d], 0.4)]),
}

def per_unit_bootstrap(sample, t_grid, n_reps, shape, gen):
    """Replicates of the rank-averaged KM under one iid Gamma(s, 1/s) weight
    per unit, from the law reference ``weighted_product_limit``."""
    k, m = sample.times.shape
    total = np.zeros((n_reps, t_grid.size))
    for r in range(k):
        w = gen.gamma(shape, 1.0 / shape, (n_reps, m))
        total += weighted_product_limit(sample.times[r], sample.events[r], w, t_grid)
    return total / k


# count blocks for the weight-total draws: totals of one weight each, of
# none, one or several, and tied totals whose n s is 1 at shape 0.25
COUNT_BLOCKS = {
    "all-ones": np.ones((10, 200)),
    "mixed": np.random.default_rng(3).integers(0, 6, (4, 50)).astype(float),
    "tied": np.full((6, 30), 4.0),
}


class TestWeightSums:
    def test_mean_one(self):
        gen = np.random.default_rng(0)
        for shape in (1.0, 0.5, 4.0, math.inf):
            w = bootstrap._weight_sums(gen, np.ones(10_000), shape)
            assert np.all(w >= 0)
            assert np.mean(w) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("counts", COUNT_BLOCKS.values(), ids=COUNT_BLOCKS.keys())
    @pytest.mark.parametrize("law, shape", [
        (MultiplierLaw(), 1.0),
        (MultiplierLaw("gamma", 1.0), 1.0),
        (MultiplierLaw("gamma", 0.25), 0.25),
        (MultiplierLaw("gamma", 2.0), 2.0),
        (MultiplierLaw("gamma", 0.003), 0.003),
        (MultiplierLaw("degenerate-one"), math.inf),
    ], ids=["unit-exponential", "gamma-1", "gamma-0.25", "gamma-2", "gamma-0.003",
            "degenerate-one"])
    def test_matches_the_earlier_law_bitwise(self, law, shape, counts):
        # each kind of the earlier law draws as its shape: the totals and the
        # generator state after them
        for seed in (0, 11):
            gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = bootstrap._weight_sums(gen, counts, shape), law.draw_sums(ref, counts)
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64),
                                          strict=True)
            assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("shape", [7, (10, 2000), (3, 4, 5)])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_unit_exponential_is_numpy_exponential_bitwise(self, shape, seed):
        # totals of one weight are exponential(1.0)'s draws, a total of no
        # weight is 0 and draws nothing, and a total of several is
        # standard_gamma's: the draws and the generator state after them
        counts = np.ones(shape)
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        w = bootstrap._weight_sums(gen, counts, 1.0)
        want = ref.exponential(1.0, shape)
        np.testing.assert_array_equal(w.view(np.uint64), want.view(np.uint64), strict=True)
        assert gen.bit_generator.state == ref.bit_generator.state
        counts.flat[::3] = 0.0
        counts.flat[1::3] = 3.0
        w = bootstrap._weight_sums(gen, counts, 1.0)
        want = np.zeros(counts.shape)
        want[counts > 0] = [ref.standard_gamma(n) for n in counts[counts > 0]]
        np.testing.assert_array_equal(w.view(np.uint64), want.view(np.uint64), strict=True)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_gamma_variance_is_inverse_shape(self):
        # a total of n gamma(4) weights has mean n and variance n / 4
        gen = np.random.default_rng(1)
        for n in (1, 3):
            w = bootstrap._weight_sums(gen, np.full(200_000, n), 4.0)
            assert np.mean(w) == pytest.approx(n, abs=0.01 * n)
            assert np.var(w) == pytest.approx(n / 4.0, abs=0.01 * n)


class TestWeightedKm:
    """The per-unit law reference ``weighted_product_limit``."""

    def test_unit_weights_reproduce_km(self):
        rng = np.random.default_rng(2)
        times = rng.exponential(1.0, 40)
        events = rng.random(40) < 0.7
        grid = np.sort(times)
        fit = SortedSample(times[None], events[None]).product_limit()
        values = weighted_product_limit(times, events, np.ones(40), grid)
        np.testing.assert_allclose(values, fit.survival_at(grid)[0], atol=1e-12)

    def test_handles_ties(self):
        times = np.array([1.0, 1.0, 1.0, 2.0])
        events = np.array([True, True, False, True])
        values = weighted_product_limit(times, events, np.ones(4), np.array([1.0, 2.0]))
        # deaths before censorings: S(1) = 1 - 2/4, then S(2) = 0.5 * 0
        np.testing.assert_allclose(values, [0.5, 0.0], atol=1e-12)
        # a risk set whose weights are all 0 stops the curve at 0
        values = weighted_product_limit(times, events, [1.0, 1.0, 1.0, 0.0], [1.0, 2.0])
        np.testing.assert_allclose(values, [1 / 3, 0.0], atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_constant_weights_invariance(self, seed):
        # any constant weight cancels from dN*/R*: the curve is unchanged
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 25)
        times = rng.exponential(1.0, n)
        events = rng.random(n) < 0.8
        grid = np.sort(times)
        base = weighted_product_limit(times, events, np.ones(n), grid)
        scaled = weighted_product_limit(times, events, np.full(n, 3.7), grid)
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestMultiplierBootstrap:
    @pytest.fixture()
    def sample(self):
        law = censoring_for_fraction(EXP, 0.1)
        return draw_balanced_rss(EXP, 3, 30, law, RngStream(7))

    def test_infinite_shape_gives_zero_variance(self, sample):
        grid = np.array([0.5, 1.0])
        result = multiplier_bootstrap(sample, grid, 50, gamma_shape=math.inf, rng=RngStream(0))
        np.testing.assert_array_equal(result.variance, 0.0)
        for rep in result.replicates:
            np.testing.assert_allclose(rep, result.point_estimate, atol=1e-12)

    def test_point_estimate_matches_rss_km(self, sample):
        grid = np.array([0.3, 0.8, 1.5])
        result = multiplier_bootstrap(sample, grid, 10, rng=RngStream(1))
        fit = rss_kaplan_meier(sample)
        np.testing.assert_allclose(
            result.point_estimate, rss_mean(fit.survival_at(grid)), atol=1e-12)
        np.testing.assert_array_equal(result.greenwood_var, rss_mean(fit.greenwood_at(grid), 2))

    def test_deterministic_given_stream(self, sample):
        grid = np.array([0.7])
        a = multiplier_bootstrap(sample, grid, 25, rng=RngStream(5))
        b = multiplier_bootstrap(sample, grid, 25, rng=RngStream(5))
        np.testing.assert_array_equal(a.replicates, b.replicates)

    def test_positive_weights_never_excluded(self, sample):
        result = multiplier_bootstrap(
            sample, np.array([1.0]), 100, rng=RngStream(2))
        assert result.n_excluded == 0

    def test_agrees_with_greenwood_on_srs(self):
        # k=1, m=200: bootstrap variance at the median tracks Greenwood
        law = censoring_for_fraction(EXP, 0.2)
        t = np.array([EXP.quantile(0.5)])
        ratios = []
        for seed in range(5):
            sample = draw_balanced_rss(EXP, 1, 200, law, RngStream(seed, 1))
            fit = rss_kaplan_meier(sample)
            boot = multiplier_bootstrap(sample, t, 800, rng=RngStream(seed, 2))
            ratios.append(float(boot.variance[0] / rss_mean(fit.greenwood_at(t), 2)[0]))
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.15)

    def test_parameter_validation(self, sample):
        with pytest.raises(ParameterError):
            multiplier_bootstrap(sample, np.array([]), 10)
        with pytest.raises(ParameterError):
            multiplier_bootstrap(sample, np.array([1.0]), 1)
        # m = 30 units per rank: a shape of 1e308 would draw Gamma(inf)
        for shape in (0.0, -1.0, math.nan, 1e308, -math.inf):
            with pytest.raises(ParameterError, match="gamma shape must be > 0"):
                multiplier_bootstrap(sample, np.array([1.0]), 10, gamma_shape=shape)
        result = multiplier_bootstrap(sample, np.array([1.0]), 10, gamma_shape=1e308 / 31)
        assert np.all(np.isfinite(result.variance))

    def test_default_grid_is_the_event_times_of_one_fit(self, sample, monkeypatch):
        fits = []

        def counting(rss):
            fits.append(rss)
            return rss_kaplan_meier(rss)

        monkeypatch.setattr(bootstrap, "rss_kaplan_meier", counting)
        got = multiplier_bootstrap(sample, None, 20, rng=RngStream(3))
        assert len(fits) == 1
        want = multiplier_bootstrap(sample, np.unique(sample.times[sample.events]), 20,
                                    rng=RngStream(3))
        np.testing.assert_array_equal(got.t_grid, want.t_grid, strict=True)
        np.testing.assert_array_equal(got.replicates, want.replicates, strict=True)
        censored = RankedSetSample(3, 30, sample.times, np.zeros_like(sample.events))
        with pytest.raises(EmptySampleError, match="no event times"):
            multiplier_bootstrap(censored, None, 20)

    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    def test_relabelled_cycles_give_same_replicates(self, sample, tied):
        # the totals are drawn per death group of the sorted ranks, whichever
        # cycle holds each observation
        times = np.round(sample.times, 1) if tied else sample.times
        cycles = np.array([np.random.default_rng(r).permutation(30) for r in range(3)])
        base = RankedSetSample(3, 30, times, sample.events)
        relabelled = RankedSetSample(3, 30, np.take_along_axis(times, cycles, axis=1),
                                     np.take_along_axis(sample.events, cycles, axis=1))
        grid = np.unique(times[sample.events])
        want = multiplier_bootstrap(base, grid, 20, rng=RngStream(3))
        got = multiplier_bootstrap(relabelled, grid, 20, rng=RngStream(3))
        np.testing.assert_array_equal(got.replicates.view(np.uint64),
                                      want.replicates.view(np.uint64), strict=True)
        np.testing.assert_array_equal(got.variance, want.variance, strict=True)

    @pytest.mark.parametrize("shape, tied, grid", [
        pytest.param(shape, tied, grid, id="-".join(
            [f"shape-{shape}"] if (tied, grid) == (True, "event-times") else
            [f"shape-{shape}", "tied" if tied else "tie-free", grid]))
        for shape in (1.0, 0.003, math.inf)
        for tied in (True, False) for grid in REFERENCE_GRIDS])
    def test_matches_dense_reference_bitwise(self, sample, shape, tied, grid):
        # tied: times on a 0.1 grid so that ranks hold tie groups.  At gamma
        # shape 0.003 about a fifth of the weights underflow to 0, so some
        # replicates lose a whole risk set and are excluded.  Every grid but
        # the event times ends before some rank's last entry, so the fit
        # covers only the head of the layout
        times = np.round(sample.times, 1) if tied else sample.times
        rss = RankedSetSample(3, 30, times, sample.events)
        t_grid = REFERENCE_GRIDS[grid](times, sample.events)
        result = multiplier_bootstrap(rss, t_grid, 40, shape, RngStream(3))
        reps, variance, n_excluded = dense_bootstrap(rss, t_grid, 40, shape, RngStream(3))
        np.testing.assert_array_equal(result.replicates, reps)
        np.testing.assert_array_equal(result.variance, variance)
        assert result.n_excluded == n_excluded
        assert n_excluded == 0 or shape < 1
        if grid == "event-times":
            assert (n_excluded > 0) == (shape < 1)

    @pytest.mark.parametrize("shape", [1.0, 0.5], ids=["shape-1", "shape-0.5"])
    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    def test_segment_totals_have_the_per_unit_law(self, sample, shape, tied):
        # the replicate mean and variance at several times agree, within 4
        # standard errors, with those of one iid weight per unit
        times = np.round(sample.times, 1) if tied else sample.times
        rss = RankedSetSample(3, 30, times, sample.events)
        grid = np.quantile(times[sample.events], [0.2, 0.4, 0.6, 0.8])
        n = 4000
        got = multiplier_bootstrap(rss, grid, n, shape, RngStream(8)).replicates
        want = per_unit_bootstrap(rss, grid, n, shape, np.random.default_rng(9))
        assert np.all(got.var(axis=0) > 0) and np.all(want.var(axis=0) > 0)
        mean_se = np.sqrt((got.var(axis=0) + want.var(axis=0)) / n)
        assert np.all(np.abs(got.mean(axis=0) - want.mean(axis=0)) <= 4 * mean_se)
        # the SE of a sample variance from its squared deviations
        sq_got, sq_want = (got - got.mean(axis=0)) ** 2, (want - want.mean(axis=0)) ** 2
        var_se = np.sqrt((sq_got.var(axis=0) + sq_want.var(axis=0)) / n)
        assert np.all(np.abs(got.var(axis=0) - want.var(axis=0)) <= 4 * var_se)

    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    def test_replicates_do_not_depend_on_block_size_or_count(self, sample, monkeypatch, tied):
        # row b is replicate b, whether it is fitted in the default blocks,
        # one replicate at a time or in one block of all of them
        times = np.round(sample.times, 1) if tied else sample.times
        rss = RankedSetSample(3, 30, times, sample.events)
        grid = np.quantile(times[sample.events], [0.2, 0.5, 0.8])
        block = bootstrap._BLOCK_ENTRIES // rss_kaplan_meier(rss).times.size
        runs = []
        for entries in (bootstrap._BLOCK_ENTRIES, 1, 2**40):
            monkeypatch.setattr(bootstrap, "_BLOCK_ENTRIES", entries)
            for n_reps in (block + 1, 3 * block + 5):
                runs.append(multiplier_bootstrap(rss, grid, n_reps, rng=RngStream(4)).replicates)
        want = max(runs, key=len)
        for got in runs:
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want[:len(got)].view(np.uint64), strict=True)

    def test_three_generators_per_call(self, sample, monkeypatch):
        # one stream per kind of total, however many replicates
        built, original = [], RngStream.generator

        def generator(stream):
            built.append(stream.path)
            return original(stream)

        monkeypatch.setattr(RngStream, "generator", generator)
        tied = RankedSetSample(3, 30, np.round(sample.times, 1), sample.events)
        multiplier_bootstrap(tied, np.array([0.5, 1.0]), 50, rng=RngStream(6))
        assert built == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("shape", [1.0, 2.0], ids=["shape-1", "shape-2"])
    @pytest.mark.parametrize("censored", ["one-rank", "all"])
    def test_ranks_without_deaths(self, sample, shape, censored):
        # a rank without a death draws no total and contributes S* = 1; a
        # sample without any gives every replicate the constant-1 curve
        events = sample.events.copy()
        events[1 if censored == "one-rank" else slice(None)] = False
        rss = RankedSetSample(3, 30, np.round(sample.times, 1), events)
        grid = np.array([0.2, 0.6, 1.2, 5.0])
        result = multiplier_bootstrap(rss, grid, 40, shape, RngStream(5))
        reps, variance, n_excluded = dense_bootstrap(rss, grid, 40, shape, RngStream(5))
        np.testing.assert_array_equal(result.replicates, reps)
        np.testing.assert_array_equal(result.variance, variance)
        assert np.all(np.isfinite(result.variance)) and result.n_excluded == n_excluded == 0
        assert np.all(result.variance > 0) == (censored == "one-rank")
