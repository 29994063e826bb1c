"""Multiplier bootstrap for the rank-averaged Kaplan-Meier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsskm import (
    MultiplierLaw,
    ParameterError,
    RankedSetSample,
    RngStream,
    draw_balanced_rss,
    multiplier_bootstrap,
    rss_kaplan_meier,
    rss_mean,
)
from rsskm.models import WeibullModel, censoring_for_fraction
from rsskm.survival import SortedSample

EXP = WeibullModel()


def weighted_km_at(times, events, weights, t_grid):
    """One sample's weighted product-limit curve on ``t_grid`` from the
    kernel, and whether its weighted risk set vanished by max(t_grid)."""
    fit = SortedSample(times[None], events[None]).product_limit(weights[None])
    return fit.survival_at(t_grid)[0], bool(fit.vanished_at[0] <= np.max(t_grid))


def dense_bootstrap(sample, t_grid, n_reps, law, rng):
    """``multiplier_bootstrap`` written out replicate by replicate and rank
    by rank over every sorted position, each rank ordered by time with
    censorings before deaths at a tied time and its j-th weight on its j-th
    sorted observation: R* is the running sum of the weights from the row's
    end, dN* the death weights of a tie group summed with
    ``np.add.reduceat`` (the order of a floating-point sum sets its last
    bits), both at the group's last position with a neutral 1.0 / 0.0
    elsewhere; S* is the running product read at the last position <= t.
    Returns the replicates, the variance of the kept ones and the number
    excluded for a risk set vanished by max(t_grid)."""
    k, m = sample.times.shape
    reps, excluded = np.empty((n_reps, t_grid.size)), np.zeros(n_reps, dtype=bool)
    for b in range(n_reps):
        w = law.draw(rng.child(b).generator(), (k, m))
        total = np.zeros(t_grid.size)
        for r in range(k):
            order = np.lexsort((sample.events[r], sample.times[r]))
            t, e, wr = sample.times[r][order], sample.events[r][order], w[r]
            tail, at_risk = 0.0, np.empty(m)
            for i in range(m - 1, -1, -1):
                tail += wr[i]
                at_risk[i] = tail
            surv, s = np.empty(m), 1.0
            for i in range(m):
                group = np.flatnonzero(t == t[i])
                deaths = group[e[group]]
                if i == group[-1] and deaths.size:
                    r_star = at_risk[group[0]]
                    dn_star = np.add.reduceat(wr[deaths], [0])[0]
                    excluded[b] |= r_star <= 0 and t[i] <= t_grid.max()
                    s *= 0.0 if r_star <= 0 else 1.0 - min(max(dn_star / r_star, 0.0), 1.0)
                surv[i] = s
            pos = np.searchsorted(t, t_grid, side="right")
            total += np.r_[1.0, surv][pos]  # ranks added in rank order
        reps[b] = total / k
    kept = reps[~excluded]
    return reps, np.var(kept - kept[:1], axis=0, ddof=1), int(excluded.sum())


class TestMultiplierLaw:
    def test_known_kinds(self):
        gen = np.random.default_rng(0)
        for kind in ("unit-exponential", "gamma", "degenerate-one"):
            w = MultiplierLaw(kind).draw(gen, 10_000)
            assert np.all(w >= 0)
            assert np.mean(w) == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("shape", [7, (10, 2000), (3, 4, 5)])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_unit_exponential_is_numpy_exponential_bitwise(self, shape, seed):
        # the draw and the generator state after it equal exponential(1.0)'s
        gen, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        w = MultiplierLaw("unit-exponential").draw(gen, shape)
        want = ref.exponential(1.0, shape)
        np.testing.assert_array_equal(w.view(np.uint64), want.view(np.uint64), strict=True)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_gamma_variance_is_inverse_shape(self):
        gen = np.random.default_rng(1)
        w = MultiplierLaw("gamma", gamma_shape=4.0).draw(gen, 200_000)
        assert np.var(w) == pytest.approx(0.25, abs=0.01)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            MultiplierLaw("uniform")
        with pytest.raises(ParameterError):
            MultiplierLaw("gamma", gamma_shape=0.0)


class TestWeightedKm:
    def test_unit_weights_reproduce_km(self):
        rng = np.random.default_rng(2)
        times = rng.exponential(1.0, 40)
        events = rng.random(40) < 0.7
        grid = np.sort(times)
        fit = SortedSample(times[None], events[None]).product_limit()
        values, degenerate = weighted_km_at(times, events, np.ones(40), grid)
        np.testing.assert_allclose(values, fit.survival_at(grid)[0], atol=1e-12)
        assert not degenerate

    def test_handles_ties(self):
        times = np.array([1.0, 1.0, 1.0, 2.0])
        events = np.array([True, True, False, True])
        values, _ = weighted_km_at(times, events, np.ones(4), np.array([1.0, 2.0]))
        # deaths before censorings: S(1) = 1 - 2/4, then S(2) = 0.5 * 0
        np.testing.assert_allclose(values, [0.5, 0.0], atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_constant_weights_invariance(self, seed):
        # any constant weight cancels from dN*/R*: the curve is unchanged
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 25)
        times = rng.exponential(1.0, n)
        events = rng.random(n) < 0.8
        grid = np.sort(times)
        base, _ = weighted_km_at(times, events, np.ones(n), grid)
        scaled, _ = weighted_km_at(times, events, np.full(n, 3.7), grid)
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestMultiplierBootstrap:
    @pytest.fixture()
    def sample(self):
        law = censoring_for_fraction(EXP, 0.1)
        return draw_balanced_rss(EXP, 3, 30, law, RngStream(7))

    def test_degenerate_one_law_gives_zero_variance(self, sample):
        grid = np.array([0.5, 1.0])
        result = multiplier_bootstrap(
            sample, grid, 50, law=MultiplierLaw("degenerate-one"),
            rng=RngStream(0))
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

    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    def test_relabelled_cycles_give_same_replicates(self, sample, tied):
        # the weights are exchangeable: a rank's j-th draw weights its j-th
        # sorted observation, whichever cycle holds it
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

    @pytest.mark.parametrize("law", [MultiplierLaw(), MultiplierLaw("gamma", 0.003),
                                     MultiplierLaw("degenerate-one")],
                             ids=["unit-exponential", "gamma", "degenerate-one"])
    def test_matches_dense_reference_bitwise(self, sample, law):
        # times on a 0.1 grid so that ranks hold tie groups; at gamma shape
        # 0.003 about a fifth of the weights underflow to 0, so some
        # replicates lose a whole risk set and are excluded
        tied = RankedSetSample(3, 30, np.round(sample.times, 1), sample.events)
        grid = np.unique(tied.times[tied.events])
        result = multiplier_bootstrap(tied, grid, 40, law=law, rng=RngStream(3))
        reps, variance, n_excluded = dense_bootstrap(tied, grid, 40, law, RngStream(3))
        np.testing.assert_array_equal(result.replicates, reps)
        np.testing.assert_array_equal(result.variance, variance)
        assert result.n_excluded == n_excluded
        assert (n_excluded > 0) == (law.kind == "gamma")
