"""Deterministic stream addressing and RSS/SRS sample generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rsskm import EmptyDesignError, ParameterError, RngStream, draw_balanced_rss
from rsskm.harness import prepare_model
from rsskm.models import (
    AftModel,
    CensoringLaw,
    WeibullModel,
    censoring_for_fraction,
    judged_rank_survival,
)
from rsskm import models
from rsskm.sampling import StreamParts, draw_samples
from oracles import judged_slot_scores, order_statistic_survival

EXP = WeibullModel()
NONE = CensoringLaw("none")
LEVELS = (0.9, 0.75, 0.5, 0.25, 0.1)


class CandidateSetAft(AftModel):
    """Oracle for the AFT slot draw: per slot, k candidates with their
    proxy scores are drawn and the one judged r-th smallest is measured.
    This was the AFT sampler before each slot was drawn from its exact law,
    so it reproduces those draws bit for bit."""

    def __init__(self, model: AftModel):
        super().__init__(model.mu, model.beta, model.sigma_eps, model.sigma_u)

    def draw_log_lifetimes(self, gen, size):
        return self.mu + self.log_sd * gen.standard_normal(size)

    def ranking_scores(self, v, gen):
        """Proxy scores v + sigma_u * N(0,1) of log lifetimes v."""
        noise = gen.standard_normal(np.shape(v))
        if not math.isfinite(self.sigma_u):
            return noise
        return v + self.sigma_u * noise

    def draw_slots(self, k, size, lifetimes, proxies):
        v = self.draw_log_lifetimes(lifetimes.generator(), (*size, k, k))
        if k > 1:
            scores = self.ranking_scores(v, proxies.generator())
            order = np.argsort(scores, axis=-1, kind="stable")
            slot = np.arange(k).reshape((1,) * len(size) + (k, 1))
            v = np.take_along_axis(v, np.take_along_axis(order, slot, axis=-1), axis=-1)
        return np.exp(v[..., 0])


def weibull_scores(model: WeibullModel, x, gen):
    """Proxy scores x + sigma_z * N(0,1) of Weibull lifetimes x, pure noise
    at sigma_z = inf: the scores the Weibull judged-rank law ranks by."""
    noise = gen.standard_normal(np.shape(x))
    if not math.isfinite(model.sigma_z):
        return noise
    return x + model.sigma_z * noise


class CandidateSetWeibull(WeibullModel):
    """Oracle for the Weibull slot draw: per slot, k candidates are drawn
    with ``Generator.weibull`` and the one whose ``weibull_scores`` score is
    the r-th smallest is measured.  This was the Weibull sampler before each
    slot was drawn from its law: bit for bit at sigma_z = 0, and under
    judged ranking up to the last bit of the power at nu != 1 (it drew
    theta * E^(1/nu))."""

    def draw_slots(self, k, size, lifetimes, proxies):
        x = self.scale_theta1 * lifetimes.generator().weibull(self.shape_nu, (*size, k, k))
        if k > 1:
            scores = weibull_scores(self, x, proxies.generator())
            order = np.argsort(scores, axis=-1, kind="stable")
            slot = np.arange(k).reshape((1,) * len(size) + (k, 1))
            x = np.take_along_axis(x, np.take_along_axis(order, slot, axis=-1), axis=-1)
        return x[..., 0]


def rank_wise_survival(times, at):
    """(k, times) fraction of each rank's m times beyond each of ``at``."""
    return (times[..., None] > np.asarray(at)).mean(axis=1)


class TestRngStream:
    def test_same_address_same_draws(self):
        a = RngStream(42, 3, (1, 2)).generator().random(5)
        b = RngStream(42, 3, (1, 2)).generator().random(5)
        np.testing.assert_array_equal(a, b)

    def test_children_are_distinct(self):
        root = RngStream(42)
        a = root.child(0).generator().random(5)
        b = root.child(1).generator().random(5)
        assert not np.array_equal(a, b)

    def test_child_extends_path(self):
        assert RngStream(1, 2).child(3, 4).path == (3, 4)
        assert RngStream(1, 2).child(3).child(4).path == (3, 4)

    def test_streams_are_hashable_addresses(self):
        assert RngStream(1, 2, (3,)) == RngStream(1, 2, (3,))
        assert hash(RngStream(1)) == hash(RngStream(1))


class TestDrawBalancedRss:
    def test_shapes_and_balance(self):
        s = draw_balanced_rss(EXP, 4, 7, NONE, RngStream(0))
        assert (s.set_size_k, s.cycles_m) == (4, 7)
        assert s.times.shape == (4, 7) and s.events.shape == (4, 7)
        assert s.times.size == 28

    def test_deterministic(self):
        a = draw_balanced_rss(EXP, 3, 5, NONE, RngStream(9))
        b = draw_balanced_rss(EXP, 3, 5, NONE, RngStream(9))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.events, b.events)

    def test_no_censoring_all_events(self):
        s = draw_balanced_rss(EXP, 3, 5, NONE, RngStream(1))
        assert np.all(s.events)

    def test_censoring_consumes_its_own_substream(self):
        # adding censoring must not change the underlying lifetimes: the
        # censored draw observes min(x, c) of the same lifetimes
        rng = RngStream(17)
        clean = draw_balanced_rss(EXP, 3, 40, NONE, rng)
        law = censoring_for_fraction(EXP, 0.3)
        cens = draw_balanced_rss(EXP, 3, 40, law, rng)
        assert np.all(cens.times <= clean.times + 1e-15)
        np.testing.assert_array_equal(
            cens.times[cens.events], clean.times[cens.events])

    def test_perfect_ranking_orders_rank_means(self):
        s = draw_balanced_rss(EXP, 4, 4000, NONE, RngStream(2))
        means = s.times.mean(axis=1)
        assert np.all(np.diff(means) > 0)

    def test_perfect_ranking_rank_survival_matches_order_statistic(self):
        # rank 1 of k=2 is the minimum: P(min > 1) = e^-2
        s = draw_balanced_rss(EXP, 2, 100_000, NONE, RngStream(3))
        assert np.mean(s.times[0] > 1.0) == pytest.approx(
            np.exp(-2), abs=0.005)
        # pooled ranks recover the population law (balanced-design identity)
        assert np.mean(s.times > 1.0) == pytest.approx(np.exp(-1), abs=0.005)

    def test_judged_ranking_uses_proxy(self):
        model = AftModel(sigma_u=np.inf)  # pure-noise proxy
        s = draw_balanced_rss(model, 4, 4000, NONE, RngStream(4))
        means = s.times.mean(axis=1)
        # uninformative ranking: rank means statistically indistinguishable
        assert np.ptp(means) < 0.5 * np.mean(means)

    def test_empty_design_rejected(self):
        with pytest.raises(EmptyDesignError):
            draw_balanced_rss(EXP, 0, 5, NONE, RngStream(0))
        with pytest.raises(EmptyDesignError):
            draw_balanced_rss(EXP, 1, 0, NONE, RngStream(0))


class TestDrawSrs:
    """A simple random sample of n is the k = 1, m = n draw."""

    def test_k1_rss_is_bit_identical_to_srs(self):
        # the harness draws its SRS blocks with draw_samples at k = 1
        rng = RngStream(123)
        law = censoring_for_fraction(EXP, 0.2)
        rss = draw_balanced_rss(EXP, 1, 50, law, rng)
        times, events = draw_samples(EXP, 1, 50, law, rng, reps=3)
        np.testing.assert_array_equal(rss.times, times[0])
        np.testing.assert_array_equal(rss.events, events[0])

    def test_srs_shape(self):
        s = draw_balanced_rss(EXP, 1, 30, NONE, RngStream(5))
        assert (s.set_size_k, s.cycles_m) == (1, 30)

    def test_censored_fraction_close_to_target(self):
        law = censoring_for_fraction(EXP, 0.3)
        s = draw_balanced_rss(EXP, 1, 200_000, law, RngStream(6))
        assert np.mean(~s.events) == pytest.approx(0.3, abs=0.005)


class TestDrawSamples:
    # draws recorded from the per-replicate sampler (judged Weibull k = 3:
    # from the tabulated-law sampler); the block sampler must consume every
    # substream the same way
    def test_pinned_draws(self):
        model = prepare_model(WeibullModel(), 0.9)
        law = censoring_for_fraction(model, 0.3)
        s = draw_balanced_rss(model, 3, 2, law, RngStream(7, 1))
        assert s.times.tolist() == [[0.3030839921817966, 0.30820836317094097],
                                    [0.8256160869492497, 0.6647845957857899],
                                    [2.323920884376832, 0.5775884821884192]]
        assert s.events.tolist() == [[True, True], [False, True], [False, True]]
        times, events = draw_samples(model, 3, 2, law, RngStream(7, 1), reps=4)
        np.testing.assert_array_equal(times[0], s.times)
        np.testing.assert_array_equal(events[0], s.events)
        s = draw_balanced_rss(model, 1, 4, law, RngStream(7, 1))
        assert s.times.tolist() == [[1.1923461757254046, 0.8256160869492497,
                                     0.8515744550312803, 0.199166502532115]]
        assert s.events.tolist() == [[True, False, True, True]]
        aft = prepare_model(AftModel(), 0.5)
        law = censoring_for_fraction(aft, 0.3)
        s = draw_balanced_rss(aft, 1, 4, law, RngStream(3).child(0, 5))
        assert s.times.tolist() == [[0.19790552125355912, 27.599903177951767,
                                     1.2276247061338494, 0.026673988437905964]]
        assert s.events.tolist() == [[True, False, True, True]]
        s = draw_balanced_rss(CandidateSetAft(aft), 2, 3, law, RngStream(3).child(0, 5))
        assert s.times.tolist() == [[0.19790552125355912, 0.3711387157710613,
                                     1.1614550438041065],
                                    [1.2276247061338494, 4.509316450756523,
                                     0.2699778349004086]]
        assert s.events.tolist() == [[True, True, True], [True, True, False]]

    def test_pinned_aft_slot_draws(self):
        # each AFT slot inverts its tabulated law at a uniform from the
        # proxy substream; the censoring substream is the oracle's, so the
        # censored units show the oracle's censoring times
        aft = prepare_model(AftModel(), 0.5)
        law = censoring_for_fraction(aft, 0.3)
        s = draw_balanced_rss(aft, 2, 3, law, RngStream(3).child(0, 5))
        assert s.times.tolist() == [[0.8021164199737582, 0.05448105359766133,
                                     0.8450247015477867],
                                    [0.6901468823767488, 0.8236857185695603,
                                     0.2699778349004086]]
        assert s.events.tolist() == [[False, True, True], [True, True, False]]

    def test_first_replicate_of_a_block_is_the_single_draw(self):
        model = prepare_model(AftModel(), 0.5)
        law = censoring_for_fraction(model, 0.3)
        times, events = draw_samples(model, 3, 4, law, RngStream(2, 1), reps=5)
        assert times.shape == events.shape == (5, 3, 4)
        one = draw_balanced_rss(model, 3, 4, law, RngStream(2, 1))
        np.testing.assert_array_equal(times[0], one.times)
        np.testing.assert_array_equal(events[0], one.events)
        assert not np.array_equal(times[1], times[0])


# (model, k): sets of one, judged AFT and Weibull, perfect-ranking Weibull,
# and the candidate-set oracles, which draw standard_normal and weibull
# blocks of (reps, m, k, k)
PARTED_DRAWS = [
    pytest.param(prepare_model(AftModel(), 0.5), 1, id="aft-k1"),
    pytest.param(WeibullModel(1.5, 1.5), 1, id="weibull-k1"),
    pytest.param(prepare_model(AftModel(), 0.5), 4, id="judged-aft"),
    pytest.param(prepare_model(WeibullModel(1.5, 1.5), 0.7), 3, id="judged-weibull"),
    pytest.param(WeibullModel(1.5, 1.5), 4, id="perfect-weibull"),
    pytest.param(CandidateSetAft(prepare_model(AftModel(), 0.5)), 3, id="candidate-aft"),
    pytest.param(CandidateSetWeibull(1.5, 1.5, 0.5), 3, id="candidate-weibull"),
]


class TestStreamParts:
    """A block drawn from consecutive stream parts is, bit for bit, the
    concatenation of each part's own draw."""

    PARTS = StreamParts(((RngStream(5).child(0, 0), 3), (RngStream(5).child(1, 0), 1),
                         (RngStream(5).child(2, 0), 5)))

    @pytest.mark.parametrize("p_cens", [0.0, 0.3], ids=["no-censoring", "censored"])
    @pytest.mark.parametrize("model, k", PARTED_DRAWS)
    def test_block_is_the_parts_draws(self, model, k, p_cens):
        law = censoring_for_fraction(model, p_cens)
        assert law.kind == ("none" if p_cens == 0 else "weibull-scale")
        times, events = draw_samples(model, k, 6, law, self.PARTS, 9)
        alone = [draw_samples(model, k, 6, law, stream, reps)
                 for stream, reps in self.PARTS.parts]
        want = np.concatenate([t for t, _ in alone])
        assert times.shape == (9, k, 6)
        np.testing.assert_array_equal(times.view(np.uint64), want.view(np.uint64), strict=True)
        np.testing.assert_array_equal(events, np.concatenate([e for _, e in alone]),
                                      strict=True)

    def test_generator_draws_each_part_in_sequence(self):
        # several draws from one generator consume each part's generator as
        # the same draws of the part's replicates alone do
        gen = self.PARTS.generator()
        got = gen.standard_normal((9, 2)), gen.weibull(1.5, (9, 3)), gen.random((9,))
        start = 0
        for stream, reps in self.PARTS.parts:
            own = stream.generator()
            want = own.standard_normal((reps, 2)), own.weibull(1.5, (reps, 3)), own.random(reps)
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a[start:start + reps], b, strict=True)
            start += reps

    def test_block_must_hold_the_parts_replicates(self):
        with pytest.raises(ValueError, match="block of 8 replicates"):
            self.PARTS.generator().random((8, 2))


class TestAftSlotLaw:
    """Each AFT judged slot drawn directly from its exact law."""

    @pytest.mark.parametrize("rho", [0.1, 0.3, 0.5])  # 0.5 is at the ceiling
    def test_rank_wise_survival_matches_the_exact_law(self, rho):
        model = prepare_model(AftModel(), rho)
        k, m = 6, 20_000
        s = draw_balanced_rss(model, k, m, NONE, RngStream(8, int(10 * rho)))
        times = [model.quantile(level) for level in LEVELS]
        want = judged_rank_survival(model, k, times)
        se = np.sqrt(want * (1 - want) / m)
        assert np.all(np.abs(rank_wise_survival(s.times, times) - want) <= 4 * se)

    def test_zero_noise_is_the_order_statistic_law(self):
        model = AftModel(sigma_u=0.0)
        k, m = 5, 20_000
        s = draw_balanced_rss(model, k, m, NONE, RngStream(9))
        times = [model.quantile(level) for level in LEVELS]
        want = np.array([[order_statistic_survival(model.survival, k, r, t) for t in times]
                         for r in range(1, k + 1)])
        se = np.sqrt(want * (1 - want) / m)
        assert np.all(np.abs(rank_wise_survival(s.times, times) - want) <= 4 * se)
        assert np.all(np.diff(np.median(s.times, axis=1)) > 0)

    def test_pure_noise_is_the_population_law(self):
        model = AftModel(sigma_u=math.inf)
        k, m = 5, 20_000
        s = draw_balanced_rss(model, k, m, NONE, RngStream(10))
        # every slot carries the population law
        want = np.array(LEVELS)
        se = np.sqrt(want * (1 - want) / m)
        got = rank_wise_survival(s.times, [model.quantile(level) for level in LEVELS])
        assert np.all(np.abs(got - want) <= 4 * se)

    @pytest.mark.parametrize("rho, p_cens", [(0.3, 0.0), (0.5, 0.3), (0.9, 0.3)])
    def test_agrees_with_candidate_sets(self, rho, p_cens):
        # the two samplers measure the same law: rank-wise survival of the
        # observed times and rank-wise event fractions within 4 SE
        model = prepare_model(AftModel(), rho)
        law = censoring_for_fraction(model, p_cens)
        k, m = 4, 20_000
        ours = draw_balanced_rss(model, k, m, law, RngStream(11, int(10 * rho)))
        oracle = draw_balanced_rss(CandidateSetAft(model), k, m, law, RngStream(12))
        times = [model.quantile(level) for level in LEVELS]
        for a, b in ((rank_wise_survival(ours.times, times),
                      rank_wise_survival(oracle.times, times)),
                     (ours.events.mean(axis=1), oracle.events.mean(axis=1))):
            p = (a + b) / 2
            se = np.sqrt(p * (1 - p) * 2 / m)
            assert np.all(np.abs(a - b) <= 4 * se + 1e-12)

    def test_uncalibrated_model_rejected_for_k_above_one(self):
        with pytest.raises(ParameterError, match="uncalibrated"):
            draw_balanced_rss(AftModel(), 2, 3, NONE, RngStream(0))
        assert draw_balanced_rss(AftModel(), 1, 3, NONE, RngStream(0)).times.shape == (1, 3)


class TestWeibullSlotLaw:
    """Perfect-ranking Weibull slots drawn from the order-statistic law."""

    def test_pinned_draws(self):
        law = censoring_for_fraction(EXP, 0.3)
        s = draw_balanced_rss(EXP, 3, 2, law, RngStream(7, 1))
        assert s.times.tolist() == [[0.4699253728861549, 0.3527145987367305],
                                    [0.8256160869492497, 0.8630374471149055],
                                    [0.720137351667219, 0.7976059936869252]]
        assert s.events.tolist() == [[True, True], [False, False], [True, False]]
        # replicate 0 of a block is the single draw
        times, events = draw_samples(EXP, 3, 2, law, RngStream(7, 1), reps=4)
        np.testing.assert_array_equal(times[0], s.times)
        np.testing.assert_array_equal(events[0], s.events)

    def test_draws_nothing_from_the_lifetime_substream(self):
        class Unused:
            def generator(self):
                raise AssertionError("the lifetime substream was drawn from")

        slots = EXP.draw_slots(4, (3, 2), Unused(), RngStream(1))
        assert slots.shape == (3, 2, 4) and np.all(slots > 0)
        # a set of one is a population draw from the lifetime substream
        np.testing.assert_array_equal(EXP.draw_slots(1, (3,), RngStream(2), Unused()),
                                      EXP.draw_ranking_scale(RngStream(2).generator(), (3, 1)))

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_agrees_with_candidate_sets(self, nu):
        # rank-wise survival of the observed times and rank-wise event
        # fractions within 4 SE of the candidate-set sampler's
        model = WeibullModel(nu, 1.5)
        law = censoring_for_fraction(model, 0.3)
        k, m = 5, 20_000
        ours = draw_balanced_rss(model, k, m, law, RngStream(13, int(nu)))
        oracle = draw_balanced_rss(CandidateSetWeibull(nu, 1.5), k, m, law, RngStream(14))
        times = [model.quantile(level) for level in LEVELS]
        for a, b in ((rank_wise_survival(ours.times, times),
                      rank_wise_survival(oracle.times, times)),
                     (ours.events.mean(axis=1), oracle.events.mean(axis=1))):
            p = (a + b) / 2
            se = np.sqrt(p * (1 - p) * 2 / m)
            assert np.all(np.abs(a - b) <= 4 * se + 1e-12)

    @pytest.mark.parametrize("nu", [1.0, 2.0])
    def test_slot_levels_are_beta(self, nu):
        # F(X_[r]) ~ Beta(r, k-r+1) for the r-th order statistic of k
        model = WeibullModel(nu, 1.5)
        k, m = 6, 5000
        s = draw_balanced_rss(model, k, m, NONE, RngStream(15, int(nu)))
        levels = -np.expm1(-((s.times / model.scale_theta1) ** nu))
        for r in range(1, k + 1):
            assert stats.kstest(levels[r - 1], stats.beta(r, k - r + 1).cdf).pvalue > 1e-3


def knot_draws(law) -> np.ndarray:
    """The tabulated F_r of each slot r of ``law`` at its points, as draws
    in [0, 1): ``(points, k)``."""
    shifted = law._inverse[0]
    k = len(law.mass)
    knots = (shifted.reshape(k, -1) - np.arange(k)[:, None]).T
    return np.clip(knots, 0.0, np.nextafter(1.0, 0.0))


def bucket_edge_draws(k: int) -> np.ndarray:
    """Every edge b / B of the slot search's buckets and the double just
    below it, the same in each of k slots: ``(2 B - 1, k)``."""
    edges = np.arange(models._BUCKETS) / models._BUCKETS
    u = np.concatenate([edges, np.nextafter(edges[1:], 0.0)])
    return np.repeat(u[:, None], k, axis=1)


class TestJudgedWeibullSlotLaw:
    """Judged Weibull (and AFT) slots drawn by inverting the tabulated
    judged-rank law;
    the candidate-set oracle checks the law that the sampler and re_true
    both tabulate."""

    @pytest.mark.parametrize("rho", [0.3, 0.9])
    @pytest.mark.parametrize("nu", [1.0, 1.5])
    def test_agrees_with_candidate_sets(self, nu, rho):
        # per rank: two-sample KS of the lifetimes, and means within 4 SE
        model = prepare_model(WeibullModel(nu, 1.5), rho)
        k, m = 10, 20_000
        ours = draw_balanced_rss(model, k, m, NONE, RngStream(16, int(10 * rho)))
        oracle = draw_balanced_rss(CandidateSetWeibull(nu, 1.5, model.sigma_z), k, m, NONE,
                                   RngStream(17, int(10 * rho)))
        for a, b in zip(ours.times, oracle.times):
            assert stats.ks_2samp(a, b).pvalue > 1e-3
            se = math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / m)
            assert abs(a.mean() - b.mean()) <= 4 * se

    # AFT slots are drawn by the same inversion (AFT rho 0.9 saturates)
    @pytest.mark.parametrize("base, rho", [
        pytest.param(WeibullModel(1.5, 1.5), 0.3, id="0.3"),
        pytest.param(WeibullModel(1.5, 1.5), 0.9, id="0.9"),
        pytest.param(AftModel(), 0.3, id="aft-0.3"),
        pytest.param(AftModel(), 0.9, id="aft-0.9"),
    ])
    def test_inverts_each_slot_cdf(self, base, rho):
        # F_r(X) = U for the uniform U each slot draws from the proxy
        # substream, with F_r recomputed at the drawn lifetimes
        class Unused:
            def generator(self):
                raise AssertionError("the lifetime substream was drawn from")

        model = prepare_model(base, rho)
        k, m = 10, 200
        x = model.draw_slots(k, (1, m), Unused(), RngStream(18))
        u = RngStream(18).generator().random((1, m, k))
        for r in range(k):
            cdf = 1 - judged_rank_survival(model, k, x[0, :, r])[r]
            assert np.max(np.abs(cdf - u[0, :, r])) <= 1e-6

    @pytest.mark.parametrize("k", [4, 10])
    def test_bucket_index_matches_direct_search(self, k):
        # random draws, draws on the table's knots, on the bucket edges, one
        # ulp below them and the largest uniform below 1, in one block: the
        # direct search in draw order, clipped to each slot's row, finds the
        # same intervals
        law = models._judged_law(prepare_model(WeibullModel(1.5, 1.5), 0.9), k, ())
        shifted = law._inverse[0]
        n = shifted.size // k
        u = np.concatenate([np.random.default_rng(k).random((500, k)), knot_draws(law),
                            bucket_edge_draws(k),
                            np.full((3, k), np.nextafter(1.0, 0.0))])
        first = np.arange(k) * n
        want = np.clip(np.searchsorted(shifted, u + np.arange(k), side="right") - 1,
                       first, first + n - 2)
        np.testing.assert_array_equal(law._intervals(u), want, strict=True)
        np.testing.assert_array_equal(law._intervals(u[:500].reshape(50, 10, k)),
                                      want[:500].reshape(50, 10, k), strict=True)

    def test_largest_uniform_stays_in_its_slot(self):
        # u + r - 1 rounds to r at the largest uniform below 1 for r > 1,
        # which the next row of the shifted table starts with
        model = prepare_model(WeibullModel(1.5, 1.5), 0.5)
        law = models._judged_law(model, 10, ())
        top = law.scores(np.full(10, np.nextafter(1.0, 0.0)))
        assert np.all(top >= law.scores(np.full(10, 0.999999))) and np.all(top <= 8.0)


JUDGED = [
    pytest.param(AftModel(), id="aft"),
    pytest.param(WeibullModel(1.5, 1.5), id="weibull"),
]


class TestBucketIndexedInversion:
    """``_JudgedLaw.scores`` through the bucket index equals, bit for bit,
    the inversion by the argsorted search that it replaced (oracle)."""

    @staticmethod
    def law(base, k):
        return models._judged_law(prepare_model(base, 0.5), k, ())

    @staticmethod
    def assert_oracle_equal(law, u):
        want_points, want = judged_slot_scores(law, u)
        np.testing.assert_array_equal(law._intervals(u), want_points, strict=True)
        np.testing.assert_array_equal(law.scores(u).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("k", [2, 4, 10])
    @pytest.mark.parametrize("base", JUDGED)
    def test_edges_knots_and_extremes(self, base, k):
        law = self.law(base, k)
        top = np.nextafter(1.0, 0.0)
        knots = knot_draws(law)
        u = np.concatenate([np.random.default_rng(k).random((2000, k)), knots,
                            np.nextafter(knots, 0.0), np.fmin(np.nextafter(knots, 1.0), top),
                            bucket_edge_draws(k), np.zeros((1, k)), np.full((1, k), top)])
        self.assert_oracle_equal(law, u)
        self.assert_oracle_equal(law, u[:2000].reshape(40, 50, k))

    @pytest.mark.parametrize("k", [2, 4, 10])
    @pytest.mark.parametrize("base", JUDGED)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                    min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_draws(self, base, k, draws):
        u = np.resize(np.array(draws), (-(-len(draws) // k), k))
        self.assert_oracle_equal(self.law(base, k), u)

    @pytest.mark.parametrize("base", JUDGED)
    def test_tail_buckets_take_the_search(self, base):
        # the first and last bucket of every row hold several knots, so no
        # draw in them reads an index entry
        k, buckets = 10, models._BUCKETS
        law = self.law(base, k)
        index = law._inverse[2].reshape(k, buckets)
        assert np.all(index[:, [0, -1]] == -1)
        low = np.random.default_rng(1).random((500, k)) / buckets
        u = np.concatenate([low, 1.0 - low, np.zeros((1, k)),
                            np.full((1, k), np.nextafter(1.0, 0.0))])
        assert np.all(index[np.arange(k), (u * buckets).astype(int)] == -1)
        self.assert_oracle_equal(law, u)
