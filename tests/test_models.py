"""Population laws, order statistics, the judged-rank law, ranking
calibration, censoring construction, and asymptotic variance kernels.

Reference values: order-statistic and censoring numbers are hand-derived
from the stated closed forms; kernel values are cross-checked between the
package's quadrature, the exponential closed form of ``oracles`` and
independent adaptive quadrature.
"""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from rsskm import InferenceWindowError, ParameterError, RngStream, draw_balanced_rss
from rsskm.harness import prepare_model
from rsskm import models
from rsskm.models import (
    AftModel,
    CensoringLaw,
    WeibullModel,
    _W_EDGES,
    _judged_kernels,
    _normal_isf,
    _normal_pdf,
    _panel_nodes,
    aft_rho_ceiling,
    aft_score_correlation,
    asymptotic_km_variance,
    calibrate_aft_concomitant,
    censoring_for_fraction,
    dell_clutter_sigma,
    judged_rank_survival,
)
from oracles import exponential_km_variance, order_statistic_survival
from test_sampling import weibull_scores

AFT = AftModel()  # lognormal, log-sd = hypot(1.5, 0.4)
EXP = WeibullModel()  # unit exponential


class TestLifetimeLaws:
    def test_aft_log_sd(self):
        assert AFT.log_sd == pytest.approx(math.hypot(1.5, 0.4))

    def test_aft_median_is_one(self):
        assert AFT.quantile(0.5) == pytest.approx(1.0, abs=1e-12)
        assert AFT.survival(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_aft_mean_lifetime(self):
        s = AFT.log_sd
        assert AFT.mean_lifetime == pytest.approx(math.exp(s**2 / 2))

    def test_quantile_inverts_survival(self):
        for model in (AFT, WeibullModel(2.0, 3.0)):
            for level in (0.9, 0.5, 0.1):
                t = model.quantile(level)
                assert model.survival(t) == pytest.approx(level, abs=1e-12)

    def test_exponential_survival(self):
        def mean_lifetime(model):
            return model.scale_theta1 * math.gamma(1 + 1 / model.shape_nu)

        assert EXP.survival(1.0) == pytest.approx(math.exp(-1))
        assert mean_lifetime(EXP) == pytest.approx(1.0)
        assert EXP.lifetime_variance == pytest.approx(1.0)

    def test_far_tail_survival_is_zero_without_warnings(self):
        # (t/theta)^nu overflows to inf at t = 1e300, nu = 1.5; exp(-inf) = 0
        law = CensoringLaw("weibull-scale", 2.0, shape=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert WeibullModel(1.5).survival(1e300) == 0.0
            assert law.survival(1e300) == 0.0
            np.testing.assert_array_equal(WeibullModel(1.5).survival([1.0, 1e300])[1:], 0.0)

    @pytest.mark.parametrize("model, level, quantity", [
        (WeibullModel(0.001), 0.1, "quantile"),
        (AftModel(mu=800.0), 0.75, "quantile"),
        (AftModel(beta=600.0), 0.5, "ceiling"),
    ], ids=["weibull-quantile", "aft-quantile", "aft-ceiling"])
    def test_overflow_is_a_parameter_error(self, model, level, quantity):
        with pytest.raises(ParameterError, match=f"{quantity}.* overflows"):
            model.quantile(level) if quantity == "quantile" else aft_rho_ceiling(model)

    @pytest.mark.parametrize("nu, theta1, sigma_z", [(1.0, 1.0, 1e106), (2.0, 1e110, 1e100)],
                             ids=["rho-1e-106", "scale-1e110"])
    def test_score_cdf_spline_overflow_is_a_parameter_error(self, nu, theta1, sigma_z):
        # each of these judged models once read NaN from its score-CDF spline
        with pytest.raises(ParameterError, match="score-CDF spline.* overflows"):
            WeibullModel(nu, theta1, sigma_z)

    def test_level_bounds_rejected(self):
        with pytest.raises(ParameterError):
            AFT.quantile(0.0)
        with pytest.raises(ParameterError):
            EXP.quantile(1.5)

    def test_invalid_weibull_params(self):
        with pytest.raises(ParameterError):
            WeibullModel(shape_nu=0.0)
        with pytest.raises(ParameterError):
            WeibullModel(sigma_z=-1.0)
        for nu, theta1 in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ParameterError, match="finite"):
                WeibullModel(nu, theta1)

    def test_draw_matches_law(self):
        gen = np.random.default_rng(7)
        x = EXP.draw_ranking_scale(gen, 200_000)
        assert np.mean(x > 1.0) == pytest.approx(math.exp(-1), abs=0.005)


class TestStandardNormalMatchesScipyStats:
    """The scipy.special forms are bitwise scipy.stats.norm, sign of zero
    included (compared through ``tobytes``)."""

    def test_aft_survival(self):
        t = np.array([0.0, 1e-300, math.exp(AFT.mu), *np.geomspace(1e-6, 1e6, 401),
                      1e300, math.inf])
        z = (np.log(t[1:]) - AFT.mu) / AFT.log_sd
        want = np.concatenate([[1.0], norm.sf(z)])
        assert AFT.survival(t).tobytes() == want.tobytes()
        assert AFT.survival(math.exp(AFT.mu)) == 0.5

    def test_aft_quantile(self):
        levels = np.append(np.linspace(1e-9, 1 - 1e-9, 2001), 0.5)
        got = np.array([AFT.quantile(level) for level in levels])
        want = np.array([math.exp(AFT.mu + AFT.log_sd * norm.isf(level)) for level in levels])
        assert got.tobytes() == want.tobytes()

    def test_inverse_survival_keeps_the_sign_of_zero(self):
        # the judged-rank law inverts S(t) into scores; at S = 0.5 both give +0.0
        q = np.append(np.linspace(0.0, 1.0, 1001), [0.5, 1e-300, 1 - 1e-16])
        assert _normal_isf(q).tobytes() == norm.isf(q).tobytes()
        assert _normal_isf(0.5).tobytes() == np.float64(0.0).tobytes()

    def test_density_on_quadrature_nodes(self):
        u, _ = _panel_nodes(_W_EDGES)
        assert _normal_pdf(u).tobytes() == norm.pdf(u).tobytes()


class TestOrderStatistics:
    def test_max_of_two_exponentials(self):
        # P(max > 1) = 1 - (1 - e^-1)^2
        want = 1.0 - (1.0 - math.exp(-1)) ** 2
        got = order_statistic_survival(EXP.survival, 2, 2, 1.0)
        assert got == pytest.approx(want, abs=1e-14)

    def test_min_of_two_exponentials(self):
        assert order_statistic_survival(EXP.survival, 2, 1, 1.0) == pytest.approx(
            math.exp(-2), abs=1e-14)

    def test_accepts_plain_survival_value(self):
        assert order_statistic_survival(0.5, 2, 2, 0.0) == pytest.approx(0.75)

    def test_rank_out_of_range(self):
        with pytest.raises(ParameterError):
            order_statistic_survival(0.5, 3, 4, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 8, 12])
    def test_mcintyre_identity(self, k):
        # (1/k) sum_r S_[r](t) == S(t)
        grid = np.linspace(0.01, 5.0, 100)
        for t in grid:
            s = float(AFT.survival(t))
            avg = math.fsum(
                order_statistic_survival(s, k, r, t) for r in range(1, k + 1)
            ) / k
            assert abs(avg - s) <= 1e-12


class TestCensoring:
    def test_weibull_same_shape_scale(self):
        # theta2 = theta1 * ((1-p)/p)^(1/nu) = (0.7/0.3) = 7/3 at nu=1
        law = censoring_for_fraction(EXP, 0.3)
        assert law.kind == "weibull-scale"
        assert law.parameter == pytest.approx(7 / 3)

    def test_weibull_censored_fraction_is_exact(self):
        # P(C < X) = theta1^nu / (theta1^nu + theta2^nu) = p
        model = WeibullModel(2.0, 1.5)
        law = censoring_for_fraction(model, 0.3)
        gen = np.random.default_rng(5)
        x = model.draw_ranking_scale(gen, 400_000)
        c = law.draw(gen, 400_000)
        assert np.mean(c < x) == pytest.approx(0.3, abs=0.005)

    @pytest.mark.parametrize("nu", [1.0, 1.5])
    def test_weibull_draws_match_generator_weibull(self, nu):
        # lifetimes and censoring times are theta * E^(1/nu) of the
        # exponential variates Generator.weibull draws: bitwise at nu = 1,
        # within the last bit of the power otherwise
        model = WeibullModel(nu, 1.5)
        law = censoring_for_fraction(model, 0.3)
        for draw, scale in ((model.draw_ranking_scale, 1.5), (law.draw, law.parameter)):
            got = draw(np.random.default_rng(11), 100_000)
            want = scale * np.random.default_rng(11).weibull(nu, 100_000)
            if nu == 1.0:
                np.testing.assert_array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=4.5e-16, atol=0)

    def test_aft_exponential_rate(self):
        # exponential censoring, written as a Weibull of shape 1 with scale
        # 1 / rate
        law = censoring_for_fraction(AFT, 0.3)
        assert law.kind == "weibull-scale"
        assert law.shape == 1.0
        assert law.parameter == pytest.approx(
            1 / (-math.log(0.7) / AFT.mean_lifetime))

    def test_no_censoring(self):
        law = censoring_for_fraction(EXP, 0.0)
        assert law.kind == "none"
        assert np.all(np.isinf(law.draw(np.random.default_rng(0), 10)))
        assert law.survival(100.0) == 1.0

    def test_invalid_fraction(self):
        with pytest.raises(ParameterError):
            censoring_for_fraction(EXP, 1.0)

    def test_invalid_law(self):
        with pytest.raises(ParameterError):
            CensoringLaw("uniform", 1.0)
        with pytest.raises(ParameterError):
            CensoringLaw("weibull-scale", -1.0)


class TestRankingCalibration:
    def test_dell_clutter_value(self):
        # Var(X)=1, rho=0.9: sigma^2 = 1/0.81 - 1
        assert dell_clutter_sigma(1.0, 0.9) == pytest.approx(
            1 / 0.81 - 1, abs=1e-12)

    def test_dell_clutter_perfect_ranking(self):
        assert dell_clutter_sigma(2.0, 1.0) == 0.0

    def test_dell_clutter_errors(self):
        with pytest.raises(ParameterError):
            dell_clutter_sigma(-1.0, 0.5)
        with pytest.raises(ParameterError):
            dell_clutter_sigma(1.0, 0.0)

    def test_dell_clutter_achieves_target_correlation(self):
        rho = 0.6
        sigma = math.sqrt(dell_clutter_sigma(EXP.lifetime_variance, rho))
        gen = np.random.default_rng(2)
        x = EXP.draw_ranking_scale(gen, 500_000)
        score = x + sigma * gen.standard_normal(x.size)
        assert np.corrcoef(score, x)[0, 1] == pytest.approx(rho, abs=0.01)

    def test_aft_ceiling_value(self):
        s = AFT.log_sd
        assert aft_rho_ceiling(AFT) == pytest.approx(
            s / math.sqrt(math.expm1(s**2)))
        assert aft_score_correlation(AFT, 0.0) == pytest.approx(
            aft_rho_ceiling(AFT), abs=1e-14)

    def test_calibration_round_trip_below_ceiling(self):
        for rho in (0.1, 0.3, 0.45):
            sigma = calibrate_aft_concomitant(AFT, rho)
            assert aft_score_correlation(AFT, sigma) == pytest.approx(
                rho, abs=1e-10)

    def test_targets_past_ceiling_share_one_level(self):
        sigmas = {calibrate_aft_concomitant(AFT, rho) for rho in (0.5, 0.7, 0.9)}
        assert len(sigmas) == 1
        (sigma,) = sigmas
        assert sigma > 0

    def test_score_correlation_decreases_in_noise(self):
        corrs = [aft_score_correlation(AFT, s) for s in (0.0, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(corrs, corrs[1:]))

    def test_monte_carlo_rank_agreement(self):
        # the calibrated proxy orders candidate sets like a rho-quality
        # ranker: Spearman correlation close to the heavy-tail-free target
        sigma = calibrate_aft_concomitant(AFT, 0.3)
        gen_x, gen_p = np.random.default_rng(3), np.random.default_rng(4)
        log_x = AFT.mu + AFT.log_sd * gen_x.standard_normal(200_000)
        score = log_x + sigma * gen_p.standard_normal(200_000)
        # corr on the log scale is the noiseless-analysis analogue
        got = np.corrcoef(score, log_x)[0, 1]
        want = AFT.log_sd / math.hypot(AFT.log_sd, sigma)
        assert got == pytest.approx(want, abs=0.01)


def mixing_matrix(model: WeibullModel, k: int, n_sets: int, rng: RngStream) -> np.ndarray:
    """w[r-1, j-1] = P(true rank j | judged rank r) over ``n_sets`` simulated
    k-sets, ranked by ``weibull_scores``; each set adds its full judged ->
    true rank permutation."""
    gen_x, gen_p = rng.child(0).generator(), rng.child(1).generator()
    w = np.zeros((k, k))
    for done in range(0, n_sets, 200_000):
        x = model.draw_ranking_scale(gen_x, (min(200_000, n_sets - done), k))
        scores = weibull_scores(model, x, gen_p)
        judged = np.argsort(np.argsort(scores, axis=1, kind="stable"), axis=1)
        true = np.argsort(np.argsort(x, axis=1, kind="stable"), axis=1)
        np.add.at(w, (judged.ravel(), true.ravel()), 1.0)
    return w / n_sets


class TestMixingMatrix:
    def test_perfect_ranking_estimates_identity(self):
        w = mixing_matrix(EXP, 4, 50_000, RngStream(1))
        np.testing.assert_array_equal(w, np.eye(4))

    def test_rows_and_columns_sum_to_one(self):
        noisy = WeibullModel(sigma_z=1.0)
        w = mixing_matrix(noisy, 5, 100_000, RngStream(2))
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        # each candidate set contributes a full permutation, so column
        # sums are 1 exactly by construction
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-9)

    def test_pure_noise_is_uniform(self):
        noisy = WeibullModel(sigma_z=math.inf)
        w = mixing_matrix(noisy, 4, 200_000, RngStream(3))
        se = np.sqrt(w * (1 - w) / 200_000)
        assert np.all(np.abs(w - 0.25) <= 4 * np.maximum(se, 1e-4))

    def test_mixture_recovers_population_average(self):
        # (1/k) sum_r sum_j w_rj S_[j] telescopes to S via column sums
        noisy = WeibullModel(sigma_z=0.8)
        k = 4
        w = mixing_matrix(noisy, k, 100_000, RngStream(4))
        s = 0.37
        s_rank = [order_statistic_survival(s, k, j, 0.0) for j in range(1, k + 1)]
        avg = sum(w[r] @ s_rank for r in range(k)) / k
        assert avg == pytest.approx(s, abs=1e-9)


def order_statistic_kernel(model, censoring, t, k, r):
    """Kernel of the r-th order statistic of k lifetimes, by adaptive
    quadrature over p = F(u):
    S_(r)(t)^2 int_0^F(t) g(p) / (S_(r)(p)^2 K(Q(p))) dp with g the
    Beta(r, k-r+1) density."""
    def integrand(p):
        g = k * math.comb(k - 1, r - 1) * p ** (r - 1) * (1 - p) ** (k - r)
        s = order_statistic_survival(1 - p, k, r, 0.0)
        return g / (s**2 * float(censoring.survival(model.quantile(1 - p))))

    integral, _ = integrate.quad(integrand, 0.0, 1 - float(model.survival(t)),
                                 epsrel=1e-12, limit=500)
    return order_statistic_survival(model.survival, k, r, t) ** 2 * integral


class TestJudgedRankLaw:
    LEVELS = (0.9, 0.75, 0.5, 0.25, 0.1)

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    @pytest.mark.parametrize("base", [AFT, EXP], ids=["aft", "weibull"])
    def test_matches_sampler_rank_wise(self, base, rho):
        # uncensored draws: row r holds m lifetimes measured in judged slot r
        model = prepare_model(base, rho)
        k, m = 5, 20_000
        rng = RngStream(7, int(10 * rho))
        sample = draw_balanced_rss(model, k, m, CensoringLaw("none"), rng)
        times = [model.quantile(level) for level in self.LEVELS]
        want = judged_rank_survival(model, k, times)
        got = np.array([[np.mean(row > t) for t in times] for row in sample.times])
        se = np.sqrt(want * (1 - want) / m)
        assert np.all(np.abs(got - want) <= 4 * se + 1e-12)

    @pytest.mark.parametrize("model", [
        prepare_model(AFT, 0.3), prepare_model(AFT, 0.9), prepare_model(EXP, 0.3),
        prepare_model(EXP, 0.9), prepare_model(WeibullModel(2.0, 1.5), 0.7),
        AftModel(sigma_u=0.0), AftModel(sigma_u=math.inf), WeibullModel(sigma_z=math.inf),
    ])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_mcintyre_identity(self, model, k):
        times = [model.quantile(level) for level in (0.99, *self.LEVELS, 0.01)]
        avg = judged_rank_survival(model, k, times).mean(axis=0)
        np.testing.assert_allclose(avg, model.survival(times), rtol=0, atol=1e-8)

    @pytest.mark.parametrize("p_cens", [0.0, 0.3])
    @pytest.mark.parametrize("model", [EXP, WeibullModel(2.0, 1.5), AftModel(sigma_u=0.0)],
                             ids=["exp", "weibull2", "aft"])
    def test_zero_noise_is_the_order_statistic_law(self, model, p_cens):
        law = censoring_for_fraction(model, p_cens)
        k = 5
        for level in (0.75, 0.5, 0.1):
            t = model.quantile(level)
            for r in range(1, k + 1):
                got = _judged_kernels(model, law, [t], k)[r - 1, 0]
                want = order_statistic_kernel(model, law, t, k, r)
                assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("p_cens", [0.0, 0.3])
    @pytest.mark.parametrize("model", [WeibullModel(sigma_z=math.inf),
                                       AftModel(sigma_u=math.inf)], ids=["weibull", "aft"])
    def test_pure_noise_is_the_population_law(self, model, p_cens):
        law = censoring_for_fraction(model, p_cens)
        for level in (0.75, 0.5, 0.1):
            t = model.quantile(level)
            want = asymptotic_km_variance(model, law, t)
            for r in range(1, 7):
                got = _judged_kernels(model, law, [t], 6)[r - 1, 0]
                assert got == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("k", [1, 4])
    def test_noise_orders_the_kernels(self, k):
        # V_perfect <= V_judged <= V_SRS at k = 4, and the kernel at a whole
        # grid of times equals the kernel at each time alone, for the SRS
        # (k = 1) and the judged RSS kernel
        law = censoring_for_fraction(EXP, 0.3)
        times = [EXP.quantile(level) for level in (0.75, 0.5, 0.25)]
        v_srs = asymptotic_km_variance(EXP, law, times)
        v_perf = asymptotic_km_variance(EXP, law, times, 4)
        judged = prepare_model(EXP, 0.7)
        v_judg = asymptotic_km_variance(judged, law, times, 4)
        assert np.all(v_perf < v_judg) and np.all(v_judg < v_srs)
        grid = asymptotic_km_variance(judged, law, times, k)
        alone = [asymptotic_km_variance(judged, law, t, k) for t in times]
        np.testing.assert_allclose(grid, alone, rtol=1e-12)

    def test_score_cdf_is_tabulated_once_per_model(self):
        # an equal model, fresh or unpickled as a pool worker receives it,
        # reads the first model's table, which is bitwise a table built anew
        def model():
            return prepare_model(WeibullModel(2.0, 1.5), 0.7)

        shared = model()
        law = censoring_for_fraction(shared, 0.3)
        times = [shared.quantile(level) for level in self.LEVELS]
        first = asymptotic_km_variance(shared, law, times, 4)
        table = models._score_cdf(shared)
        for other in (model(), pickle.loads(pickle.dumps(shared))):
            assert other == shared and other is not shared
            assert models._score_cdf(other) is table
            np.testing.assert_array_equal(asymptotic_km_variance(other, law, times, 4), first)
        for got, want in zip(table, models._score_cdf.__wrapped__(model()), strict=True):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rho", [0.3, 0.9])
    @pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 3.0])
    def test_score_cdf_spline_is_scipy_cubic_spline(self, monkeypatch, nu, rho):
        # coefficients and values bit for bit those of scipy's CubicSpline
        # through the same table, so re_true does not move with the spline
        from scipy.interpolate import CubicSpline

        tables = []

        def capture(x, y):
            tables.append((x, y))
            return spline(x, y)

        spline = models._cubic_spline
        monkeypatch.setattr(models, "_cubic_spline", capture)
        models._score_cdf.cache_clear()
        model = prepare_model(WeibullModel(nu, 1.5), rho)
        w = np.concatenate([np.linspace(-9, 9, 2001), np.random.default_rng(1).normal(size=5000)])
        got = model.score_cdf_at(w, 0.0)
        ((x, y),) = tables
        want = CubicSpline(x, y)
        np.testing.assert_array_equal(models._score_cdf(model)[1], want.c)
        np.testing.assert_array_equal(got, want(np.clip(model.lifetime_at(w), x[0], x[-1])))

    @pytest.mark.parametrize("nu, rho, resolved", [
        (0.4, 0.9, True), (0.325, 0.6, False), (0.3, 0.9, False), (0.1, 0.5, False)])
    def test_score_cdf_beyond_its_tolerance_is_a_parameter_error(self, nu, rho, resolved):
        # at small nu the knots stretch over the lifetime's upper tail: the
        # spline misses F_V between knots by 4.7e-4 at nu 0.4, rho 0.9,
        # 5.3e-4 at nu 0.325, rho 0.6 (the tolerance is 5e-4), 0.13 and 0.3
        model = prepare_model(WeibullModel(nu, 1.0), rho)
        if resolved:
            models._score_cdf(model)
        else:
            with pytest.raises(ParameterError, match="score-CDF spline cannot resolve"):
                judged_rank_survival(model, 2, [model.quantile(0.5)])

    def test_law_nearest_the_tolerance_matches_brute_force(self):
        # nu 0.4, rho 0.9: of the passing models on a grid of nu 0.3-1
        # and rho 0.3-0.9999, one of those whose spline misses F_V the most
        # (4.7e-4 between knots); k-sets ranked by their noisy scores, the
        # unit in each judged slot measured
        model = prepare_model(WeibullModel(0.4, 1.0), 0.9)
        k, n = 10, 500_000
        times = [model.quantile(level) for level in self.LEVELS]
        want = judged_rank_survival(model, k, times)
        rng = RngStream(11)
        x = model.draw_ranking_scale(rng.child(0).generator(), (n, k))
        scores = weibull_scores(model, x, rng.child(1).generator())
        measured = np.take_along_axis(x, np.argsort(scores, axis=1), axis=1)
        got = np.array([np.mean(measured > t, axis=0) for t in times]).T
        se = np.sqrt(want * (1 - want) / n)
        assert np.all(np.abs(got - want) <= 4 * se + 1e-12)

    def test_k_must_be_positive(self):
        with pytest.raises(ParameterError, match="k must be >= 1"):
            asymptotic_km_variance(EXP, CensoringLaw("none"), 1.0, 0)

    def test_uncalibrated_aft_rejected(self):
        with pytest.raises(ParameterError, match="uncalibrated"):
            judged_rank_survival(AFT, 2, [1.0])


class TestAsymptoticKernels:
    def test_no_censoring_collapse(self):
        # V(t) = S(1-S) when K == 1
        t = EXP.quantile(0.5)
        closed = exponential_km_variance(1.0, 0.0, t)
        assert closed == pytest.approx(0.25, abs=1e-12)
        quad = asymptotic_km_variance(EXP, CensoringLaw("none"), t)
        assert quad == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("p_cens", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("level", [0.75, 0.5, 0.25])
    def test_exponential_closed_form_matches_quadrature(self, p_cens, level):
        # unit-rate lifetimes, Exp(c) censoring with p = c / (1 + c); the
        # closed form is also checked against the defining integral by
        # adaptive quadrature
        law = censoring_for_fraction(EXP, p_cens)
        t = EXP.quantile(level)
        closed = exponential_km_variance(1.0, p_cens / (1 - p_cens), t)
        assert closed == pytest.approx(order_statistic_kernel(EXP, law, t, 1, 1), rel=1e-12)
        quad = asymptotic_km_variance(EXP, law, t)
        assert quad == pytest.approx(closed, rel=1e-8)

    def test_rank_kernel_no_censoring_is_binomial(self):
        # per-rank, no censoring: V_r(t) = S_r(t)(1 - S_r(t))
        none = CensoringLaw("none")
        s2 = order_statistic_survival(EXP.survival, 2, 2, 1.0)
        got = _judged_kernels(EXP, none, [1.0], 2)[1, 0]
        assert got == pytest.approx(s2 * (1 - s2), rel=1e-8)

    def test_rss_kernel_averages_ranks(self):
        law = censoring_for_fraction(EXP, 0.1)
        t = EXP.quantile(0.5)
        per_rank = [
            _judged_kernels(EXP, law, [t], 3)[r - 1, 0] for r in (1, 2, 3)
        ]
        got = asymptotic_km_variance(EXP, law, t, 3)
        assert got == pytest.approx(np.mean(per_rank), rel=1e-12)

    def test_perfect_rss_never_hurts(self):
        law = censoring_for_fraction(EXP, 0.3)
        t = EXP.quantile(0.5)
        v_srs = asymptotic_km_variance(EXP, law, t)
        for k in (2, 4, 6):
            assert asymptotic_km_variance(EXP, law, t, k) < v_srs

    def test_outside_window_rejected(self):
        heavy = censoring_for_fraction(EXP, 0.5)
        with pytest.raises(InferenceWindowError):
            asymptotic_km_variance(EXP, heavy, 1e6)


@given(st.floats(min_value=0.05, max_value=0.95),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_order_statistic_survival_monotone_in_rank(s, k):
    values = [order_statistic_survival(s, k, r, 0.0) for r in range(1, k + 1)]
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 + 1e-14 for v in values)
