"""Kaplan-Meier / Nelson-Aalen estimation on right-censored data.

Reference values in this file are hand-computed from the product-limit and
cumulative-hazard formulas on tiny samples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsskm import (
    CensoredObservation,
    EmptySampleError,
    InvalidObservationError,
    evaluate,
    kaplan_meier,
)
from rsskm.survival import SortedSample, curve_to_rows, fit_curve_arrays


def obs(pairs):
    return [CensoredObservation(t, e) for t, e in pairs]


# sample of 3: death at 1, censored at 2, death at 3
THREE = obs([(1.0, True), (2.0, False), (3.0, True)])


class TestKaplanMeier:
    def test_hand_computed_survival(self):
        # S(1) = 1 - 1/3 = 2/3; S(3) = (2/3)(1 - 1/1) = 0
        curve = kaplan_meier(THREE)
        assert curve.jump_times.tolist() == [1.0, 3.0]
        assert curve.survival[0] == pytest.approx(2 / 3, abs=1e-15)
        assert curve.survival[1] == 0.0

    def test_hand_computed_greenwood(self):
        # Greenwood(1) = (2/3)^2 * 1/(3*2) = 2/27
        curve = kaplan_meier(THREE)
        assert curve.greenwood_var[0] == pytest.approx(2 / 27, abs=1e-15)

    def test_degenerate_tail_flagged_with_zero_variance(self):
        # at t=3 the whole risk set dies: S-hat = 0 exactly, variance 0
        curve = kaplan_meier(THREE)
        assert curve.degenerate_from == 1
        assert curve.greenwood_var[1] == 0.0
        res = evaluate(curve, 3.0)
        assert res.degenerate and res.survival == 0.0

    def test_ties_deaths_processed_before_censorings(self):
        # death and censoring tied at 2: both still at risk at u=2
        curve = kaplan_meier(obs([(1.0, True), (2.0, True), (2.0, False)]))
        assert curve.survival_at(2.0) == pytest.approx((2 / 3) * (1 / 2), abs=1e-15)

    def test_tied_deaths_single_jump(self):
        curve = kaplan_meier(obs([(1.0, True), (1.0, True), (2.0, False)]))
        assert curve.jump_times.tolist() == [1.0]
        assert curve.survival[0] == pytest.approx(1 / 3, abs=1e-15)

    def test_all_censored_is_constant_one(self):
        curve = kaplan_meier(obs([(1.0, False), (2.0, False)]))
        assert curve.jump_times.size == 0
        assert curve.survival_at(5.0) == 1.0
        assert curve.greenwood_at(5.0) == 0.0

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySampleError):
            kaplan_meier([])
        with pytest.raises(EmptySampleError):
            fit_curve_arrays(np.empty(0), np.empty(0, dtype=bool))

    def test_invalid_times_raise(self):
        with pytest.raises(InvalidObservationError):
            CensoredObservation(-1.0, True)
        with pytest.raises(InvalidObservationError):
            CensoredObservation(np.inf, False)
        with pytest.raises(InvalidObservationError):
            fit_curve_arrays(np.array([1.0, -2.0]), np.array([True, True]))


class TestNelsonAalen:
    def test_hand_computed_hazard(self):
        # Lambda(3) = 1/3 + 1/1 = 4/3; var = 1/9 + 1/1 = 10/9
        curve = kaplan_meier(THREE)
        assert curve.cum_hazard_at(3.0) == pytest.approx(4 / 3, abs=1e-15)
        assert curve.hazard_var_at(3.0) == pytest.approx(10 / 9, abs=1e-15)

    def test_hazard_zero_before_first_event(self):
        curve = kaplan_meier(THREE)
        assert curve.cum_hazard_at(0.5) == 0.0
        assert curve.hazard_var_at(0.5) == 0.0


class TestEvaluate:
    def test_before_first_event(self):
        res = evaluate(kaplan_meier(THREE), 0.5)
        assert res == (1.0, 0.0, False, False)

    def test_extrapolation_flag(self):
        res = evaluate(kaplan_meier(THREE), 10.0)
        assert res.extrapolated

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidObservationError):
            evaluate(kaplan_meier(THREE), -0.1)

    def test_matches_vectorized_lookup(self):
        curve = kaplan_meier(THREE)
        for t in [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]:
            res = evaluate(curve, t)
            assert res.survival == curve.survival_at(t)
            assert res.greenwood_var == curve.greenwood_at(t)


@st.composite
def censored_samples(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    times = draw(st.lists(
        st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
        min_size=n, max_size=n))
    events = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.asarray(times), np.asarray(events)


class TestProperties:
    @given(censored_samples())
    @settings(max_examples=150, deadline=None)
    def test_survival_is_nonincreasing_in_unit_interval(self, sample):
        curve = fit_curve_arrays(*sample)
        s = curve.survival
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert np.all(np.diff(s) <= 1e-15)

    @given(censored_samples())
    @settings(max_examples=150, deadline=None)
    def test_no_censoring_km_equals_empirical_survival(self, sample):
        times, _ = sample
        curve = fit_curve_arrays(times, np.ones_like(times, dtype=bool))
        for t in np.unique(times):
            # equal in real arithmetic; the cumulative product rounds at
            # the last few ulps
            assert float(curve.survival_at(t)) == pytest.approx(
                np.mean(times > t), abs=1e-12)

    @given(censored_samples())
    @settings(max_examples=150, deadline=None)
    def test_no_censoring_greenwood_is_binomial_variance(self, sample):
        # with all events, Greenwood telescopes to S(1-S)/n exactly
        times, _ = sample
        n = times.size
        curve = fit_curve_arrays(times, np.ones_like(times, dtype=bool))
        for i, _t in enumerate(curve.jump_times):
            s = curve.survival[i]
            assert curve.greenwood_var[i] == pytest.approx(
                s * (1 - s) / n, abs=1e-14)

    @given(censored_samples())
    @settings(max_examples=100, deadline=None)
    def test_variance_accumulates(self, sample):
        curve = fit_curve_arrays(*sample)
        assert np.all(curve.hazard_var >= 0)
        assert np.all(np.diff(curve.cum_hazard) > 0)


@st.composite
def ranked_samples(draw):
    """(k, m) samples on a coarse time grid, so that tie groups mix deaths
    and censorings."""
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=12))
    times = draw(st.lists(st.integers(min_value=0, max_value=6),
                          min_size=k * m, max_size=k * m))
    events = draw(st.lists(st.booleans(), min_size=k * m, max_size=k * m))
    return (np.asarray(times, dtype=float).reshape(k, m) / 2,
            np.asarray(events).reshape(k, m))


def direct_product_limit(times, events):
    """One row's S-hat, Greenwood, hazard and hazard variance at every time
    of the row, written out from the formulas: R = #{Y >= u},
    dN = #{Y = u, death}, Greenwood terms dN/(R(R - dN)), and a Greenwood
    variance of 0 once the whole risk set has died."""
    out = []
    s, gw_sum, ch, hv, dead = 1.0, 0.0, 0.0, 0.0, False
    for u in np.unique(times):
        r = np.count_nonzero(times >= u)
        dn = np.count_nonzero((times == u) & events)
        s *= 1.0 - dn / r
        ch += dn / r
        hv += dn / r**2
        dead |= dn == r
        gw_sum += 0.0 if dn == r else dn / (r * (r - dn))
        out.append((u, s, 0.0 if dead else s * s * gw_sum, ch, hv))
    return out


class TestKernel:
    @given(ranked_samples())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_direct_formulas(self, sample):
        times, events = sample
        fit = SortedSample(times, events).product_limit()
        for r in range(times.shape[0]):
            direct = direct_product_limit(times[r], events[r])
            for u, s, gw, ch, hv in direct:
                got = [float(fit.survival_at(u)[r]), float(fit.greenwood_at(u)[r]),
                       float(fit.cum_hazard_at(u)[r]), float(fit.hazard_var_at(u)[r])]
                np.testing.assert_allclose(got, [s, gw, ch, hv], rtol=0, atol=1e-12)
            exhausted = [u for u, s, *_ in direct if s == 0.0]
            assert fit.exhausted_at[r] == (exhausted[0] if exhausted else np.inf)

    @given(ranked_samples())
    @settings(max_examples=100, deadline=None)
    def test_unit_weights_reproduce_unweighted_bitwise(self, sample):
        times, events = sample
        sorted_sample = SortedSample(times, events)
        plain = sorted_sample.product_limit()
        unit = sorted_sample.product_limit(np.ones_like(times))
        np.testing.assert_array_equal(unit.survival, plain.survival)
        assert np.all(unit.vanished_at == np.inf)


def test_curve_to_rows_round_trip():
    curve = kaplan_meier(THREE)
    rows = list(curve_to_rows(curve))
    assert len(rows) == 2
    t, s, gw, ch, hv = rows[0]
    assert (t, s, gw) == (1.0, curve.survival[0], curve.greenwood_var[0])
    assert (ch, hv) == (curve.cum_hazard[0], curve.hazard_var[0])
