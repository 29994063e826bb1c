"""Kaplan-Meier / Nelson-Aalen estimation on right-censored data.

Reference values in this file are hand-computed from the product-limit and
cumulative-hazard formulas on tiny samples.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rsskm import EmptySampleError, InvalidObservationError
from rsskm import survival
from rsskm.survival import SortedSample, product_limit_at


def fit_row(times, events):
    """One-row product-limit fit of a sample's raw arrays; its ``times`` are
    exactly the sample's distinct times (one row has no padding)."""
    return SortedSample(np.reshape(times, (1, -1)), np.reshape(events, (1, -1))).product_limit()


def km(pairs):
    """One-row fit of (time, event) pairs."""
    times, events = zip(*pairs)
    return fit_row(times, events)


def at_deaths(fit, values):
    """Row 0 of an unweighted fit's ``values`` at its tie groups that hold a
    death (dN > 0); the other groups repeat the value before them."""
    return values[0][fit.deaths[0] > 0]


def assert_zero_from(survival, at, exhausted):
    """S-hat ``survival`` read at times ``at`` (on its last axis) is exactly
    0 from each row's ``exhausted`` time on and > 0 before it; never 0 where
    ``exhausted`` is inf."""
    at, exhausted = np.asarray(at, dtype=float), np.asarray(exhausted)[..., None]
    np.testing.assert_array_equal(np.asarray(survival) == 0,
                                  (at >= exhausted) & np.isfinite(exhausted), strict=True)


# sample of 3: death at 1, censored at 2, death at 3
THREE = [(1.0, True), (2.0, False), (3.0, True)]


class TestKaplanMeier:
    def test_hand_computed_survival(self):
        # S(1) = 1 - 1/3 = 2/3; S(3) = (2/3)(1 - 1/1) = 0
        fit = km(THREE)
        assert at_deaths(fit, fit.times).tolist() == [1.0, 3.0]
        survival = at_deaths(fit, fit.survival)
        assert survival[0] == pytest.approx(2 / 3, abs=1e-15)
        assert survival[1] == 0.0

    def test_hand_computed_greenwood(self):
        # Greenwood(1) = (2/3)^2 * 1/(3*2) = 2/27
        fit = km(THREE)
        assert at_deaths(fit, fit.greenwood_var)[0] == pytest.approx(2 / 27, abs=1e-15)

    def test_degenerate_tail_flagged_with_zero_variance(self):
        # at t=3 the whole risk set dies: S-hat = 0 exactly, variance 0
        fit, t = km(THREE), [0.5, 1.0, 2.5, 3.0, 4.0]
        assert_zero_from(fit.survival_at(t), t, [3.0])
        assert at_deaths(fit, fit.greenwood_var)[1] == 0.0

    def test_ties_deaths_processed_before_censorings(self):
        # death and censoring tied at 2: both still at risk at u=2
        fit = km([(1.0, True), (2.0, True), (2.0, False)])
        assert fit.survival_at(2.0)[0] == pytest.approx((2 / 3) * (1 / 2), abs=1e-15)

    def test_tied_deaths_single_jump(self):
        fit = km([(1.0, True), (1.0, True), (2.0, False)])
        assert at_deaths(fit, fit.times).tolist() == [1.0]
        assert at_deaths(fit, fit.survival)[0] == pytest.approx(1 / 3, abs=1e-15)

    def test_all_censored_is_constant_one(self):
        fit = km([(1.0, False), (2.0, False)])
        assert at_deaths(fit, fit.times).size == 0
        assert fit.survival_at(5.0)[0] == 1.0
        assert fit.greenwood_at(5.0)[0] == 0.0

    def test_empty_sample_raises(self):
        with pytest.raises(EmptySampleError):
            fit_row(np.empty(0), np.empty(0, dtype=bool))

    def test_invalid_times_raise(self):
        with pytest.raises(InvalidObservationError):
            km([(-1.0, True)])
        with pytest.raises(InvalidObservationError):
            km([(np.inf, False)])
        with pytest.raises(InvalidObservationError):
            fit_row(np.array([1.0, -2.0]), np.array([True, True]))

    @pytest.mark.parametrize("times, events", [
        (np.array([0.5, 1.0, 1.5]), [[True, False, True], [False, False, True]]),
        (np.array([[0.5, 1.0, 1.0], [2.0, 2.0, 0.5]]), [True, False, True]),
    ], ids=["two-event-rows-for-one", "one-event-row-for-two"])
    def test_events_of_another_shape_raise(self, times, events):
        # events are never broadcast against the times
        with pytest.raises(InvalidObservationError):
            SortedSample(times, events)


class TestNelsonAalen:
    def test_hand_computed_hazard(self):
        # Lambda(3) = 1/3 + 1/1 = 4/3; var = 1/9 + 1/1 = 10/9
        fit = km(THREE)
        assert fit.cum_hazard_at(3.0)[0] == pytest.approx(4 / 3, abs=1e-15)
        assert fit.hazard_var_at(3.0)[0] == pytest.approx(10 / 9, abs=1e-15)

    def test_hazard_zero_before_first_event(self):
        fit = km(THREE)
        assert fit.cum_hazard_at(0.5)[0] == 0.0
        assert fit.hazard_var_at(0.5)[0] == 0.0


class TestEvaluate:
    """Right-continuous lookups of a fit at one time and at many."""

    def test_before_first_event(self):
        fit = km(THREE)
        assert (fit.survival_at(0.5)[0], fit.greenwood_at(0.5)[0]) == (1.0, 0.0)

    def test_matches_vectorized_lookup(self):
        fit = km(THREE)
        grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
        survival, greenwood = fit.survival_at(grid)[0], fit.greenwood_at(grid)[0]
        for i, t in enumerate(grid):
            assert fit.survival_at(t)[0] == survival[i]
            assert fit.greenwood_at(t)[0] == greenwood[i]


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
        s = fit_row(*sample).survival[0]
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert np.all(np.diff(s) <= 1e-15)

    @given(censored_samples())
    @settings(max_examples=150, deadline=None)
    def test_no_censoring_km_equals_empirical_survival(self, sample):
        times, _ = sample
        fit = fit_row(times, np.ones_like(times, dtype=bool))
        for t in np.unique(times):
            # equal in real arithmetic; the cumulative product rounds at
            # the last few ulps
            assert float(fit.survival_at(t)[0]) == pytest.approx(
                np.mean(times > t), abs=1e-12)

    @given(censored_samples())
    @settings(max_examples=150, deadline=None)
    def test_no_censoring_greenwood_is_binomial_variance(self, sample):
        # with all events, Greenwood telescopes to S(1-S)/n exactly
        times, _ = sample
        n = times.size
        fit = fit_row(times, np.ones_like(times, dtype=bool))
        for i, _t in enumerate(fit.times[0]):
            s = fit.survival[0, i]
            assert fit.greenwood_var[0, i] == pytest.approx(
                s * (1 - s) / n, abs=1e-14)

    @given(censored_samples())
    @settings(max_examples=100, deadline=None)
    def test_variance_accumulates(self, sample):
        fit = fit_row(*sample)
        assert np.all(fit.hazard_var[0] >= 0)
        assert np.all(np.diff(at_deaths(fit, fit.cum_hazard)) > 0)


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
    """One row's S-hat, Greenwood, hazard, hazard variance and whether its
    whole risk set has died, at every time of the row, written out from the
    formulas: R = #{Y >= u}, dN = #{Y = u, death}, Greenwood terms
    dN/(R(R - dN)), and a Greenwood variance of 0 once the whole risk set
    has died."""
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
        out.append((u, s, 0.0 if dead else s * s * gw_sum, ch, hv, dead))
    return out


# each curve of a fit, its lookup and the lookup's value before the first time
CURVES = {"survival": ("survival_at", 1.0), "greenwood_var": ("greenwood_at", 0.0),
          "cum_hazard": ("cum_hazard_at", 0.0), "hazard_var": ("hazard_var_at", 0.0)}
LAZY = ("greenwood_var", "cum_hazard", "hazard_var")


@st.composite
def weighted_samples(draw):
    """Tied (k, m) samples whose rows differ widely in their number of death
    groups (from one tie group to all-distinct times, some rows all
    censored), with weights that are multiples of 1/4 and include zeros."""
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=12))
    times, events = [], []
    for _ in range(k):
        n_times = draw(st.integers(min_value=1, max_value=m))
        times.append(draw(st.lists(st.integers(min_value=0, max_value=n_times - 1),
                                   min_size=m, max_size=m)))
        censored = draw(st.booleans())
        events.append([not censored and e for e in
                       draw(st.lists(st.booleans(), min_size=m, max_size=m))])
    weights = draw(st.lists(st.integers(min_value=0, max_value=8),
                            min_size=k * m, max_size=k * m))
    return (np.asarray(times, dtype=float) / 2, np.asarray(events),
            np.asarray(weights, dtype=float).reshape(k, m) / 4)


def dense_product_limit(times, events, weights):
    """One row in the dense layout: at every sorted position, R and dN at
    each death group's last position and a neutral 1.0 / 0.0 elsewhere,
    then S-hat, Greenwood, the hazard sum and its variance sum as a running
    product and running sums over all positions.  R = sum w I(Y >= u) and
    dN = sum w I(Y = u, death) under one weight per unit of the row; the
    weights are multiples of 1/4, so R and dN are exact whatever the order
    of their sums.  The row is ordered by time, censorings before deaths at
    a tied time.  Returns the sorted times, the dense R and dN, the dense
    outputs and the first time with dN >= R."""
    order = np.lexsort((events, times))
    t, e = times[order], events[order]
    r, dn = np.ones(t.size), np.zeros(t.size)
    for u in np.unique(t[e]):
        at = np.flatnonzero(t == u)
        r[at[-1]] = sum(weights[times >= u].tolist())
        dn[at[-1]] = sum(weights[(times == u) & events].tolist())
    s, gw_sum, ch, hv = 1.0, 0.0, 0.0, 0.0
    exhausted = np.inf
    out = {name: np.empty(t.size) for name in CURVES}
    for i in range(t.size):
        gone, dead = r[i] <= 0, dn[i] >= r[i]
        r_safe = 1.0 if gone else r[i]
        s *= 0.0 if gone else 1.0 - min(max(dn[i] / r_safe, 0.0), 1.0)
        gw_sum += 0.0 if dead else dn[i] / (r[i] * (r[i] - dn[i]))
        ch += dn[i] / r_safe
        hv += dn[i] / (r_safe * r_safe)
        for name, value in zip(CURVES, (s, s * s * gw_sum, ch, hv)):
            out[name][i] = value
        if dead:
            exhausted = min(exhausted, t[i])
    return t, r, dn, out, exhausted


def layout_counts(sample, dense_rows):
    """The dense rows' R and dN at each tie group's last position, in the
    tie-group layout of ``sample``, with the neutral R = 1, dN = 0 at its
    padding."""
    r, dn = np.ones(sample.group_times.shape), np.zeros(sample.group_times.shape)
    for row, (t, dense_r, dense_dn, *_) in enumerate(dense_rows):
        last = np.r_[t[1:] != t[:-1], True]  # each tie group's last position
        r[row, :last.sum()], dn[row, :last.sum()] = dense_r[last], dense_dn[last]
    return r, dn


class TestKernel:
    @given(ranked_samples())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_direct_formulas(self, sample):
        times, events = sample
        fit = SortedSample(times, events).product_limit()
        for r in range(times.shape[0]):
            direct = direct_product_limit(times[r], events[r])
            for u, s, gw, ch, hv, dead in direct:
                got = [float(fit.survival_at(u)[r]), float(fit.greenwood_at(u)[r]),
                       float(fit.cum_hazard_at(u)[r]), float(fit.hazard_var_at(u)[r])]
                np.testing.assert_allclose(got, [s, gw, ch, hv], rtol=0, atol=1e-12)
                # S-hat is exactly 0 once the whole risk set died
                assert (got[0] == 0.0) == dead

    @given(ranked_samples())
    @settings(max_examples=100, deadline=None)
    def test_unit_weights_reproduce_unweighted_bitwise(self, sample):
        # unit weights total to the sample's own counts
        times, events = sample
        sorted_sample = SortedSample(times, events)
        plain = sorted_sample.product_limit()
        unit = sorted_sample.product_limit((plain.at_risk, plain.deaths))
        np.testing.assert_array_equal(unit.survival, plain.survival)

    @given(weighted_samples(), st.permutations(LAZY), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tie_group_layout_matches_dense_reference_bitwise(
            self, sample, read_order, weighted):
        # the sample's own counts, or the weighted counts of the dense rows
        times, events, weights = sample
        if not weighted:
            weights = np.ones_like(times)
        rows = [dense_product_limit(*row) for row in zip(times, events, weights)]
        sorted_sample = SortedSample(times, events)
        fit = sorted_sample.product_limit(
            layout_counts(sorted_sample, rows) if weighted else None)
        for name in read_order:  # each lazy output is computed on this first read
            getattr(fit, name)
        grid = np.r_[-1.0, np.unique(times), np.unique(times) + 0.25]
        for r, (t, dense_r, dense_dn, dense, exhausted) in enumerate(rows):
            last = np.r_[t[1:] != t[:-1], True]  # each tie group's last position
            n = int(last.sum())
            np.testing.assert_array_equal(fit.times[r, :n], t[last])
            assert np.all(fit.times[r, n:] == np.inf)
            # R and dN at the death groups, neutral at every other entry
            np.testing.assert_array_equal(fit.at_risk[r, :n], dense_r[last])
            np.testing.assert_array_equal(fit.deaths[r, :n], dense_dn[last])
            assert np.all(fit.at_risk[r, n:] == 1.0) and np.all(fit.deaths[r, n:] == 0.0)
            np.testing.assert_array_equal(fit.sample.times[r], t)
            for name, (lookup, before) in CURVES.items():
                values = getattr(fit, name)[r]
                np.testing.assert_array_equal(values[:n], dense[name][last])
                # padding repeats the row's last value
                np.testing.assert_array_equal(values[n:], dense[name][-1])
                # lookups: the dense value at the last position <= t
                want = np.r_[before, dense[name]][np.searchsorted(t, grid, side="right")]
                np.testing.assert_array_equal(getattr(fit, lookup)(grid)[r], want)
            assert_zero_from(fit.survival_at(grid)[r], grid, exhausted)

    @given(weighted_samples(),
           st.lists(st.integers(min_value=-1, max_value=14).map(lambda i: i / 4)
                    | st.just(np.inf), max_size=8),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_positions_match_per_row_search(self, sample, queries, as_column):
        # unsorted, repeated and infinite queries, at and between the step
        # times and beyond the last, against rows padded with inf
        times, events, _ = sample
        fit = SortedSample(times, events).product_limit()
        t = np.reshape(queries, (-1, 1) if as_column else -1)
        rows = fit.times.reshape(times.shape[0], -1)
        want = np.array([np.searchsorted(row, t.ravel(), side="right") for row in rows])
        np.testing.assert_array_equal(fit._positions(t), want, strict=True)
        row = fit_row(times[0], events[0])  # unpadded: its distinct times
        np.testing.assert_array_equal(
            row._positions(t), [np.searchsorted(row.times[0], t.ravel(), side="right")],
            strict=True)


class TestLayout:
    """One entry per tie group: a tie-free block is fitted in its sorted
    order, a tied one in a layout of each row's distinct times padded with
    inf, and entries without a death are neutral in every fit."""

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_tie_free_block_is_its_sorted_order(self, k, m, seed, weighted):
        rng = np.random.default_rng(seed)
        times = rng.permutation(k * m).reshape(k, m) / 4
        events = rng.random((k, m)) < 0.6
        weights = rng.integers(0, 9, (k, m)) / 4 if weighted else np.ones((k, m))
        rows = [dense_product_limit(*row) for row in zip(times, events, weights)]
        sample = SortedSample(times, events)
        fit = sample.product_limit(layout_counts(sample, rows) if weighted else None)
        np.testing.assert_array_equal(fit.times, np.sort(times, axis=-1), strict=True)
        for r, (t, dense_r, dense_dn, dense, exhausted) in enumerate(rows):
            # the layout is the dense one, entry for entry
            np.testing.assert_array_equal(fit.at_risk[r], dense_r)
            np.testing.assert_array_equal(fit.deaths[r], dense_dn)
            for name in CURVES:
                np.testing.assert_array_equal(getattr(fit, name)[r], dense[name])
            assert_zero_from(fit.survival[r], t, exhausted)

    @given(ranked_samples())
    @settings(max_examples=100, deadline=None)
    def test_one_entry_per_distinct_time_of_each_row(self, sample):
        times, events = sample
        fit = SortedSample(times, events).product_limit()
        distinct = [np.unique(row) for row in times]
        assert fit.times.shape == (times.shape[0], max(d.size for d in distinct))
        for row, want in zip(fit.times, distinct):
            np.testing.assert_array_equal(row[:want.size], want)
            assert np.all(row[want.size:] == np.inf)

    def test_vanished_risk_set_stops_the_curve(self):
        # the counts of weights 1, 1, 0, 0: the risk set vanishes at the
        # death at 4, which ends the curve at 0 with the whole risk set dead
        sample = SortedSample([[1.0, 2.0, 3.0, 4.0]], [[True, False, False, True]])
        fit = sample.product_limit((np.array([[2.0, 1.0, 1.0, 0.0]]),
                                    np.array([[1.0, 0.0, 0.0, 0.0]])))
        np.testing.assert_array_equal(fit.survival_at([3.5, 4.0])[0], [0.5, 0.0])
        assert_zero_from(fit.survival, fit.times, [4.0])


@st.composite
def tie_free_samples(draw, leading=False):
    """(k, m) samples without a tie, or with ``leading`` ``(reps, k, m)``
    blocks of them, m = 1 included, rows all censored or ending in a death
    among them, and the one time 0 sometimes a -0.0."""
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=12))
    shape = (draw(st.integers(min_value=1, max_value=3)), k, m) if leading else (k, m)
    return tie_free_block(draw, shape, ["drawn", "all-censored", "last-dies"])


def tie_free_block(draw, shape, fates):
    """A tie-free block of ``shape``: its times a permutation of multiples
    of 1/4, the one time 0 sometimes a -0.0, and each row's events drawn
    (``"drawn"``), all censorings or all deaths, or drawn with the row's
    last time a death (``"last-dies"``), as ``fates`` allow."""
    n = math.prod(shape)
    times = np.asarray(draw(st.permutations(range(n))), dtype=float).reshape(shape) / 4
    if draw(st.booleans()):
        times[times == 0] = -0.0
    events = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n))).reshape(shape)
    for row in np.ndindex(shape[:-1]):
        fate = draw(st.sampled_from(fates))
        if fate in ("all-censored", "all-deaths"):
            events[row] = fate == "all-deaths"
        elif fate == "last-dies":
            events[row][np.argmax(times[row])] = True
    return times, events


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), strict=True)


class TestConstantFactors:
    """An unweighted fit of a tie-free block has R = m - j and dN = 1 at its
    deaths: every output is that of the fit of those counts (the totals of
    unit weights), and that of the constant-factor formulas a tie-free fit
    once took (``oracles.tie_free_fit``), bit for bit."""

    @given(st.one_of(tie_free_samples(), tie_free_samples(leading=True)),
           st.permutations(LAZY))
    @example(  # m = 1: a lone -0.0 dies as its row's last unit; a row all censored
        (np.array([[-0.0], [0.25], [0.5]]), np.array([[True], [False], [True]])), LAZY)
    @example((np.array([[[0.5, -0.0, 1.5], [0.75, 0.25, 1.0]], [[2.0, 1.25, 1.75],
                                                                [2.5, 2.25, 2.75]]]),
              np.array([[[False, True, True], [False, False, False]],
                        [[True, True, True], [True, False, True]]])), LAZY)
    @settings(max_examples=200, deadline=None)
    def test_fit_is_the_constant_factor_formulas_bitwise(self, sample, read_order):
        times, events = sample
        fit = SortedSample(times, events).product_limit()
        for name in read_order:  # each lazy output is computed on this first read
            getattr(fit, name)
        sorted_times, want = oracles.tie_free_fit(times, events)
        assert_bits_equal(fit.times, sorted_times)
        for name, values in want.items():
            assert_bits_equal(getattr(fit, name), values)
        assert_zero_from(fit.survival, sorted_times, oracles.exhausted_at(times, events))

    @given(tie_free_samples(), st.permutations(LAZY))
    @example(  # m = 1: a lone -0.0 dies as its row's last unit; a row all censored
        (np.array([[-0.0], [0.25], [0.5]]), np.array([[True], [False], [True]])), LAZY)
    @example((np.array([[0.5, -0.0, 1.5], [0.75, 0.25, 1.0]]),
              np.array([[False, True, True], [False, False, False]])), LAZY)
    @settings(max_examples=200, deadline=None)
    def test_unweighted_fit_equals_unit_weights_bitwise(self, sample, read_order):
        times, events = sample
        sorted_sample = SortedSample(times, events)
        plain = sorted_sample.product_limit()
        e, m = sorted_sample.events, times.shape[-1]
        unit = sorted_sample.product_limit((np.where(e, m - np.arange(m), 1.0), e * 1.0))
        for name in read_order:  # each lazy output is computed on this first read
            getattr(plain, name)
        for name in ("survival", "at_risk", "deaths", *LAZY):
            assert_bits_equal(getattr(plain, name), getattr(unit, name))
        grid = np.r_[-1.0, np.unique(times), np.unique(times) + 0.125, np.inf]
        for lookup, _ in CURVES.values():
            assert_bits_equal(getattr(plain, lookup)(grid), getattr(unit, lookup)(grid))
            assert_bits_equal(getattr(plain, lookup)(grid[1]), getattr(unit, lookup)(grid[1]))
        assert_zero_from(unit.survival_at(grid), grid, oracles.exhausted_at(times, events))


# tie-free, tied within a row, and holding -0.0 tied with 0.0 and alone
SORT_BLOCKS = {
    "no-tie": np.arange(18.0)[::-1].reshape(3, 6) / 4,
    "one-row-tie": np.array([[0.5, 3.0, 1.5, 2.5, 0.25, 1.0],
                             [2.0, 1.0, 2.0, 2.0, 0.0, 2.0],
                             [4.0, 3.5, 0.75, 5.0, 4.5, 1.25]]),
    "signed-zeros": np.array([[0.0, 1.0, -0.0, 2.0, 0.0, -0.0],
                              [0.5, 3.0, 1.5, 2.5, 0.25, 1.0]]),
    "lone-negative-zero": np.array([[0.5, -0.0, 1.5, 2.5, 0.25, 1.0],
                                    [0.5, 3.0, 1.5, 2.5, 0.25, 1.0]]),
}


class TestSortRule:
    """Every block is sorted by one np.sort of the packed (time, event) key:
    each row by time, censorings before deaths at a tied time, and a -0.0
    read back as 0.0."""

    @pytest.mark.parametrize("block", SORT_BLOCKS, ids=list(SORT_BLOCKS))
    def test_one_key_sort_gives_the_time_event_order(self, block, monkeypatch):
        times = SORT_BLOCKS[block]
        events = np.arange(times.size).reshape(times.shape) % 3 != 0
        calls = []
        sort, argsort = np.sort, np.argsort

        def counting(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(np, "sort", counting("sort", sort))
        monkeypatch.setattr(np, "argsort", counting("argsort", argsort))
        sample = SortedSample(times, events)
        monkeypatch.undo()
        assert calls == ["sort"]
        for r in range(times.shape[0]):
            order = np.lexsort((events[r], times[r]))
            want = times[r][order] + 0.0  # -0.0 + 0.0 is 0.0
            np.testing.assert_array_equal(sample.times[r].view(np.uint64),
                                          want.view(np.uint64), strict=True)
            np.testing.assert_array_equal(sample.events[r], events[r][order], strict=True)


@st.composite
def mixed_blocks(draw):
    """A tied ``(reps, k, m)`` block on a coarse time grid and a tie-free
    one of the same k and m, with rows all censored or ending in a death."""
    k = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=2, max_value=10))
    blocks = []
    for tied in (True, False):
        reps = draw(st.integers(min_value=1, max_value=3))
        n = reps * k * m
        if tied:
            times = np.asarray(draw(st.lists(st.integers(min_value=0, max_value=4),
                                             min_size=n, max_size=n)), dtype=float) / 2
            times[1] = times[0]
        else:
            times = np.asarray(draw(st.permutations(range(n))), dtype=float) / 4
        events = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        times, events = times.reshape(reps, k, m), events.reshape(reps, k, m)
        for row in np.ndindex(reps, k):
            fate = draw(st.sampled_from(["drawn", "all-censored", "last-dies"]))
            if fate == "all-censored":
                events[row] = False
            elif fate == "last-dies":
                events[row][times[row] == times[row].max()] = True
        blocks.append((times, events))
    return blocks


class TestMixedBlock:
    """A block fits every row on its own: stacked on a tied block, a
    tie-free block takes the tied layout, and each row of the stack's fit
    is, bit for bit, that row of its part's fit alone."""

    @given(mixed_blocks())
    @settings(max_examples=100, deadline=None)
    def test_rows_fit_as_alone(self, blocks):
        stack = SortedSample(*(np.concatenate(arrays) for arrays in zip(*blocks)))
        # the tied layout: the first row's tie leaves padding at its end
        assert np.isinf(stack.group_times).any()
        both = stack.product_limit()
        alone = [SortedSample(*block).product_limit() for block in blocks]
        # the tie-free layout holds the sorted block
        assert_bits_equal(alone[1].times, alone[1].sample.times)
        times = np.unique(np.concatenate([block[0].ravel() for block in blocks]))
        grid = np.r_[-1.0, times, times + 0.125, np.inf]
        for lookup, _ in CURVES.values():
            assert_bits_equal(getattr(both, lookup)(grid),
                              np.concatenate([getattr(a, lookup)(grid) for a in alone]))
        exhausted = oracles.exhausted_at(*(np.concatenate(arrays) for arrays in zip(*blocks)))
        assert_zero_from(both.survival_at(grid), grid, exhausted)


class TestReplicateAxis:
    """Counts with leading replicate axes: ``product_limit`` on a stacked
    ``(reps, k, width)`` block of counts, and every lookup of that fit, are
    bit for bit the fits of each replicate's counts alone."""

    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    @pytest.mark.parametrize("seed", range(5))
    def test_stacked_counts_fit_as_alone(self, tied, seed):
        rng = np.random.default_rng(seed)
        k, m, reps = 3, 8, 4
        if tied:
            times = rng.integers(0, 6, (k, m)) / 2
        else:
            times = rng.permutation(k * m).reshape(k, m) / 4
        sample = SortedSample(times, rng.random((k, m)) < 0.7)
        # only the tie-free layout holds the sorted block
        assert np.array_equal(sample.group_times, sample.times) != tied
        # risk sets of every sign, so that some entries have R <= 0
        r = rng.integers(-1, 6, (reps, *sample.group_times.shape)).astype(float)
        dn = rng.integers(0, 3, r.shape).astype(float)
        assert np.any(r <= 0)
        stacked = sample.product_limit((r, dn))
        alone = [sample.product_limit((r[b], dn[b])) for b in range(reps)]
        grid = np.r_[-1.0, np.unique(times), np.unique(times) + 0.125, np.inf]
        for lookup, _ in CURVES.values():
            assert_bits_equal(getattr(stacked, lookup)(grid),
                              np.stack([getattr(a, lookup)(grid) for a in alone]))
        assert_bits_equal(stacked.survival_at(1.0), np.stack([a.survival_at(1.0) for a in alone]))
        # the curve stops at 0 at the first group where dN >= R (R <= 0
        # included); padding (time inf) holds counts too, so the reads are
        # at finite times
        exhausted = np.where(dn >= r, sample.group_times, np.inf).min(axis=-1)
        assert_zero_from(stacked.survival_at(grid[:-1]), grid[:-1], exhausted)

    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    @pytest.mark.parametrize("seed", range(5))
    def test_narrower_counts_fit_each_rows_first_entries(self, tied, seed):
        # counts of each row's first ``width`` entries: at every time before
        # a row's first entry left out, each lookup reads, bit for bit, what
        # the fit of the whole layout reads
        rng = np.random.default_rng(seed)
        k, m, reps = 3, 8, 4
        if tied:
            times = rng.integers(0, 6, (k, m)) / 2
        else:
            times = rng.permutation(k * m).reshape(k, m) / 4
        sample = SortedSample(times, rng.random((k, m)) < 0.7)
        r = rng.integers(1, 9, (reps, *sample.group_times.shape)).astype(float)
        dn = rng.integers(0, 3, r.shape).astype(float)
        whole = sample.product_limit((r, dn))
        full = sample.group_times.shape[-1]
        grid = np.r_[-1.0, np.unique(times), np.unique(times) + 0.125]
        for width in range(1, full + 1):
            head = sample.product_limit((r[..., :width], dn[..., :width]))
            assert_bits_equal(head.times, sample.group_times[..., :width])
            cut = sample.group_times[:, width] if width < full else np.full(k, np.inf)
            before = grid < cut[:, None]
            # the head's reads first, then the whole fit's: each searches
            # the times for its own width
            for lookup, _ in CURVES.values():
                got, want = getattr(head, lookup)(grid), getattr(whole, lookup)(grid)
                assert_bits_equal(got[:, before], want[:, before])


@st.composite
def reducer_blocks(draw):
    """Tie-free ``(reps, k, m)`` blocks of m - 1, m or m + 1 rows, so that
    the reducer runs along each row, one position at a time and at the
    boundary between, m = 1 and 2 included; rows drawn, all censored, all
    deaths or ending in a death; with eval times before the first time, at
    0, at sample times, between them and past the last, as a 1-D array or a
    scalar."""
    m = draw(st.integers(min_value=1, max_value=12))
    rows = draw(st.integers(min_value=max(1, m - 1), max_value=m + 1))
    k = draw(st.sampled_from([d for d in range(1, rows + 1) if rows % d == 0]))
    times, events = tie_free_block(draw, (rows // k, k, m),
                                   ["drawn", "all-censored", "all-deaths", "last-dies"])
    at = np.unique(times).tolist()
    queries = st.sampled_from([-1.0, 0.0, *at, *(u + 0.125 for u in at), at[-1] + 1, np.inf])
    t = draw(st.one_of(queries, st.lists(queries, min_size=1, max_size=6)))
    return times, events, np.asarray(t)


def block(times, events, t):
    return np.asarray(times, dtype=float), np.asarray(events), np.asarray(t, dtype=float)


class TestProductLimitAt:
    """The grid's reducer: each row's S-hat and Greenwood at the eval times
    are, bit for bit, those of the kernel's fit and lookups, whichever order
    it runs in; a block with a tie is fitted by the kernel."""

    @given(reducer_blocks())
    # m = 1, one row and two: the lone death is the last position
    @example(block([[[0.5]]], [[[True]]], [0.0, 0.5, 1.0]))
    @example(block([[[0.5]], [[0.25]]], [[[True]], [[False]]], [0.25, 0.5]))
    # m = 2 along the row (one row), position by position (two and three)
    @example(block([[[0.5, 0.25]]], [[[True, True]]], [-1.0, 0.25, 0.5, np.inf]))
    @example(block([[[0.5, 0.25], [0.0, 1.0]]], [[[True, True], [False, True]]], [0.25, 2.0]))
    @example(block([[[0.5, 0.25]], [[0.0, 1.0]], [[1.25, 0.75]]],
                   [[[False, False]], [[True, False]], [[True, True]]], 0.75))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_kernel_bitwise(self, sample):
        times, events, t = sample
        fit = SortedSample(times, events).product_limit()
        s_hat, greenwood = product_limit_at(times, events, t)
        assert_bits_equal(s_hat, fit.survival_at(t))
        assert_bits_equal(greenwood, fit.greenwood_at(t))
        assert_zero_from(s_hat.reshape(*times.shape[:-1], -1), t.ravel(),
                         oracles.exhausted_at(times, events))

    @pytest.mark.parametrize("shape", [(8, 3, 20), (4, 1, 60)], ids=["by-position", "along-rows"])
    @pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
    def test_only_a_tied_block_takes_the_kernel(self, shape, tied, monkeypatch):
        rng = np.random.default_rng(sum(shape))
        lifetimes, censoring = rng.weibull(1.5, shape), 1.3 * rng.weibull(1.5, shape)
        if tied:  # draws rounded to 1 decimal
            lifetimes, censoring = np.round(lifetimes, 1), np.round(censoring, 1)
        times, events = np.minimum(lifetimes, censoring), lifetimes <= censoring
        assert np.any(np.diff(np.sort(times, axis=-1), axis=-1) == 0) == tied
        t = np.array([0.0, 0.3, 0.75, 1.0, 5.0])
        fit = SortedSample(times, events).product_limit()
        built = []

        class Counted(SortedSample):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(survival, "SortedSample", Counted)
        s_hat, greenwood = product_limit_at(times, events, t)
        assert len(built) == tied
        assert_bits_equal(s_hat, fit.survival_at(t))
        assert_bits_equal(greenwood, fit.greenwood_at(t))
        assert_zero_from(s_hat, t, oracles.exhausted_at(times, events))

    @pytest.mark.parametrize("times, events, error", [
        (np.empty((2, 0)), np.empty((2, 0), dtype=bool), EmptySampleError),
        ([[1.0, -2.0]], [[True, True]], InvalidObservationError),
        ([[1.0, np.inf]], [[True, False]], InvalidObservationError),
        ([[1.0, np.nan]], [[True, False]], InvalidObservationError),
        ([[0.5, 1.0, 1.5]], [True, False, True], InvalidObservationError),
    ], ids=["empty", "negative", "infinite", "nan", "events-of-another-shape"])
    def test_checks_the_sample_as_the_kernel_does(self, times, events, error):
        with pytest.raises(error):
            SortedSample(times, events)
        with pytest.raises(error):
            product_limit_at(times, events, [1.0])


class TestDegenerate:
    """A curve is degenerate where its S-hat is 0: a factor of the product
    is 0 only where the whole risk set dies, and every other is at least
    1/R.  So each row's S-hat, from the kernel (in its layout and through
    its lookups) and from the reducer, is exactly 0 from the time its whole
    risk set dies on and > 0 before it."""

    @given(mixed_blocks(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_s_hat_is_zero_exactly_from_the_exhausted_time(self, blocks, tied):
        times, events = blocks[0 if tied else 1]
        exhausted = oracles.exhausted_at(times, events)
        at = np.unique(times)
        grid = np.r_[-1.0, at, at + 0.125]
        fit = SortedSample(times, events).product_limit()
        assert_zero_from(fit.survival, fit.times, exhausted)
        assert_zero_from(fit.survival_at(grid), grid, exhausted)
        assert_zero_from(product_limit_at(times, events, grid)[0], grid, exhausted)
