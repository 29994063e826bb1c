"""Rank-averaged estimation on balanced ranked set samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsskm import (
    EmptyDesignError,
    RankedSetSample,
    UnbalancedDesignError,
    rss_kaplan_meier,
    rss_mean,
)
from rsskm.survival import SortedSample


def sample_from(rows):
    """rows: list of (time, event, rank) triples; cycles assigned per rank."""
    counts = {}
    records = []
    for t, e, r in rows:
        counts[r] = counts.get(r, 0) + 1
        records.append((r, counts[r], t, e))
    return RankedSetSample.from_columns(*zip(*records))


def km(rows):
    """One-row KM fit of the (time, event) heads of ``rows``."""
    return SortedSample([[row[0] for row in rows]], [[row[1] for row in rows]]).product_limit()


def grid_of(fit):
    """The union of the ranks' event times."""
    return np.unique(fit.times[fit.deaths > 0])


def survival_at(fit, t):
    """The RSS KM at times t: the rank average of the rank curves."""
    return rss_mean(fit.survival_at(t))


def greenwood_at(fit, t):
    """The RSS Greenwood plug-in at times t: the rank Greenwood sum over k^2."""
    return rss_mean(fit.greenwood_at(t), 2)


class TestRssKaplanMeier:
    def test_single_rank_collapses_to_km(self):
        rows = [(1.0, True, 1), (2.0, False, 1), (3.0, True, 1)]
        fit = rss_kaplan_meier(sample_from(rows))
        curve = km(rows)
        jumps = curve.deaths[0] > 0  # the curve's event times
        grid = grid_of(fit)
        assert grid.tolist() == curve.times[0, jumps].tolist()
        np.testing.assert_array_equal(survival_at(fit, grid), curve.survival[0, jumps])
        np.testing.assert_array_equal(greenwood_at(fit, grid), curve.greenwood_var[0, jumps])

    def test_two_one_point_ranks_average(self):
        # rank curves are 1->0 steps at t=1 and t=2; average: 1, 0.5, 0
        fit = rss_kaplan_meier(sample_from([(1.0, True, 1), (2.0, True, 2)]))
        assert float(survival_at(fit, [0.5])[0]) == 1.0
        assert float(survival_at(fit, [1.0])[0]) == 0.5
        assert float(survival_at(fit, [2.0])[0]) == 0.0

    def test_identical_ranks_equal_single_rank_curve(self):
        rows = [(1.0, True), (2.0, False), (3.0, True)]
        rss = sample_from([(t, e, r) for r in (1, 2, 3) for t, e in rows])
        fit = rss_kaplan_meier(rss)
        curve = km(rows)
        np.testing.assert_allclose(survival_at(fit, grid_of(fit)),
                                   curve.survival[0, curve.deaths[0] > 0], atol=1e-15)

    def test_zero_event_rank_contributes_constant_one(self):
        fit = rss_kaplan_meier(
            sample_from([(1.0, True, 1), (5.0, False, 2)]))
        # rank 2 stays at 1; average after t=1 is (0 + 1)/2
        assert float(survival_at(fit, [1.0])[0]) == 0.5

    def test_average_decomposition_on_grid(self):
        rng = np.random.default_rng(3)
        rows = [(float(t), bool(e), r)
                for r in (1, 2)
                for t, e in zip(rng.exponential(1, 8), rng.random(8) < 0.7)]
        fit = rss_kaplan_meier(sample_from(rows))
        k = fit.times.shape[0]
        grid = grid_of(fit)
        rss_survival = survival_at(fit, grid)
        for i, t in enumerate(grid):
            # each rank's own one-row fit
            avg = sum(float(km([row[:2] for row in rows if row[2] == r]).survival_at(t)[0])
                      for r in (1, 2)) / k
            assert rss_survival[i] == pytest.approx(avg, abs=1e-15)


class TestRssGreenwood:
    def test_hand_computed_quarter_scaling(self):
        # rank 1 Greenwood at t=1 is 2/27 (3-obs example); rank 2 has no
        # events; (1/k^2) * (2/27 + 0) = 1/54
        fit = rss_kaplan_meier(sample_from([
            (1.0, True, 1), (2.0, False, 1), (3.0, True, 1),
            (1.0, False, 2), (2.0, False, 2), (3.0, False, 2),
        ]))
        assert float(greenwood_at(fit, [1.0])[0]) == pytest.approx(1 / 54, abs=1e-15)

    def test_degenerate_tails_give_zero(self):
        fit = rss_kaplan_meier(sample_from([(1.0, True, 1), (2.0, True, 2)]))
        assert float(greenwood_at(fit, [3.0])[0]) == 0.0


class TestDesignValidation:
    def test_unbalanced_rejected(self):
        with pytest.raises(UnbalancedDesignError):
            sample_from([(1.0, True, 1), (2.0, True, 1), (3.0, True, 2)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyDesignError):
            RankedSetSample.from_columns([], [], [], [])
        with pytest.raises(UnbalancedDesignError):
            RankedSetSample(2, 2, np.ones((2, 3)), np.ones((2, 3), dtype=bool))

    @pytest.mark.parametrize("times", [[[0.5, 1.0, 1.5], [2.0, 2.5, 3.0]],
                                       [[0.5, 1.0, 1.0], [2.0, 2.0, 3.0]]],
                             ids=["tie-free", "tied"])
    def test_events_of_another_shape_rejected(self, times):
        # one event row for two ranks is not broadcast over them
        with pytest.raises(UnbalancedDesignError, match=r"expected \(2, 3\) events"):
            RankedSetSample(2, 3, np.array(times), np.array([True, False, True]))

    def test_observations_round_trip(self):
        # the sample's flat (rank, cycle, time, event) records, in reverse
        sample = sample_from([(1.0, True, 1), (2.0, False, 2)])
        rank, cycle = np.indices(sample.times.shape) + 1
        records = (rank, cycle, sample.times, sample.events)
        rebuilt = RankedSetSample.from_columns(*(c.ravel()[::-1] for c in records))
        np.testing.assert_array_equal(rebuilt.times, sample.times)
        np.testing.assert_array_equal(rebuilt.events, sample.events)


@given(st.permutations(list(range(5))))
@settings(max_examples=30, deadline=None)
def test_cycle_permutation_invariance(perm):
    rng = np.random.default_rng(11)
    times = rng.exponential(1.0, (2, 5))
    events = rng.random((2, 5)) < 0.7
    base = rss_kaplan_meier(RankedSetSample(2, 5, times, events))
    shuffled = rss_kaplan_meier(
        RankedSetSample(2, 5, times[:, perm], events[:, perm]))
    grid = grid_of(base)
    np.testing.assert_array_equal(grid_of(shuffled), grid)
    np.testing.assert_allclose(survival_at(shuffled, grid), survival_at(base, grid),
                               atol=1e-15)
