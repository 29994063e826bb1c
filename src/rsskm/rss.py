"""Rank-wise estimation on balanced ranked set samples.

The RSS Kaplan-Meier is the equal-weight average of the k within-rank
product-limit curves; its plug-in variance is the sum of the k rank
Greenwood variances divided by k^2.  All k curves come from one call of the
product-limit kernel on the (k, m) sample.  A pooled-risk-set Greenwood
(ranks discarded) and a simple shrinkage blend are provided for thin tails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .survival import (
    CensoredObservation,
    InvalidObservationError,
    ParameterError,
    ProductLimit,
    SortedSample,
    StepSurvivalCurve,
    fit_curve_arrays,
)


class UnbalancedDesignError(ValueError):
    pass


class EmptyDesignError(ValueError):
    pass


@dataclass(frozen=True)
class RankedSetSample:
    """Balanced k x m grid of censored observations.

    ``times`` and ``events`` are (k, m) arrays; entry [r-1, j-1] holds the
    observation of judged rank r in cycle j.  ``from_columns`` (and
    ``from_observations``, which delegates to it) accepts the flat record
    layout and checks that every (rank, cycle) pair occurs exactly once.
    """

    set_size_k: int
    cycles_m: int
    times: np.ndarray
    events: np.ndarray

    def __post_init__(self):
        if self.set_size_k < 1 or self.cycles_m < 1:
            raise EmptyDesignError("empty design: k and m must be >= 1")
        if self.times.shape != (self.set_size_k, self.cycles_m):
            raise UnbalancedDesignError(
                f"unbalanced design: expected {(self.set_size_k, self.cycles_m)} "
                f"times, got {self.times.shape}"
            )

    @classmethod
    def from_observations(cls, obs) -> "RankedSetSample":
        columns = [(o.rank, o.cycle, o.time, o.event) for o in obs]
        return cls.from_columns(*np.array(columns, dtype=float).reshape(-1, 4).T)

    @classmethod
    def from_columns(cls, rank, cycle, time, event, lines=None) -> "RankedSetSample":
        """Place flat records at [rank-1, cycle-1] of a k x m sample, checking
        finite time >= 0, event 0 or 1, integer rank and cycle >= 1, and each
        (rank, cycle) pair in 1..k x 1..m exactly once.  Errors name the first
        bad record by its entry in ``lines`` (default 1, 2, ...)."""
        rank, cycle, time, event = (
            np.asarray(c, dtype=float) for c in (rank, cycle, time, event))
        n = time.size
        if n == 0:
            raise EmptyDesignError("empty design")
        lines = np.arange(1, n + 1) if lines is None else np.asarray(lines)
        for name, values, ok, expected in (
            ("time", time, np.isfinite(time) & (time >= 0), "finite and >= 0"),
            ("event", event, (event == 0) | (event == 1), "0 or 1"),
            ("rank", rank, (rank >= 1) & (rank % 1 == 0), "an integer >= 1"),
            ("cycle", cycle, (cycle >= 1) & (cycle % 1 == 0), "an integer >= 1"),
        ):
            if not ok.all():
                i = int(np.argmin(ok))
                raise InvalidObservationError(
                    f"line {lines[i]}: {name} must be {expected}, got {values[i]:g}")
        k, m = int(rank.max()), int(cycle.max())
        if n != k * m:
            raise UnbalancedDesignError(
                f"unbalanced design: {n} records for {k} ranks x {m} cycles"
            )
        slot = (rank.astype(np.int64) - 1) * m + cycle.astype(np.int64) - 1
        # n == k*m slots, so the pairs cover the grid iff none repeats
        first = np.zeros(n, dtype=bool)
        first[np.unique(slot, return_index=True)[1]] = True
        if not first.all():
            i = int(np.argmin(first))
            raise UnbalancedDesignError(
                f"line {lines[i]}: (rank {rank[i]:g}, cycle {cycle[i]:g}) occurs again; "
                f"each pair in 1..{k} x 1..{m} must occur once"
            )
        order = np.argsort(slot)  # the record placed in each slot
        return cls(k, m, time[order].reshape(k, m), event[order].reshape(k, m) == 1)

    @cached_property
    def observations(self) -> list[CensoredObservation]:
        return [
            CensoredObservation(float(self.times[r, j]), bool(self.events[r, j]),
                                rank=r + 1, cycle=j + 1)
            for r in range(self.set_size_k)
            for j in range(self.cycles_m)
        ]

    @property
    def n_total(self) -> int:
        return self.set_size_k * self.cycles_m

    def min_at_risk(self, t: float) -> int:
        """Smallest per-rank at-risk count just before t."""
        return int(np.min(np.sum(self.times >= t, axis=1)))


def rank_sum(values) -> np.ndarray:
    """Sum over the leading rank axis as a running total in rank order;
    ``np.sum`` would switch to pairwise summation for a single evaluation
    time and so make the last bits depend on the grid's shape."""
    return np.cumsum(values, axis=0)[-1]


@dataclass(frozen=True)
class RssSurvivalEstimate:
    """Equal-weight RSS KM from the (k, m) product-limit fit of the ranks,
    with its rank-average Greenwood plug-in, evaluated on the union of rank
    event times."""

    fit: ProductLimit
    grid: np.ndarray

    @property
    def set_size_k(self) -> int:
        return self.fit.times.shape[0]

    @cached_property
    def rank_curves(self) -> tuple[StepSurvivalCurve, ...]:
        return tuple(self.fit.curve(r) for r in range(self.set_size_k))

    @cached_property
    def rss_survival(self) -> np.ndarray:
        return self.survival_at(self.grid)

    @cached_property
    def rss_greenwood(self) -> np.ndarray:
        return self.greenwood_at(self.grid)

    def survival_at(self, t):
        return rank_sum(self.fit.survival_at(t)) / self.set_size_k

    def greenwood_at(self, t):
        return rank_sum(self.fit.greenwood_at(t)) / self.set_size_k**2


def rss_kaplan_meier(sample: RankedSetSample) -> RssSurvivalEstimate:
    """Fit every rank's KM on its m observations in one kernel call and
    average across ranks.

    A rank without events contributes the constant-1 curve (which is what
    the product-limit formula yields with no jumps).
    """
    fit = SortedSample(sample.times, sample.events).product_limit()
    return RssSurvivalEstimate(fit, np.unique(fit.times[fit.deaths > 0]))


def rss_greenwood(estimate: RssSurvivalEstimate, t: float) -> float:
    """(1/k^2) * sum of the rank Greenwood variances at t."""
    if t < 0:
        raise ParameterError(f"invalid time: {t}")
    return float(estimate.greenwood_at(t))


def pooled_greenwood(sample: RankedSetSample, t: float) -> float:
    """Greenwood variance at t of the KM fit on all n observations with the
    rank labels discarded."""
    if t < 0:
        raise ParameterError(f"invalid time: {t}")
    pooled = fit_curve_arrays(sample.times.ravel(), sample.events.ravel())
    return float(pooled.greenwood_at(t))


def shrunk_variance(
    rank_avg_var: float,
    pooled_var: float,
    min_at_risk: int,
    threshold: int = 5,
    weight: float = 0.5,
) -> float:
    """Blend the rank-average Greenwood toward the pooled one when per-rank
    information thins out.

    Returns ``rank_avg_var`` untouched while every rank still has at least
    ``threshold`` subjects at risk; below that, a fixed-weight convex
    combination.  The step trigger is a placeholder schedule: the weight and
    threshold are configuration knobs, not derived quantities.
    """
    if not 0.0 <= weight <= 1.0:
        raise ParameterError(f"weight must be in [0, 1], got {weight}")
    if rank_avg_var < 0 or pooled_var < 0:
        raise ParameterError("variances must be nonnegative")
    if min_at_risk >= threshold:
        return rank_avg_var
    return (1.0 - weight) * rank_avg_var + weight * pooled_var
