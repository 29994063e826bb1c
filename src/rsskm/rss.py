"""Rank-wise estimation on balanced ranked set samples.

A ``RankedSetSample`` holds (k, m) time and event arrays, built directly or
from flat (rank, cycle, time, event) records by ``from_columns``.
``rss_kaplan_meier`` fits all k within-rank product-limit curves with one
call of the kernel on the (k, m) sample.  The RSS Kaplan-Meier is their
equal-weight average, and its plug-in variance the sum of the k rank
Greenwood variances divided by k^2: ``rss_mean`` is that rank average, for
every caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .survival import InvalidObservationError, ProductLimit, SortedSample


class UnbalancedDesignError(ValueError):
    pass


class EmptyDesignError(ValueError):
    pass


@dataclass(frozen=True)
class RankedSetSample:
    """Balanced k x m grid of censored observations.

    ``times`` and ``events`` are (k, m) arrays; entry [r-1, j-1] holds the
    observation of judged rank r in cycle j.  ``from_columns`` accepts the
    flat record layout and checks that every (rank, cycle) pair occurs
    exactly once.
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
        if np.shape(self.events) != self.times.shape:
            raise UnbalancedDesignError(
                f"unbalanced design: expected {self.times.shape} events, "
                f"got {np.shape(self.events)}"
            )

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


def rss_mean(values, power: int = 1) -> np.ndarray:
    """Rank average of per-rank values with the rank axis at -2, as the
    lookups of a (..., k, m) fit at 1-D times return them: their sum over
    the k ranks divided by k**power, so power 1 averages curves and power 2
    scales variances by 1/k^2.  The sum is a running total in rank order;
    ``np.sum`` would switch to pairwise summation for a single evaluation
    time and so make the last bits depend on the grid's shape."""
    k = np.shape(values)[-2]
    return np.cumsum(values, axis=-2)[..., -1, :] / k**power


def rss_kaplan_meier(sample: RankedSetSample) -> ProductLimit:
    """Fit every rank's KM on its m observations in one kernel call; one
    row per rank, averaged by ``rss_mean``.

    A rank without events contributes the constant-1 curve (which is what
    the product-limit formula yields with no jumps).
    """
    return SortedSample(sample.times, sample.events).product_limit()
