"""Tie-aware product-limit arithmetic: Kaplan-Meier, Greenwood and
Nelson-Aalen on right-censored samples, deaths counted before censorings at
tied times (R(u) = #{Y >= u}).

One kernel serves every estimator.  It works over the last axis of
``(..., m)`` time and event arrays, so one call fits all k ranks of a ranked
set sample, and it takes optional multiplier weights for the bootstrap.
``SortedSample`` sorts each row and finds its tie groups that hold a death
once, and lays them out as ``(..., width)`` arrays, ``width`` being the
largest such count of any row; shorter rows are padded with neutral entries
(time inf, R = 1, dN = 0: a factor 1.0 in the product, 0.0 in the sums).
``SortedSample.product_limit`` then turns one weight vector into a
``ProductLimit`` holding R, dN and S-hat per death group; Greenwood, the
cumulative hazard, its variance and the first exhausted and vanished risk
sets are computed the first time they are read, and right-continuous
lookups read any of them at given times.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class EmptySampleError(ValueError):
    pass


class ParameterError(ValueError):
    pass


class InvalidObservationError(ValueError):
    pass


class InferenceWindowError(ValueError):
    pass


class SortedSample:
    """The rows of a ``(..., m)`` right-censored sample, each stably sorted
    by time, with the tie groups that hold a death.  Built once per sample;
    ``product_limit`` reruns the arithmetic for any weights without sorting.

    The death groups of each row fill a ``(..., width)`` layout, ``width``
    being the largest count of any row; the rest of a row is padding.
    """

    def __init__(self, times, events):
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            raise EmptySampleError("empty sample")
        if not np.all(np.isfinite(times)) or np.any(times < 0):
            raise InvalidObservationError("invalid observation: negative or non-finite time")
        m = times.shape[-1]
        order = np.argsort(times, axis=-1, kind="stable")
        self.times = np.take_along_axis(times, order, axis=-1)
        # flat index of the unit at each sorted position
        self.units = (order + np.arange(0, times.size, m).reshape(order.shape[:-1] + (1,))).ravel()
        flat = self.times.ravel()
        # a tie group starts at every row start and wherever the time changes
        starts = np.r_[True, flat[1:] != flat[:-1]]
        starts[::m] = True
        first = np.flatnonzero(starts)
        # sorted flat positions of the deaths; each tie group's deaths are a
        # run among them, starting at ``death_starts``
        deaths = np.flatnonzero(np.asarray(events, dtype=bool).ravel()[self.units])
        group = np.cumsum(starts)[deaths] - 1
        self.death_starts = np.flatnonzero(np.diff(group, prepend=-1))
        self.death_units = self.units[deaths]
        self.first = first[group[self.death_starts]]
        # each death group's flat slot in the (..., width) layout: its index
        # among all death groups plus the padding of the rows before its own
        row = self.first // m
        counts = np.bincount(row, minlength=times.size // m)
        width = int(counts.max())
        pad = width - counts
        self.slots = np.arange(row.size) + (np.cumsum(pad) - pad)[row]
        self.group_times = np.full(times.shape[:-1] + (width,), np.inf)
        self.group_times.flat[self.slots] = flat[self.first]
        # lookup positions among ``group_times``, shared by every fit: they
        # do not depend on the weights
        self._position_cache = {}

    @cached_property
    def _units_reversed(self) -> np.ndarray:
        """Each row's units in reversed sorted order: weighted R is a running
        sum from the row's end."""
        return self.units.reshape(self.times.shape)[..., ::-1].ravel()

    @cached_property
    def _first_reversed(self) -> np.ndarray:
        """Each death group's first position in the reversed rows."""
        m = self.times.shape[-1]
        return self.first + m - 1 - 2 * (self.first % m)

    def product_limit(self, weights=None) -> "ProductLimit":
        """Run the arithmetic under multiplier ``weights`` of the sample's
        shape (unit weights when None).

        Per tie group with a death, R is the weight from the group's first
        position on and dN the weight of its deaths; padding holds a neutral
        R = 1, dN = 0.  A group with R <= 0 (a vanished weighted risk set)
        stops the curve at 0.
        """
        m = self.times.shape[-1]
        if weights is None:
            at_risk = m - self.first % m
            died = np.diff(self.death_starts, append=self.death_units.size)
        else:
            w = np.asarray(weights, dtype=float).ravel()
            tail_sums = np.cumsum(w[self._units_reversed].reshape(self.times.shape), axis=-1)
            at_risk = tail_sums.ravel()[self._first_reversed]
            died = np.add.reduceat(w[self.death_units], self.death_starts)
        shape = self.group_times.shape
        r, dn = np.ones(shape), np.zeros(shape)
        r.flat[self.slots] = at_risk
        dn.flat[self.slots] = died

        gone = r <= 0
        r_safe = np.where(gone, 1.0, r)  # dN is 0 wherever R is not positive
        factor = np.where(gone, 0.0, 1.0 - np.clip(dn / r_safe, 0.0, 1.0))
        return ProductLimit(sample=self, at_risk=r, deaths=dn,
                            survival=np.cumprod(factor, axis=-1))


@dataclass(frozen=True)
class ProductLimit:
    """Estimates of every row of ``sample`` at each of its death groups,
    for one weight vector.  ``times``, ``at_risk`` (R) and ``deaths`` (dN)
    are in the sample's ``(..., width)`` death-group layout (padding: time
    inf, R = 1, dN = 0).  S-hat is computed with the fit; the with-ties
    Greenwood variance (0 once the whole risk set died), the Nelson-Aalen
    hazard sum dN/R, its variance sum dN/R^2, ``exhausted_at`` (each row's
    first time its whole risk set died, dN >= R) and ``vanished_at`` (its
    first time with a weighted risk set <= 0) on first read; both times are
    inf when it never happens.

    The ``*_at`` lookups are right-continuous: per row, the value at the
    row's last death-group time <= t, and 1.0 (survival) or 0.0 (the
    variances and the hazard) ahead of its first, and everywhere when it has
    none.  Every fit of one sample shares the sample's positions of the
    lookup times."""

    sample: SortedSample
    at_risk: np.ndarray
    deaths: np.ndarray
    survival: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.sample.group_times

    def survival_at(self, t):
        """S-hat at t; 1.0 before the first time."""
        return self._at(self.survival, t, 1.0)

    def greenwood_at(self, t):
        return self._at(self.greenwood_var, t, 0.0)

    def cum_hazard_at(self, t):
        return self._at(self.cum_hazard, t, 0.0)

    def hazard_var_at(self, t):
        return self._at(self.hazard_var, t, 0.0)

    def _positions(self, t) -> np.ndarray:
        """Per row, the number of death-group times <= t, as
        ``(rows, t.size)``.  The last query's positions are kept, so lookups
        of several values at the same times search once.

        One search serves all rows: each group time is bucketed by the number
        of (sorted) query times below it, and a row's position at the j-th
        smallest query is the count of its group times in buckets 0..j."""
        t = np.asarray(t, dtype=float)
        key = (t.shape, t.tobytes())
        cache = self.sample._position_cache
        if key not in cache:
            times = self.times
            rows = int(np.prod(times.shape[:-1], dtype=int))
            order = np.argsort(t.ravel())
            q = order.size
            bucket = np.searchsorted(t.ravel()[order], times.reshape(rows, -1), side="left")
            bucket += (np.arange(rows) * (q + 1))[:, None]
            counts = np.bincount(bucket.ravel(), minlength=rows * (q + 1)).reshape(rows, q + 1)
            positions = np.empty((rows, q), dtype=np.intp)
            positions[:, order] = np.cumsum(counts[:, :q], axis=1)
            cache.clear()
            cache[key] = positions
        return cache[key]

    def _at(self, values: np.ndarray, t, before: float):
        pos = self._positions(t)
        rows = pos.shape[0]
        padded = np.concatenate([np.full((rows, 1), before), values.reshape(rows, -1)], axis=1)
        got = np.take_along_axis(padded, pos, axis=1)
        return got.reshape(self.times.shape[:-1] + np.shape(t))[()]

    @cached_property
    def _dead(self) -> np.ndarray:
        return self.deaths >= self.at_risk

    @cached_property
    def _safe_at_risk(self) -> np.ndarray:
        return np.where(self.at_risk <= 0, 1.0, self.at_risk)

    @cached_property
    def greenwood_var(self) -> np.ndarray:
        r, dn, dead = self.at_risk, self.deaths, self._dead
        terms = np.where(dead, 0.0, dn / np.where(dead, 1.0, r * (r - dn)))
        return self.survival**2 * np.cumsum(terms, axis=-1)

    @cached_property
    def cum_hazard(self) -> np.ndarray:
        return np.cumsum(self.deaths / self._safe_at_risk, axis=-1)

    @cached_property
    def hazard_var(self) -> np.ndarray:
        return np.cumsum(self.deaths / self._safe_at_risk**2, axis=-1)

    @cached_property
    def exhausted_at(self) -> np.ndarray:
        return np.where(self._dead, self.times, np.inf).min(axis=-1, initial=np.inf)

    @cached_property
    def vanished_at(self) -> np.ndarray:
        return np.where(self.at_risk <= 0, self.times, np.inf).min(axis=-1, initial=np.inf)
