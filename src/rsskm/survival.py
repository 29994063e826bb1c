"""Tie-aware product-limit arithmetic: Kaplan-Meier, Greenwood and
Nelson-Aalen on right-censored samples, deaths counted before censorings at
tied times (R(u) = #{Y >= u}).

One kernel serves every estimator.  It works over the last axis of
``(..., m)`` time and event arrays, so one call fits all k ranks of a ranked
set sample, and it takes optional multiplier weights for the bootstrap.
``SortedSample`` sorts each row once and lays it out with one entry per tie
group (distinct time).  A block without ties is its own layout, the sorted
block, so simulated data need no compression and no scatter.  A tied block's
groups fill a ``(..., width)`` layout, ``width`` being the largest count of
any row, and shorter rows end in padding (time inf).  Only tie groups that
hold a death get R and dN; every other entry carries the neutral R = 1,
dN = 0 in every fit, a factor 1.0 in the product and 0.0 in the sums, so
each output changes only at death groups, bit for bit as if the other
entries were not there.  It sorts with numpy's default sort and sorts again
stably only when some row holds a tie: a row without ties has one sorting
permutation, so either way each row ends in its stable order, and every sum
runs in that order.
``SortedSample.product_limit`` then turns one weight vector into a
``ProductLimit`` holding R, dN and S-hat per tie group; Greenwood, the
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
    by time, laid out with one entry per tie group (distinct time) of each
    row.  Built once per sample; ``product_limit`` reruns the arithmetic for
    any weights without sorting.

    The block is sorted with numpy's default (unstable, faster) sort first,
    and again with the stable sort only if some row holds a tie (``-0.0``
    and ``0.0`` tie).  Tie-free rows have a single sorting permutation, so
    both ways yield the stable order, bit for bit.

    In a tie-free block every sorted position is its own tie group, so the
    sorted block is the layout: ``group_times`` is ``times``, and a fit
    reads R and dN in place, with no compression or scatter.  In a tied
    block the tie groups of each row fill a ``(..., width)`` layout,
    ``width`` being the largest count of any row, the rest of a row being
    padding (time inf); ``slots`` places the groups that hold a death.
    """

    def __init__(self, times, events):
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            raise EmptySampleError("empty sample")
        if not np.all(np.isfinite(times)) or np.any(times < 0):
            raise InvalidObservationError("invalid observation: negative or non-finite time")
        m = times.shape[-1]
        values = times.ravel()
        offsets = np.arange(0, times.size, m).reshape(times.shape[:-1] + (1,))
        # flat index of the unit at each sorted position
        self.units = (np.argsort(times, axis=-1) + offsets).ravel()
        flat = values[self.units]
        # a tie group starts at every row start and wherever the time changes
        starts = np.r_[True, flat[1:] != flat[:-1]]
        starts[::m] = True
        tied = not starts.all()
        if tied:
            # a row holds a tie (-0.0 == 0.0 counts): only the stable sort
            # keeps tied units in input order; the tie groups stay the same
            self.units = (np.argsort(times, axis=-1, kind="stable") + offsets).ravel()
            flat = values[self.units]
        self.times = flat.reshape(times.shape)
        # the event (death) flags in the same sorted order
        died = np.asarray(events, dtype=bool).ravel()[self.units]
        self.events = died.reshape(times.shape)
        # lookup positions among ``group_times``, shared by every fit: they
        # do not depend on the weights
        self._position_cache = {}
        self.slots = None
        if not tied:
            self.group_times = self.times
            return

        first = np.flatnonzero(starts)
        # each tie group's flat slot in the (..., width) layout: its index
        # among all tie groups plus the padding of the rows before its own
        row = first // m
        counts = np.bincount(row, minlength=times.size // m)
        width = int(counts.max())
        pad = width - counts
        slots = np.arange(row.size) + (np.cumsum(pad) - pad)[row]
        self.group_times = np.full(times.shape[:-1] + (width,), np.inf)
        self.group_times.reshape(-1)[slots] = flat[first]
        # sorted flat positions of the deaths; each tie group's deaths are a
        # run among them, starting at ``death_starts``
        deaths = np.flatnonzero(died)
        group = np.cumsum(starts)[deaths] - 1
        self.death_starts = np.flatnonzero(np.diff(group, prepend=-1))
        self.death_units = self.units[deaths]
        # the first sorted position and the slot of each death group
        self.first = first[group[self.death_starts]]
        self.slots = slots[group[self.death_starts]]

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
        position on and dN the weight of its deaths.  Every other entry (a
        group of censorings only, or padding) holds a neutral R = 1, dN = 0
        in every fit: a factor 1.0 in the product and 0.0 in the sums, so
        the outputs change at death groups only.  A group with R <= 0 (a
        vanished weighted risk set) stops the curve at 0.
        """
        shape = self.times.shape
        m = shape[-1]
        if weights is not None:
            w = np.asarray(weights, dtype=float).ravel()
            # the weight from each position to its row's end, in reversed order
            tail = np.cumsum(w[self._units_reversed].reshape(shape), axis=-1)
        if self.slots is None:
            # tie-free: each entry is one unit, a death or not
            if weights is None:
                at_risk, died = m - np.arange(m), 1.0
            else:
                at_risk, died = tail[..., ::-1], w[self.units].reshape(shape)
            r = np.where(self.events, at_risk, 1.0)
            dn = np.where(self.events, died, 0.0)
        else:
            if weights is None:
                at_risk = m - self.first % m
                died = np.diff(self.death_starts, append=self.death_units.size)
            else:
                at_risk = tail.ravel()[self._first_reversed]
                died = np.add.reduceat(w[self.death_units], self.death_starts)
            r, dn = np.ones(self.group_times.shape), np.zeros(self.group_times.shape)
            r.reshape(-1)[self.slots] = at_risk
            dn.reshape(-1)[self.slots] = died

        gone = r <= 0
        r_safe = np.where(gone, 1.0, r)  # dN is 0 wherever R is not positive
        factor = np.where(gone, 0.0, 1.0 - np.clip(dn / r_safe, 0.0, 1.0))
        return ProductLimit(sample=self, at_risk=r, deaths=dn,
                            survival=np.cumprod(factor, axis=-1))


@dataclass(frozen=True)
class ProductLimit:
    """Estimates of every row of ``sample`` at each of its tie groups, for
    one weight vector.  ``times``, ``at_risk`` (R) and ``deaths`` (dN) are in
    the sample's tie-group layout: the sorted block when it has no tie, else
    ``(..., width)`` with padding of time inf; entries without a death hold
    R = 1, dN = 0, so every output there repeats the entry before it (or its
    value ahead of the first death).  S-hat is computed with the fit; the
    with-ties Greenwood variance (0 once the whole risk set died), the
    Nelson-Aalen hazard sum dN/R, its variance sum dN/R^2, ``exhausted_at``
    (each row's first time its whole risk set died, dN >= R) and
    ``vanished_at`` (its first time with a weighted risk set <= 0) on first
    read; both times are inf when it never happens.

    The ``*_at`` lookups are right-continuous: per row, the value at the
    row's last tie-group time <= t, and 1.0 (survival) or 0.0 (the
    variances and the hazard) ahead of its first.  Every fit of one sample
    shares the sample's positions of the lookup times."""

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
        """Per row, the number of tie-group times <= t, as
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
        # every row has at least one tie group: position 0 reads entry 0,
        # then takes ``before``
        got = np.take_along_axis(values.reshape(rows, -1), np.maximum(pos - 1, 0), axis=1)
        got[pos == 0] = before
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
