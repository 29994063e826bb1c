"""Tie-aware product-limit arithmetic: Kaplan-Meier, Greenwood and
Nelson-Aalen on right-censored samples, deaths counted before censorings at
tied times (R(u) = #{Y >= u}).

One kernel defines every estimator (the Monte-Carlo grid reads its values
through ``product_limit_at``, below).  It works over the last axis of
``(..., m)`` time and event arrays, so one call fits all k ranks of a ranked
set sample, and it takes optional risk-set counts for the bootstrap, for
a block of replicates at once along leading axes.
``SortedSample`` sorts each block once with ``np.sort`` of the packed key
``(time bits << 1) | event`` and unpacks the sorted times and events from
it: the bits of finite times >= +0.0 are in the order of their values, and
at a tied time censorings come before deaths.  The shift drops the sign
bit, so a ``-0.0`` reads back as ``0.0``.

The sample is laid out with one entry per tie group (distinct time).  A
block without ties has one group per sorted position, so its layout is the
sorted block.  A tied block's groups fill a ``(..., width)`` layout,
``width`` being the largest count of any row, and shorter rows end in
padding (time inf).  Only tie groups that hold a death get R and dN; every
other entry carries the neutral R = 1, dN = 0 in every fit, a factor 1.0 in
the product and 0.0 in the sums, so each output changes only at death
groups, bit for bit as if the other entries were not there.

``SortedSample.product_limit`` then turns the sample's own counts, or
counts (R, dN) given in its layout, into a ``ProductLimit`` holding S-hat
per tie group; Greenwood, the cumulative hazard, its variance and the first
exhausted risk set are computed the first time they are read, and
right-continuous lookups read any of them at given times.

``product_limit_at`` is the simulation grid's reducer: S-hat, Greenwood and
``exhausted_at`` of every row of a block, read at a few times, bit for bit
what the kernel's fit and lookups give.  On a block without ties a death at
sorted position j has R = m - j and dN = 1, so the factors 1 - 1/(m - j) and
the Greenwood terms are fixed by m and the events: it takes the running
product and sum one sorted position at a time across all rows (or along
each row, where rows are fewer than positions) and reads each row at its
count of times <= t, with no tie-group layout.  A tied block goes to the
kernel.
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


def _sorted_key(times, events) -> np.ndarray:
    """The packed keys ``(time bits << 1) | event`` of a ``(..., m)``
    right-censored sample, each row sorted with ``np.sort``, after checking
    that the sample is non-empty, that ``events`` has the shape of
    ``times`` and that every time is finite and >= 0."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise EmptySampleError("empty sample")
    if np.shape(events) != times.shape:
        raise InvalidObservationError(
            f"invalid observation: {np.shape(events)} events for {times.shape} times")
    if not np.all(np.isfinite(times)) or np.any(times < 0):
        raise InvalidObservationError("invalid observation: negative or non-finite time")
    return np.sort((times.view(np.uint64) << 1) | np.asarray(events, dtype=bool), axis=-1)


class SortedSample:
    """The rows of a ``(..., m)`` right-censored sample, each sorted by time
    with its censorings before its deaths at a tied time, laid out with one
    entry per tie group (distinct time) of each row.  Built once per sample;
    ``product_limit`` reruns the arithmetic for any counts without sorting.

    Every block is sorted once by the packed key ``(time bits << 1) | event``
    with ``np.sort``, and the sorted times and events are unpacked from it.
    The bits of finite times >= +0.0 are in the order of their values, so
    this sorts by time, and a censoring's key is below a death's at the same
    time.  The shift drops the sign bit, so a ``-0.0`` reads back as ``0.0``.

    In a block without ties every sorted position is its own tie group, so
    the sorted block is the layout: ``group_times`` is ``times``.  In a tied
    block the tie groups of each row fill a ``(..., width)`` layout,
    ``width`` being the largest count of any row, the rest of a row being
    padding (time inf).  ``slots`` places the groups that hold a death, and
    ``at_risk`` and ``died`` are their own counts R and dN.
    """

    def __init__(self, times, events):
        key = _sorted_key(times, events)
        m = key.shape[-1]
        # lookup positions among ``group_times``, shared by every fit: they
        # do not depend on the counts
        self._position_cache = {}
        self.times = (key >> 1).view(float)
        self.events = (key & 1).astype(bool)
        tied = self.times[..., 1:] == self.times[..., :-1]
        if not tied.any():
            # one group per position: R = m - j and dN = 1 at a death at j
            self.group_times = self.times
            self.slots = np.flatnonzero(self.events)
            self.at_risk, self.died = m - self.slots % m, 1
            return
        # a tie group starts at every row start and wherever the time changes
        starts = np.ones(key.shape, dtype=bool)
        starts[..., 1:] = ~tied
        starts = starts.ravel()
        first = np.flatnonzero(starts)
        # each tie group's flat slot in the (..., width) layout: its index
        # among all tie groups plus the padding of the rows before its own
        row = first // m
        counts = np.bincount(row, minlength=key.size // m)
        width = int(counts.max())
        pad = width - counts
        slots = np.arange(row.size) + (np.cumsum(pad) - pad)[row]
        self.group_times = np.full(key.shape[:-1] + (width,), np.inf)
        self.group_times.reshape(-1)[slots] = self.times.ravel()[first]
        # each death group's slot, R (from its first sorted position to its
        # row's end) and dN (its run among the sorted deaths)
        deaths = np.flatnonzero(self.events)
        group = np.cumsum(starts)[deaths] - 1
        runs = np.flatnonzero(np.diff(group, prepend=-1))
        self.slots = slots[group[runs]]
        self.at_risk = m - first[group[runs]] % m
        self.died = np.diff(runs, append=deaths.size)

    def head(self, width: int) -> "SortedSample":
        """The first ``width`` entries of every row of the layout, as a
        sample that fits counts given in its own layout.  S-hat and every sum
        run along a row, so at times before each row's entry ``width`` such a
        fit reads what the fit of the whole layout reads.  The head has no
        counts of its own."""
        head = object.__new__(SortedSample)
        head.group_times = self.group_times[..., :width]
        head._position_cache = {}
        return head

    def product_limit(self, counts=None) -> "ProductLimit":
        """Run the arithmetic on ``counts``, a pair (R, dN) in the layout of
        ``group_times``, or on the sample's own counts when None: per tie
        group with a death, the number at risk from its first position on
        and its number of deaths.  Every other entry (censorings only, or
        padding) holds a neutral R = 1, dN = 0, in given counts too.  A
        group with R <= 0 (a vanished risk set) stops the curve at 0.  Given
        counts may have leading (replicate) axes before the layout; each
        replicate is then fitted as if alone."""
        if counts is None:
            r, dn = np.ones(self.group_times.shape), np.zeros(self.group_times.shape)
            r.reshape(-1)[self.slots] = self.at_risk
            dn.reshape(-1)[self.slots] = self.died
        else:
            r, dn = counts

        gone = r <= 0  # dN is 0 wherever R is not positive
        factor = 1.0 - np.minimum(np.maximum(dn / np.where(gone, 1.0, r), 0.0), 1.0)
        factor[gone] = 0.0
        return ProductLimit(self, np.cumprod(factor, axis=-1), (r, dn))


@dataclass(frozen=True)
class ProductLimit:
    """Estimates of every row of ``sample`` at each of its tie groups, for
    one pair of counts.  ``times``, ``at_risk`` (R) and ``deaths`` (dN) are in
    the sample's tie-group layout: the sorted block when it has no tie, else
    ``(..., width)`` with padding of time inf; entries without a death hold
    R = 1, dN = 0, so every output there repeats the entry before it (or its
    value ahead of the first death).  S-hat is computed with the fit; the
    with-ties Greenwood variance S-hat^2 times the sum of dN/(R(R - dN))
    (0 once the whole risk set died), the Nelson-Aalen hazard sum dN/R, its
    variance sum dN/R^2 and ``exhausted_at`` (each row's first time its
    whole risk set died, dN >= R, or inf) on first read.  ``counts`` holds
    R and dN as the fit took them.

    The ``*_at`` lookups are right-continuous: per row, the value at the
    row's last tie-group time <= t, and 1.0 (survival) or 0.0 (the
    variances and the hazard) ahead of its first; ``greenwood_at`` gathers
    S-hat and the Greenwood sum, then multiplies.  Every fit of one sample
    shares the sample's positions of the lookup times."""

    sample: SortedSample
    survival: np.ndarray
    counts: tuple[np.ndarray, np.ndarray]

    @property
    def times(self) -> np.ndarray:
        return self.sample.group_times

    def survival_at(self, t):
        """S-hat at t; 1.0 before the first time."""
        return self._at(self.survival, t, 1.0)

    def greenwood_at(self, t):
        # s * s: a NumPy scalar's ** 2 calls pow, which can differ from the
        # square of an array in the last bit
        s = self.survival_at(t)
        return s * s * self._at(self._greenwood_sum, t, 0.0)

    def cum_hazard_at(self, t):
        return self._at(self.cum_hazard, t, 0.0)

    def hazard_var_at(self, t):
        return self._at(self.hazard_var, t, 0.0)

    def _positions(self, t) -> np.ndarray:
        """Per row, the number of tie-group times <= t, as
        ``(rows, t.size)``.

        One search serves all rows: each group time is bucketed by the number
        of (sorted) query times below it.  A query with j query times below
        it is not below a group time in buckets 0..j and is below every
        other, so a row's position there is the count of its group times in
        those buckets."""
        t = np.asarray(t, dtype=float)
        times = self.times
        rows = times.size // times.shape[-1]
        queries = np.sort(t.ravel())
        q = queries.size
        bucket = np.searchsorted(queries, times.reshape(rows, -1), side="left")
        bucket += (np.arange(rows) * (q + 1))[:, None]
        counts = np.bincount(bucket.ravel(), minlength=rows * (q + 1)).reshape(rows, q + 1)
        below = np.searchsorted(queries, t.ravel(), side="left")
        return np.cumsum(counts[:, :q], axis=1)[:, below]

    def _lookup(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Where each row reads its values at times t: per row and query,
        the flat layout index of its last tie group <= t (its first entry
        when there is none), and the flat (row, query) indices with no tie
        group <= t.  The last query's are kept, so lookups of several values
        at the same times, and in every fit of one sample, search once."""
        t = np.asarray(t, dtype=float)
        key = (t.shape, t.tobytes())
        cache = self.sample._position_cache
        if key not in cache:
            positions = self._positions(t)
            width = self.times.shape[-1]
            gather = np.maximum(positions - 1, 0) + (np.arange(len(positions)) * width)[:, None]
            cache.clear()
            cache[key] = gather.ravel(), np.flatnonzero(positions == 0)
        return cache[key]

    def _at(self, values: np.ndarray, t, before: float):
        """``values`` at times ``t``, per row; ``values`` is in the layout
        of ``times`` or has leading (replicate) axes before it."""
        gather, ahead = self._lookup(t)
        got = values.reshape(-1, self.times.size).take(gather, axis=1)
        got[:, ahead] = before
        return got.reshape(values.shape[:-1] + np.shape(t))[()]

    @property
    def at_risk(self) -> np.ndarray:
        return self.counts[0]

    @property
    def deaths(self) -> np.ndarray:
        return self.counts[1]

    @cached_property
    def _dead(self) -> np.ndarray:
        return self.deaths >= self.at_risk

    @cached_property
    def _safe_at_risk(self) -> np.ndarray:
        return np.where(self.at_risk <= 0, 1.0, self.at_risk)

    @cached_property
    def _greenwood_sum(self) -> np.ndarray:
        r, dn, dead = self.at_risk, self.deaths, self._dead
        terms = np.where(dead, 0.0, dn / np.where(dead, 1.0, r * (r - dn)))
        return np.cumsum(terms, axis=-1)

    @cached_property
    def greenwood_var(self) -> np.ndarray:
        return self.survival**2 * self._greenwood_sum

    @cached_property
    def cum_hazard(self) -> np.ndarray:
        return np.cumsum(self.deaths / self._safe_at_risk, axis=-1)

    @cached_property
    def hazard_var(self) -> np.ndarray:
        return np.cumsum(self.deaths / self._safe_at_risk**2, axis=-1)

    @cached_property
    def exhausted_at(self) -> np.ndarray:
        return np.where(self._dead, self.times, np.inf).min(axis=-1, initial=np.inf)


def product_limit_at(times, events, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit every row of a ``(..., m)`` right-censored sample and read the
    fits at times ``t``: S-hat and the Greenwood variance as ``(...,
    *t.shape)`` and each row's ``exhausted_at`` as ``(...)``, bit for bit
    what ``SortedSample(times, events).product_limit()`` and its
    ``survival_at``, ``greenwood_at`` and ``exhausted_at`` give.

    A block with a tie is fitted by that kernel.  In a block without one, a
    death at sorted position j has R = m - j and dN = 1: a factor
    1 - 1/(m - j) and a Greenwood term 1/((m - j)(m - j - 1)), 0 at the
    last position, where the whole risk set dies.  The running product and
    sum are taken in the kernel's order, position after position of each
    row, and only up to the last position any row reads: where the block
    has at least as many rows as positions, it is transposed to
    position-major and each position is one numpy call across all rows;
    otherwise ``ufunc.accumulate`` runs along each row.  A row reads its
    value at its count of times <= t, 1.0 and 0.0 where that is 0."""
    key = _sorted_key(times, events)
    t = np.asarray(t, dtype=float)
    m = key.shape[-1]
    rows = key.size // m
    # (positions, rows): position-major in memory where each position is
    # one call across all rows, else a view of the rows as sorted
    key = key.reshape(rows, m).T
    by_position = rows >= m
    if by_position:
        key = np.ascontiguousarray(key)
    sorted_times = (key >> 1).view(float)
    if np.any(sorted_times[1:] == sorted_times[:-1]):
        fit = SortedSample(times, events).product_limit()
        return fit.survival_at(t), fit.greenwood_at(t), fit.exhausted_at
    sorted_events = (key & 1).astype(bool)
    # each row's count of times <= t, per query: at most m, so summed in
    # the smallest unsigned type that holds m
    below = (sorted_times <= t.reshape(-1, 1, 1)).view(np.uint8)
    count = np.add.reduce(below, axis=1, dtype=np.min_scalar_type(m)).T
    width = max(int(count.max()), 1)
    r = (m - np.arange(width, dtype=float))[:, None]
    died = sorted_events[:width]
    # a death's factor and Greenwood term: times False they are 0.0, so
    # every other entry has the factor 1.0 and the term 0.0
    survival = 1.0 - died * (1.0 / r)
    greenwood = died * np.divide(1.0, r * (r - 1.0), out=np.zeros_like(r), where=r > 1.0)
    if by_position:
        for s0, s1, g0, g1 in zip(survival, survival[1:], greenwood, greenwood[1:]):
            np.multiply(s0, s1, out=s1)
            np.add(g0, g1, out=g1)
    else:
        survival = np.multiply.accumulate(survival, axis=0)
        greenwood = np.add.accumulate(greenwood, axis=0)
    at = np.maximum(count, 1) - 1, np.arange(rows)[:, None]
    ahead = count == 0
    s, g = survival[at], greenwood[at]
    s[ahead], g[ahead] = 1.0, 0.0
    shape = np.shape(times)[:-1]
    exhausted = np.where(sorted_events[-1], sorted_times[-1], np.inf)
    return (s.reshape(shape + t.shape), (s * s * g).reshape(shape + t.shape),
            exhausted.reshape(shape))
