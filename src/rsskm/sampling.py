"""Seed-deterministic balanced ranked set sample generation.

Streams are addressed, not stateful: an ``RngStream`` is a (seed, stream_id,
path) address into numpy's SeedSequence tree, so identical addresses always
yield identical draws and distinct addresses are statistically independent.
Lifetimes, ranking proxies, and censoring each consume their own substream,
so e.g. adding censoring never perturbs the lifetime draws.  Each model
draws its own judged slots (``draw_slots``), each slot from its exact law:
at k > 1, perfect-ranking Weibull in closed form and every other model by
inverting the slot's tabulated CDF.  One stream can yield a block of
replicate samples (``draw_samples``); a single-sample draw is its first
replicate, and a simple random sample of n is the k = 1, m = n draw.  The
simulation study draws each chunk of replicates of each arm from one
stream of its own (see ``rsskm.harness``), so which replicates share a
stream is part of its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rss import EmptyDesignError, RankedSetSample
from .survival import ParameterError


@dataclass(frozen=True)
class RngStream:
    """Addressable deterministic random stream; the seed must be >= 0."""

    seed: int
    stream_id: int = 0
    path: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")

    def child(self, *ids: int) -> "RngStream":
        return RngStream(self.seed, self.stream_id, self.path + ids)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *self.path))
        return np.random.Generator(np.random.PCG64(ss))


# substream tags within one sample draw
_LIFETIMES, _PROXIES, _CENSORING = 0, 1, 2


def draw_samples(model, k: int, m: int, censoring, rng: RngStream, reps: int = 1):
    """Draw ``reps`` balanced k x m ranked set samples from one stream.

    Per replicate and cycle, the model's ``draw_slots`` gives the lifetimes
    of the units measured in judged slots 1..k from the lifetime and proxy
    substreams, laid out ``(reps, m, k)`` in C order; each unit is then
    independently censored by a ``(reps, m, k)`` block from the censoring
    substream.  Every block drawn from a substream has the replicate axis
    first and is filled in C order (at k > 1, perfect-ranking Weibull: a
    ``(reps, m, k, 2)`` gamma block from the proxy substream; AFT and judged
    Weibull: a ``(reps, m, k)`` block of uniforms from the proxy substream;
    neither draws from the lifetime substream), so replicate 0 of a draw
    consumes each substream exactly as a one-replicate draw from the same
    stream does.  A set of one draws its ``(reps, m, 1)`` lifetimes from
    the lifetime substream and no proxies, and ``CensoringLaw("none")`` no
    censoring block: its units are all deaths, observed at their lifetimes.
    Returns ``(times, events)`` of shape ``(reps, k, m)``.
    """
    if k < 1 or m < 1:
        raise EmptyDesignError(f"empty design: k={k}, m={m}")

    x_sel = model.draw_slots(k, (reps, m), rng.child(_LIFETIMES), rng.child(_PROXIES))
    if censoring.kind == "none":
        times = np.ascontiguousarray(x_sel.swapaxes(1, 2))
        return times, np.ones(times.shape, dtype=bool)
    c = censoring.draw(rng.child(_CENSORING).generator(), (reps, m, k))
    times = np.ascontiguousarray(np.minimum(x_sel, c).swapaxes(1, 2))
    events = np.ascontiguousarray((x_sel <= c).swapaxes(1, 2))
    return times, events


def replicate_arrays(count: int, n_reps: int, size: int) -> np.ndarray:
    """``count`` uninitialised ``(n_reps, size)`` float arrays, one row per
    replicate, as one ``(count, n_reps, size)`` block.  A replicate count
    too large for numpy to hold raises ParameterError, so a caller that
    takes its arrays first fails before it draws any replicate."""
    try:
        return np.empty((count, n_reps, size))
    except (ValueError, MemoryError) as exc:
        raise ParameterError(f"{n_reps} replicates are too many to hold: {exc}") from None


def draw_balanced_rss(model, k: int, m: int, censoring, rng: RngStream):
    """Draw one balanced k x m ranked set sample (see ``draw_samples``)."""
    times, events = draw_samples(model, k, m, censoring, rng)
    return RankedSetSample(k, m, times[0], events[0])
