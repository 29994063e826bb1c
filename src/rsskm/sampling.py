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
replicate, and a simple random sample of n is the k = 1, m = n draw.  A
block can also be drawn from a ``StreamParts``, consecutive streams each
with its own number of replicates: the block is then, bit for bit, the
concatenation of the parts' own draws, so one fit can serve several
streams' samples.
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


@dataclass(frozen=True)
class StreamParts:
    """A stream made of consecutive parts, ``(RngStream, reps)`` pairs: a
    block of replicates drawn from it takes its first ``reps`` replicates
    from the first part's stream, the next from the second, and so on.

    ``child`` addresses the same child of every part, and ``generator``
    fills each requested block part by part, so each part's stream is
    consumed exactly as a draw of its own ``reps`` replicates consumes it."""

    parts: tuple[tuple[RngStream, int], ...]

    def child(self, *ids: int) -> "StreamParts":
        return StreamParts(tuple((stream.child(*ids), reps) for stream, reps in self.parts))

    def generator(self) -> "_PartedGenerator":
        return _PartedGenerator([(stream.generator(), reps) for stream, reps in self.parts])


class _PartedGenerator:
    """The generators of a ``StreamParts``.  Every draw method takes the
    block shape as its last argument, replicates on the first axis, and
    concatenates one slice per part drawn by that part's generator with the
    same other arguments."""

    def __init__(self, parts):
        self._parts = parts

    def __getattr__(self, name: str):
        def draw(*args):
            *params, size = args
            if size[0] != sum(reps for _, reps in self._parts):
                raise ValueError(f"block of {size[0]} replicates from parts of "
                                 f"{[reps for _, reps in self._parts]}")
            return np.concatenate([getattr(gen, name)(*params, (reps, *size[1:]))
                                   for gen, reps in self._parts])
        return draw


# substream tags within one sample draw
_LIFETIMES, _PROXIES, _CENSORING = 0, 1, 2


def draw_samples(model, k: int, m: int, censoring, rng: RngStream | StreamParts,
                 reps: int = 1):
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

    ``rng`` may be a ``StreamParts`` whose parts hold ``reps`` replicates in
    all: each part's replicates are then drawn from its own substreams,
    exactly as a draw of that part alone, while everything after the raw
    variates (slot inversion, censoring, layout) runs once on the block.
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


def draw_balanced_rss(model, k: int, m: int, censoring, rng: RngStream):
    """Draw one balanced k x m ranked set sample (see ``draw_samples``)."""
    times, events = draw_samples(model, k, m, censoring, rng)
    return RankedSetSample(k, m, times[0], events[0])
