"""Rank-wise multiplier (perturbation) bootstrap for the RSS Kaplan-Meier.

Each replicate reweights the counting and at-risk processes within every
rank by iid nonnegative mean-1 weights, recomputes the weighted KM of all
ranks, and averages across ranks; the variance across replicates estimates
the sampling variance of the rank-averaged KM without redrawing subjects.

A replicate's KM needs the weights only through two totals per death group
g of a rank: D*_g over its dN_g deaths, and E*_g over the other units at
risk at g but not at the rank's next death group, E_g = R_g - dN_g - R_next
of them (R_next = 0 after the last).  Then dN* = D*_g, R*_g sums D* + E*
over g and the later groups, and S*(t) = prod_{u <= t} (1 - dN*/R*).
The weights are Gamma(s, 1/s), mean 1 and variance 1/s, for one shape s:
s = 1 is the unit exponential, and s = inf puts every weight at 1, so that
each replicate is the unweighted fit.  Totals of disjoint sets of iid
weights are independent, with exact laws (a total of n weights is
Gamma(n s) / s, see ``_weight_sums``), so a replicate costs O(death
groups), not O(n), and no replicate depends on the cycle labels.

Each kind of total has its own stream, read in replicate order: the death
totals D* from ``rng.child(0)``, the other totals E* where E is 1 from
``rng.child(1)`` and those where E is more from ``rng.child(2)``.  A block
of replicates fills a ``(replicates, groups)`` array from each stream in C
order, and one product-limit fit with a leading replicate axis serves the
whole block.  Row b is replicate b whatever the block size, so a run of N
replicates gives exactly the first N of a longer run.

R* is summed over each whole row of the fit's tie-group layout, from its
end.  The product-limit fit is then given counts for only the first
entries of each rank: those at or before max(t_grid), the widest rank
setting the width.  The grid reads S* nowhere past them, so every
replicate is bit for bit that of a fit of the whole layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rss import RankedSetSample, rss_kaplan_meier, rss_mean
from .sampling import RngStream, replicate_arrays
from .survival import EmptySampleError, ParameterError

# a block of replicates is fitted at once, in arrays of about this many
# entries (replicates x the fit's layout) at most
_BLOCK_ENTRIES = 2**16


def _weight_sums(gen: np.random.Generator, counts, shape: float) -> np.ndarray:
    """The total of n iid Gamma(s, 1/s) weights (mean 1, variance 1/s) per
    entry n of ``counts``: Gamma(n s) / s, or n itself at s = inf.  A count
    of 0 draws nothing; where every n s is 1 the draws are
    standard_exponential's, which are standard_gamma(1)'s by a faster path."""
    counts = np.asarray(counts, dtype=float)
    if shape == math.inf:
        return counts.copy()
    scaled = counts * shape
    if np.all(scaled == 1.0):
        return gen.standard_exponential(counts.shape) / shape
    return gen.standard_gamma(scaled) / shape


@dataclass(frozen=True)
class BootstrapResult:
    t_grid: np.ndarray
    point_estimate: np.ndarray
    greenwood_var: np.ndarray
    variance: np.ndarray
    replicates: np.ndarray
    n_excluded: int


def multiplier_bootstrap(
    sample: RankedSetSample,
    t_grid,
    n_reps: int,
    gamma_shape: float = 1.0,
    rng: RngStream | None = None,
) -> BootstrapResult:
    """Bootstrap variance of the rank-averaged KM on a time grid, beside
    the rank-averaged KM and its Greenwood plug-in from the unweighted fit.
    A ``t_grid`` of None is the fit's event times.  The weights are
    Gamma(s, 1/s) for s = ``gamma_shape`` (inf: every weight is 1).

    Replicate b draws the death totals D* of every death group, rank by
    rank and by time, as the b-th such run of ``rng.child(0)``; in the same
    order its other totals E* where E is 1 from ``rng.child(1)`` and where
    E is more from ``rng.child(2)``.  So the first N replicates do not
    depend on ``n_reps`` or on how many are fitted at once.  Replicates
    where any rank's R* is <= 0 at a death time <= the largest grid point
    are flagged and excluded from the variance (their count is reported),
    rather than imputed.  Each replicate's R* sums its totals over whole
    ranks, but its KM is fitted only on each rank's first entries, the
    widest rank's at or before max(t_grid): every entry the grid reads.
    """
    if t_grid is not None:
        t_grid = np.asarray(t_grid, float)
        if t_grid.size == 0:
            raise ParameterError("empty evaluation grid")
        if not np.all(np.isfinite(t_grid) & (t_grid >= 0)):
            raise ParameterError(f"grid times must be finite and >= 0, got {t_grid}")
    if n_reps < 2:
        raise ParameterError(f"n_reps must be >= 2, got {n_reps}")
    # no count of weights exceeds m, the units per rank, so no n s overflows
    m = sample.cycles_m
    if not (gamma_shape > 0 and (math.isinf(gamma_shape) or math.isfinite(m * gamma_shape))):
        raise ParameterError(f"gamma shape must be > 0, and inf or small enough that "
                             f"m = {m} times it is finite, got {gamma_shape}")
    rng = rng or RngStream(0)

    fit = rss_kaplan_meier(sample)
    if t_grid is None:
        t_grid = np.unique(fit.times[fit.deaths > 0])  # its times read a -0.0 as 0.0
        if t_grid.size == 0:
            raise EmptySampleError("no event times to evaluate at; pass --grid")
    point = rss_mean(fit.survival_at(t_grid))
    greenwood = rss_mean(fit.greenwood_at(t_grid), 2)

    # the death groups, rank by rank and by time; ``flip`` reverses the rows
    layout, size = fit.times.shape, fit.times.size
    slots, at_risk, died = fit.sample.slots, fit.sample.at_risk, fit.sample.died
    flip = slots + layout[-1] - 1 - 2 * (slots % layout[-1])
    last = np.diff(slots // layout[-1], append=-1) != 0  # a rank's last group
    rest = at_risk - np.where(last, 0.0, np.roll(at_risk, -1)) - died
    # one stream per kind of total: D*, then E* where E is 1 (numpy draws a
    # block of one-unit totals faster than a mixed one), then where E is more
    others = [(rest[at], flip[at]) for at in (rest == 1, rest > 1)]
    death_stream, *other_streams = (rng.child(kind).generator() for kind in range(3))
    # the grid reads S* only at entries <= max(t_grid): each replicate is
    # fitted on the first ``width`` entries of every rank, the head
    early = fit.times.ravel()[slots] <= t_grid.max()
    width = max(1, int(np.count_nonzero(fit.times <= t_grid.max(), axis=-1).max()))
    in_head = slots % layout[-1] < width
    rank, column = np.divmod(slots[in_head], layout[-1])  # of each death group there
    head_flip = flip[in_head]
    # R* falls along a rank: check each rank's last group <= max(t_grid)
    check = np.flatnonzero((early & (last | ~np.roll(early, -1)))[in_head])

    reps = replicate_arrays(1, n_reps, t_grid.size)[0]
    ok = np.ones(n_reps, dtype=bool)
    # every replicate writes the same death-group entries; the others keep
    # R = 1, dN = 0 and, in the reversed rows, a tail term of 0
    block = max(1, min(n_reps, _BLOCK_ENTRIES // size))
    tails = np.zeros((block, size))
    r_star, dn_star = np.ones((block, layout[0], width)), np.zeros((block, layout[0], width))
    for start in range(0, n_reps, block):
        n = min(block, n_reps - start)
        deaths = _weight_sums(death_stream, np.broadcast_to(died, (n, died.size)), gamma_shape)
        tails[:n, flip] = deaths  # R* sums D* + E* from a row's end
        for gen, (units, at) in zip(other_streams, others):
            tails[:n, at] += _weight_sums(
                gen, np.broadcast_to(units, (n, units.size)), gamma_shape)
        risk = np.cumsum(tails[:n].reshape(n, *layout), axis=-1).reshape(n, size)[:, head_flip]
        r_star[:n, rank, column], dn_star[:n, rank, column] = risk, deaths[:, in_head]
        replicate = fit.sample.product_limit((r_star[:n], dn_star[:n]))
        reps[start:start + n] = rss_mean(replicate.survival_at(t_grid))
        ok[start:start + n] = ~np.any(risk[:, check] <= 0, axis=1)

    kept = reps[ok]
    if kept.shape[0] < 2:
        raise ParameterError("fewer than 2 usable bootstrap replicates")
    # shift by the first replicate so constant columns (e.g. at shape inf,
    # where every weight is 1) yield exactly zero variance
    variance = np.var(kept - kept[:1], axis=0, ddof=1)
    return BootstrapResult(t_grid, point, greenwood, variance, reps, int(np.sum(~ok)))
