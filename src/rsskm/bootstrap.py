"""Rank-wise multiplier (perturbation) bootstrap for the RSS Kaplan-Meier.

Each replicate reweights the counting and at-risk processes within every
rank by iid nonnegative mean-1 weights, recomputes the weighted KM of all
ranks, and averages across ranks; the variance across replicates estimates
the sampling variance of the rank-averaged KM without redrawing subjects.

The sample is sorted once per call (``SortedSample``); each replicate only
gathers its (k, m) weights into that order and reruns the product-limit
arithmetic: dN* = sum W I(Y = u, event) and R* = sum W I(Y >= u) per tie
group, S*(t) = prod_{u <= t} (1 - dN*/R*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rss import ParameterError, RankedSetSample, rank_sum
from .sampling import RngStream
from .survival import SortedSample


@dataclass(frozen=True)
class MultiplierLaw:
    """Nonnegative multiplier weights with mean 1.

    kinds: "unit-exponential" (variance 1, the default), "gamma" with
    shape s and scale 1/s (variance 1/s), and "degenerate-one" (variance 0,
    test-only).
    """

    kind: str = "unit-exponential"
    gamma_shape: float = 1.0

    def __post_init__(self):
        if self.kind not in ("unit-exponential", "gamma", "degenerate-one"):
            raise ParameterError(f"unknown multiplier law: {self.kind}")
        if self.kind == "gamma" and self.gamma_shape <= 0:
            raise ParameterError("gamma shape must be positive")

    def draw(self, gen: np.random.Generator, size):
        if self.kind == "unit-exponential":
            return gen.exponential(1.0, size)
        if self.kind == "gamma":
            return gen.gamma(self.gamma_shape, 1.0 / self.gamma_shape, size)
        return np.ones(size)


@dataclass(frozen=True)
class BootstrapResult:
    t_grid: np.ndarray
    point_estimate: np.ndarray
    variance: np.ndarray
    replicates: np.ndarray
    n_excluded: int


def multiplier_bootstrap(
    sample: RankedSetSample,
    t_grid,
    n_reps: int,
    law: MultiplierLaw | None = None,
    rng: RngStream | None = None,
) -> BootstrapResult:
    """Bootstrap variance of the rank-averaged KM on a time grid.

    Replicates where any rank's weighted risk set vanished before the
    largest grid point are flagged and excluded from the variance (their
    count is reported), rather than imputed.
    """
    t_grid = np.asarray(t_grid, float)
    if t_grid.size == 0:
        raise ParameterError("empty evaluation grid")
    if not np.all(np.isfinite(t_grid) & (t_grid >= 0)):
        raise ParameterError(f"grid times must be finite and >= 0, got {t_grid}")
    if n_reps < 2:
        raise ParameterError(f"n_reps must be >= 2, got {n_reps}")
    law = law or MultiplierLaw()
    rng = rng or RngStream(0)

    k, m = sample.set_size_k, sample.cycles_m
    sorted_sample = SortedSample(sample.times, sample.events)
    point = rank_sum(sorted_sample.product_limit().survival_at(t_grid)) / k

    reps = np.empty((n_reps, t_grid.size))
    ok = np.ones(n_reps, dtype=bool)
    for b in range(n_reps):
        w = law.draw(rng.child(b).generator(), (k, m))
        fit = sorted_sample.product_limit(w)
        reps[b] = rank_sum(fit.survival_at(t_grid)) / k
        ok[b] = not np.any(fit.vanished_at <= t_grid.max())

    kept = reps[ok]
    if kept.shape[0] < 2:
        raise ParameterError("fewer than 2 usable bootstrap replicates")
    # shift by the first replicate so constant columns (e.g. under the
    # degenerate-one law) yield exactly zero variance
    variance = np.var(kept - kept[:1], axis=0, ddof=1)
    return BootstrapResult(t_grid, point, variance, reps, int(np.sum(~ok)))
