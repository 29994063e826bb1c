"""Grid-driven Monte-Carlo efficiency study: RSS vs SRS Kaplan-Meier.

Each grid cell fixes (model, k, m, rho, p_cens); per replicate one balanced
RSS sample and one SRS sample of the same size n = mk are drawn under the
same censoring law (independent substreams), both KM estimates and both
Greenwood plug-ins are evaluated at the level-matched times, and the cell
aggregates means, MC variances, and three relative-efficiency ratios (MC,
Greenwood, and the analytic ``re_true`` under the sampler's judged-rank law).

``run_cell`` returns a cell's CSV rows as named columns, one entry per
CSV column in CSV order, each holding one value per evaluation time.  That
dict is the one definition of the columns: ``run_grid`` writes the header
from its names and each row from its values, floats to 6 significant
digits.  ``run_kernels`` writes the same rows with the analytic columns
in place of the Monte-Carlo ones, from the same code.

Determinism contract: per-cell stream = (master seed, cell index); the
replicates run in chunks whose size depends only on (k, m), and chunk c
draws all its RSS samples from one child stream and all its SRS samples
from another; reduction in replicate order.  Streams follow chunks, and
compute follows blocks of consecutive chunks: a block draws each chunk's
variates from the chunk's own streams and fits them together, which gives
every replicate bit for bit the values a fit of its chunk alone gives, so
the block size is not part of the output.  Output is byte-identical for a
fixed (config, seed) regardless of worker count.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass

import numpy as np

from .config import HarnessConfig
from .models import (
    AftModel,
    ParameterError,
    SuperpopulationModel,
    WeibullModel,
    asymptotic_km_variance,
    calibrate_aft_concomitant,
    censoring_for_fraction,
    dell_clutter_sigma,
)
from .rss import rss_mean
from .sampling import RngStream, StreamParts, draw_samples, replicate_arrays
from .survival import product_limit_at

# per-cell substream branch of the Monte-Carlo replicates
_PRIMARY = 0
# chunk-size rule: a chunk holds max(1, _BUDGET // (m * k * min(k,
# _SLOT_WIDTH))) replicates.  It is kept as a fixed part of the output, not
# sized by what a sampler draws: it fixes which replicates share a stream,
# so changing it changes every simulate value at a fixed seed, SRS columns
# included.  A block of min(k, _SLOT_WIDTH) chunks, about _BUDGET units per
# arm, is drawn and fitted at once; that grouping changes no value.
_BUDGET = 2**15
_SLOT_WIDTH = 4

@dataclass(frozen=True)
class DesignPoint:
    """One grid cell; ``model`` already carries its calibrated ranking noise."""

    model: SuperpopulationModel
    k: int
    m: int
    rho_target: float
    p_cens: float
    eval_levels: tuple[float, ...]

    def eval_times(self) -> list[float]:
        """The times t with S(t) = level, one per eval level."""
        return [self.model.quantile(level) for level in self.eval_levels]


def prepare_model(
    base: SuperpopulationModel,
    rho_target: float,
) -> SuperpopulationModel:
    """Attach the ranking-noise level matching ``rho_target``.

    AFT: exact inversion of the proxy-lifetime correlation (with ceiling
    saturation).  Weibull: closed-form additive-noise variance
    Var(X) * (rho^-2 - 1).
    """
    if isinstance(base, AftModel):
        sigma_u = calibrate_aft_concomitant(base, rho_target)
        return AftModel(base.mu, base.beta, base.sigma_eps, sigma_u)
    sigma_z = (
        0.0 if rho_target == 1.0
        else float(np.sqrt(dell_clutter_sigma(base.lifetime_variance, rho_target)))
    )
    return WeibullModel(base.shape_nu, base.scale_theta1, sigma_z)


def _fit_block(model, k: int, m: int, censoring, rng: StreamParts, reps: int, times):
    """Draw and fit one arm of a block: per replicate, the rank averages of
    S-hat and of Greenwood at ``times`` and its first time at which some
    rank's whole risk set died.  The block's (reps, k, m) rows are fitted
    and read at ``times`` by one ``product_limit_at`` call; only these values
    outlive the call, so one arm's block is held at a time."""
    survival, greenwood, exhausted = product_limit_at(
        *draw_samples(model, k, m, censoring, rng, reps), times)
    return rss_mean(survival), rss_mean(greenwood, 2), exhausted.min(axis=-1)


def _simulate_batch(design: DesignPoint, n_reps: int, rng: RngStream, times):
    """Paired RSS/SRS replicates; returns per-replicate estimate arrays and,
    per evaluation time, the number of replicates in which some curve was
    degenerate (its whole risk set died at or before that time).

    Replicates run in chunks of ``max(1, _BUDGET // (m * k * min(k,
    _SLOT_WIDTH)))``: chunk c draws all its RSS samples from
    ``rng.child(c, 0)`` and its SRS samples from ``rng.child(c, 1)``.
    Blocks of min(k, _SLOT_WIDTH) consecutive chunks (fewer where that
    would hold more than _BUDGET units per arm, at least one) are drawn
    from their chunks' streams (``StreamParts``) and fitted with one
    ``product_limit_at`` call per arm; every row of a fit is independent of
    the others, so each replicate's values are those of a fit of its chunk
    alone.  The result arrays are taken first, so a count too large to hold
    fails before any replicate is drawn."""
    model, k, m = design.model, design.k, design.m
    n = k * m
    censoring = censoring_for_fraction(model, design.p_cens)
    times = np.asarray(times, float)
    s_rss, gw_rss, s_srs, gw_srs = replicate_arrays(4, n_reps, times.size)
    chunk = max(1, _BUDGET // (m * k * min(k, _SLOT_WIDTH)))
    per_block = max(1, min(k, _SLOT_WIDTH, _BUDGET // (m * k * chunk)))
    sizes = [min(chunk, n_reps - start) for start in range(0, n_reps, chunk)]
    n_degenerate = np.zeros(times.size, dtype=int)

    for first in range(0, len(sizes), per_block):
        block = range(first, min(first + per_block, len(sizes)))
        size = sum(sizes[c] for c in block)
        reps = slice(first * chunk, first * chunk + size)
        rss_rng, srs_rng = (StreamParts(tuple((rng.child(c, arm), sizes[c]) for c in block))
                            for arm in (0, 1))
        # the SRS arm is a set of one: its rank averages are its values
        s_rss[reps], gw_rss[reps], rss_exhausted = _fit_block(
            model, k, m, censoring, rss_rng, size, times)
        s_srs[reps], gw_srs[reps], srs_exhausted = _fit_block(
            model, 1, n, censoring, srs_rng, size, times)
        exhausted = np.minimum(rss_exhausted, srs_exhausted)
        n_degenerate += np.sum(exhausted[:, None] <= times, axis=0)

    return s_rss, gw_rss, s_srs, gw_srs, n_degenerate


def _true_columns(design: DesignPoint, times) -> dict[str, np.ndarray]:
    """A cell's analytic columns per eval time: the SRS kernel
    ``v_srs_true``, the judged-rank RSS kernel ``v_rss_true`` and their
    ratio ``re_true``, exactly 1.0 at k = 1."""
    model = design.model
    censoring = censoring_for_fraction(model, design.p_cens)
    v_srs = asymptotic_km_variance(model, censoring, times)
    v_rss = asymptotic_km_variance(model, censoring, times, design.k)
    return {"v_srs_true": v_srs, "v_rss_true": v_rss, "re_true": v_srs / v_rss}


def _cell_columns(design: DesignPoint, times, body: dict) -> dict[str, list | np.ndarray]:
    """A cell's CSV columns, one entry per eval time: the key columns, then
    ``body``'s, then ``rank_noise_sd``; a scalar is repeated at every time.
    The one frame of ``simulate`` and ``kernels`` rows."""
    model = design.model
    aft = isinstance(model, AftModel)
    columns = {
        "model": "aft" if aft else "weibull",
        "k": design.k,
        "m": design.m,
        "n": design.k * design.m,
        "rho": design.rho_target,
        "p_cens": design.p_cens,
        "level": np.asarray(design.eval_levels, float),
        "t": np.asarray(times, float),
        **body,
        "rank_noise_sd": model.sigma_u if aft else model.sigma_z,
    }
    return {name: value if np.ndim(value) else [value] * len(times)
            for name, value in columns.items()}


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, NaN where den is not positive."""
    return np.divide(num, den, out=np.full(den.shape, np.nan), where=den > 0)


def _check_replicates(b_mc: int, n_times: int) -> None:
    """Raise ParameterError for a b_mc below 2, or one whose replicate
    arrays (``_simulate_batch``'s) are too large to hold."""
    if b_mc < 2:
        raise ParameterError(f"b_mc must be >= 2, got {b_mc}")
    replicate_arrays(4, b_mc, n_times)


def run_cell(design: DesignPoint, b_mc: int, rng: RngStream) -> dict[str, list | np.ndarray]:
    """Run one grid cell; returns its CSV columns by name, in CSV order,
    one entry per evaluation time.  ``seed`` is ``rng.seed``."""
    _check_replicates(b_mc, len(design.eval_levels))
    times = design.eval_times()
    # first, so that an eval time outside the inference window fails before
    # any replicate is drawn
    re_true = _true_columns(design, times)["re_true"]

    *batch, n_deg = _simulate_batch(design, b_mc, rng.child(_PRIMARY), times)
    # one contiguous row of replicates per time, so that each row reduces
    # in the summation order of a 1-D array
    s_rss, gw_rss, s_srs, gw_srs = (np.ascontiguousarray(a.T) for a in batch)
    v_rss, v_srs = np.var(s_rss, axis=1, ddof=1), np.var(s_srs, axis=1, ddof=1)
    m_gw_rss, m_gw_srs = np.mean(gw_rss, axis=1), np.mean(gw_srs, axis=1)
    return _cell_columns(design, times, {
        "mean_s_rss": np.mean(s_rss, axis=1),
        "mean_s_srs": np.mean(s_srs, axis=1),
        "v_rss_mc": v_rss,
        "v_srs_mc": v_srs,
        "mean_gw_rss": m_gw_rss,
        "mean_gw_srs": m_gw_srs,
        "re_true": re_true,
        "re_mc": _ratio(v_srs, v_rss),
        "re_gw": _ratio(m_gw_srs, m_gw_rss),
        "b_mc": b_mc,
        "n_degenerate": n_deg,
        "seed": rng.seed,
    })


# --------------------------------------------------------------------------
# grid driver


def _base_model(cfg: HarnessConfig) -> SuperpopulationModel:
    if cfg.model == "aft":
        return AftModel(cfg.mu, cfg.beta, cfg.sigma_eps)
    return WeibullModel(cfg.nu, cfg.theta1)


# a grid run's calibrated models by rho, set once in each pool worker
_models_by_rho: dict = {}


def _share_models(models) -> None:
    _models_by_rho.update(models)


def _cell_task(task, models=_models_by_rho):
    """Run one cell; the task names its rho, whose model comes from
    ``models``."""
    rng, k, m, rho, p_cens, levels, b_mc = task
    design = DesignPoint(models[rho], k, m, rho, p_cens, levels)
    return run_cell(design, b_mc, rng)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _grid(config: HarnessConfig):
    """The grid's (k, m, rho, p_cens) cells in CSV row order, and its
    models calibrated by rho."""
    if not all([config.k, config.m, config.rho, config.p_cens]):
        raise ParameterError("empty grid: k, m, rho and p_cens each need at least one value")
    base = _base_model(config)
    calibrated = {rho: prepare_model(base, rho) for rho in config.rho}
    return list(itertools.product(config.k, config.m, config.rho, config.p_cens)), calibrated


def _write_rows(output_path: str, results) -> None:
    """Write the schema line, the header and one row per (cell, eval time)
    of ``results``, each a cell's columns by name."""
    try:
        with open(output_path, "w") as fh:
            fh.write("# schema_version=2\n")
            fh.write(",".join(results[0]) + "\n")
            for columns in results:
                for row in zip(*columns.values()):
                    fh.write(",".join(map(_fmt, row)) + "\n")
    except OSError as exc:
        raise ParameterError(f"unwritable output {output_path}: {exc}") from exc


def run_grid(
    config: HarnessConfig,
    output_path: str,
    parallelism: int = 1,
) -> None:
    """Run every grid cell and write one CSV row per (cell, eval time).

    Output is byte-identical for the same (config, seed) regardless of
    ``parallelism``: cells are computed from per-cell streams and written in
    grid order.  At most one worker per cell is started; each receives the
    calibrated models once, so a model builds its cached tables at most once
    per worker.
    """
    if parallelism < 1:
        raise ParameterError(f"jobs must be >= 1, got {parallelism}")
    # before any model is calibrated or a pool starts
    _check_replicates(config.b_mc, len(config.levels))
    cells, calibrated = _grid(config)
    tasks = [
        (RngStream(config.seed, idx), k, m, rho, p, tuple(config.levels), config.b_mc)
        for idx, (k, m, rho, p) in enumerate(cells)
    ]

    workers = min(parallelism, len(tasks))
    if workers > 1:
        with multiprocessing.Pool(workers, _share_models, (calibrated,)) as pool:
            results = pool.map(_cell_task, tasks, chunksize=1)
    else:
        results = [_cell_task(t, calibrated) for t in tasks]
    _write_rows(output_path, results)


def run_kernels(config: HarnessConfig, output_path: str) -> None:
    """Write ``run_grid``'s rows, in its order and format, with the key
    columns, the analytic columns and ``rank_noise_sd`` alone; no random
    draws, so ``b_mc`` and ``seed`` are not used.  Every row is computed
    before the file is opened, so an error leaves no file."""
    cells, calibrated = _grid(config)
    results = []
    for k, m, rho, p in cells:
        design = DesignPoint(calibrated[rho], k, m, rho, p, tuple(config.levels))
        times = design.eval_times()
        results.append(_cell_columns(design, times, _true_columns(design, times)))
    _write_rows(output_path, results)
