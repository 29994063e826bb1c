"""Grid-driven Monte-Carlo efficiency study: RSS vs SRS Kaplan-Meier.

Each grid cell fixes (model, k, m, rho, p_cens); per replicate one balanced
RSS sample and one SRS sample of the same size n = mk are drawn under the
same censoring law (independent substreams), both KM estimates and both
Greenwood plug-ins are evaluated at the level-matched times, and the cell
aggregates means, MC variances, three relative-efficiency ratios (MC,
Greenwood, and the analytic ``re_true`` under the sampler's judged-rank law)
and the count of replicates with a degenerate curve (its S-hat 0) per time.

``run_cell`` returns a cell's CSV rows as named columns, one entry per
CSV column in CSV order, each holding one value per evaluation time.  That
dict is the one definition of the columns: ``run_grid`` writes the header
from its names and each row from its values, floats to 6 significant
digits.  ``run_kernels`` writes the same rows with the analytic columns
in place of the Monte-Carlo ones, from the same code.  Both run a grid as
its list of ``DesignPoint``s, one per cell, each holding the model of its
rho calibrated once and its analytic columns, computed before any draw so
that a bad cell fails at once; a pool task carries its cell's design, and a
worker builds each model's tables once, since ``models`` caches them by value.

Determinism contract: per-cell stream = (master seed, cell index).  Each
arm's replicates run in chunks of max(1, _BUDGET // (k * m)) replicates, a
size that depends only on n = km: chunk c of the RSS arm draws all its
samples from the cell stream's child (0, c, 0), and chunk c of the SRS arm
from (0, c, 1); each chunk is drawn and fitted by one call, and replicates
reduce in replicate order.  The SRS arm's law does not depend on rho or on
how n splits into k and m, so a grid draws it once per (n, p_cens), from
the stream of the first cell in grid order with that (n, p_cens), and every
later cell with that (n, p_cens) reads the same arm.  ``run_cell`` on its
own draws both arms from its stream, so it reproduces the grid row of a
cell that is the first of its SRS arm.  Output is byte-identical for a
fixed (config, seed) regardless of worker count.
"""

from __future__ import annotations

import errno
import functools
import itertools
import multiprocessing
import os
from dataclasses import dataclass
from typing import NamedTuple

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
from .sampling import RngStream, draw_samples, replicate_arrays
from .survival import product_limit_at

# per-cell substream branch of the Monte-Carlo replicates
_PRIMARY = 0
# the arms of a cell, the last index of each chunk's stream
_RSS, _SRS = 0, 1
# chunk-size rule: a chunk holds max(1, _BUDGET // (k * m)) replicates of
# an arm, about _BUDGET units, drawn and fitted at once.  It is a fixed part
# of the output, not sized by what a sampler draws: it fixes which
# replicates share a stream, so changing it changes every simulate value at
# a fixed seed.
_BUDGET = 2**15

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

    @functools.cached_property
    def true_columns(self) -> dict[str, np.ndarray]:
        """``_true_columns`` at the eval times, kept also by a pool task's copy."""
        return _true_columns(self, self.eval_times())


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


class _Arm(NamedTuple):
    """One arm's replicates, reduced: per evaluation time the mean S-hat,
    its MC variance and the mean Greenwood; per replicate and evaluation
    time whether some curve was degenerate (its S-hat 0) there."""

    mean_s: np.ndarray
    v_mc: np.ndarray
    mean_gw: np.ndarray
    degenerate: np.ndarray


def _fit_arm(design: DesignPoint, n_reps: int, rng: RngStream, times, arm: int):
    """Draw and fit one arm of a cell: ``_RSS``, its k x m ranked set
    samples, or ``_SRS``, simple random samples of n = km (sets of one).
    Returns per replicate the rank averages of S-hat and of Greenwood at
    ``times``, and whether some rank's S-hat is 0 at each of ``times``.

    Replicates run in chunks of max(1, _BUDGET // (k * m)): chunk c is
    drawn from ``rng.child(c, arm)`` and fitted and read at ``times`` by one
    ``product_limit_at`` call.  The result arrays are taken first, so a
    count too large to hold fails before any replicate is drawn."""
    k, m = (design.k, design.m) if arm == _RSS else (1, design.k * design.m)
    censoring = censoring_for_fraction(design.model, design.p_cens)
    s, gw = replicate_arrays(2, n_reps, len(times))
    degenerate = np.empty((n_reps, len(times)), dtype=bool)
    chunk = max(1, _BUDGET // (k * m))
    for c, start in enumerate(range(0, n_reps, chunk)):
        reps = slice(start, start + chunk)
        survival, greenwood = product_limit_at(*draw_samples(
            design.model, k, m, censoring, rng.child(c, arm), min(chunk, n_reps - start)), times)
        # a set of one: its rank averages are its values
        s[reps], gw[reps], degenerate[reps] = (
            rss_mean(survival), rss_mean(greenwood, 2), (survival == 0).any(axis=-2))
        # so that one chunk's fit is held at a time
        del survival, greenwood
    return s, gw, degenerate


def _simulate_arm(design: DesignPoint, n_reps: int, rng: RngStream, times, arm: int) -> _Arm:
    """``_fit_arm``'s replicates, reduced."""
    s, gw, degenerate = _fit_arm(design, n_reps, rng, times, arm)
    # one contiguous row of replicates per time, so that each row reduces
    # in the summation order of a 1-D array
    s, gw = np.ascontiguousarray(s.T), np.ascontiguousarray(gw.T)
    return _Arm(np.mean(s, axis=1), np.var(s, axis=1, ddof=1), np.mean(gw, axis=1), degenerate)


def _simulate_batch(design: DesignPoint, n_reps: int, rng: RngStream, times,
                    srs: _Arm | None = None):
    """Paired RSS/SRS replicates: returns the RSS and the SRS ``_Arm`` and,
    per evaluation time, the number of replicates in which some curve was
    degenerate (its S-hat 0) at that time.  The RSS arm is drawn from
    ``rng``, and so is the SRS arm unless ``srs`` gives it; replicate i of
    the one pairs with replicate i of the other."""
    rss = _simulate_arm(design, n_reps, rng, times, _RSS)
    if srs is None:
        srs = _simulate_arm(design, n_reps, rng, times, _SRS)
    return rss, srs, np.sum(rss.degenerate | srs.degenerate, axis=0)


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
    arrays (an arm's and their transposes) are too large to hold."""
    if b_mc < 2:
        raise ParameterError(f"b_mc must be >= 2, got {b_mc}")
    replicate_arrays(4, b_mc, n_times)


def run_cell(design: DesignPoint, b_mc: int, rng: RngStream,
             srs: _Arm | None = None) -> dict[str, list | np.ndarray]:
    """Run one grid cell; returns its CSV columns by name, in CSV order,
    one entry per evaluation time.  ``seed`` is ``rng.seed``.  Both arms
    are drawn from ``rng``, unless ``srs`` gives the SRS arm: ``run_grid``
    passes every cell the arm it drew once for the cell's (n, p_cens)."""
    _check_replicates(b_mc, len(design.eval_levels))
    times = design.eval_times()
    # first: an eval time outside the inference window fails before any draw
    re_true = design.true_columns["re_true"]

    rss, srs, n_deg = _simulate_batch(design, b_mc, rng.child(_PRIMARY), times, srs)
    return _cell_columns(design, times, {
        "mean_s_rss": rss.mean_s,
        "mean_s_srs": srs.mean_s,
        "v_rss_mc": rss.v_mc,
        "v_srs_mc": srs.v_mc,
        "mean_gw_rss": rss.mean_gw,
        "mean_gw_srs": srs.mean_gw,
        "re_true": re_true,
        "re_mc": _ratio(srs.v_mc, rss.v_mc),
        "re_gw": _ratio(srs.mean_gw, rss.mean_gw),
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


def _srs_task(design: DesignPoint, b_mc: int, rng: RngStream) -> _Arm:
    """Draw the SRS arm of a cell from the cell's stream."""
    return _simulate_arm(design, b_mc, rng.child(_PRIMARY), design.eval_times(), _SRS)


def _run_tasks(map_tasks, config: HarnessConfig, designs):
    """Every cell's columns, in grid order, each task's arguments run by
    ``map_tasks(fn, tasks)``: first the SRS arm of each (n, p_cens), drawn
    from the stream of its first cell in grid order, then the cells, each
    with its arm."""
    streams = [RngStream(config.seed, idx) for idx in range(len(designs))]
    first = {}
    for idx, design in enumerate(designs):
        first.setdefault((design.k * design.m, design.p_cens), idx)
    arms = dict(zip(first, map_tasks(
        _srs_task, [(designs[idx], config.b_mc, streams[idx]) for idx in first.values()])))
    return map_tasks(run_cell, [
        (design, config.b_mc, stream, arms[design.k * design.m, design.p_cens])
        for design, stream in zip(designs, streams)])


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _grid(config: HarnessConfig) -> list[DesignPoint]:
    """The grid's cells in CSV row order, each rho's model calibrated once
    and every cell's analytic columns computed: a bad cell fails at once."""
    if not all([config.k, config.m, config.rho, config.p_cens]):
        raise ParameterError("empty grid: k, m, rho and p_cens each need at least one value")
    base = _base_model(config)
    calibrated = {rho: prepare_model(base, rho) for rho in config.rho}
    levels = tuple(config.levels)
    designs = [DesignPoint(calibrated[rho], k, m, rho, p_cens, levels) for k, m, rho, p_cens
               in itertools.product(config.k, config.m, config.rho, config.p_cens)]
    for design in designs:
        design.true_columns
    return designs


def _check_output(output_path: str) -> None:
    """Raise ``_write_rows``'s error, creating no file, where the directory
    of ``output_path`` is missing, not a directory or not writable, or
    ``output_path`` is itself a directory."""
    folder = os.path.dirname(output_path) or "."
    try:
        os.stat(folder)
        if not os.path.isdir(folder):
            code = errno.ENOTDIR
        elif os.path.isdir(output_path):
            code = errno.EISDIR
        else:
            code = 0 if os.access(folder, os.W_OK) else errno.EACCES
    except OSError as exc:
        code = exc.errno
    if code:
        exc = OSError(code, os.strerror(code), output_path)
        raise ParameterError(f"unwritable output {output_path}: {exc}")


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
    ``parallelism``: each SRS arm and each cell is computed from its cell's
    stream, and cells are written in grid order.  At most one worker per
    cell is started, and each task carries its cell's design; a worker
    builds a model's tables once, as ``models`` caches them by model value.
    """
    if parallelism < 1:
        raise ParameterError(f"jobs must be >= 1, got {parallelism}")
    # before any model is calibrated or a pool starts
    _check_replicates(config.b_mc, len(config.levels))
    _check_output(output_path)
    designs = _grid(config)

    workers = min(parallelism, len(designs))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = _run_tasks(functools.partial(pool.starmap, chunksize=1), config, designs)
    else:
        results = _run_tasks(lambda fn, tasks: [fn(*task) for task in tasks], config, designs)
    _write_rows(output_path, results)


def run_kernels(config: HarnessConfig, output_path: str) -> None:
    """Write ``run_grid``'s rows, in its order and format, with the key
    columns, the analytic columns and ``rank_noise_sd`` alone; no random
    draws, so ``b_mc`` and ``seed`` are not used.  Every row is computed
    before the file is opened, so an error leaves no file."""
    _check_output(output_path)
    results = [_cell_columns(design, design.eval_times(), design.true_columns)
               for design in _grid(config)]
    _write_rows(output_path, results)
