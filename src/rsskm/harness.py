"""Grid-driven Monte-Carlo efficiency study: RSS vs SRS Kaplan-Meier.

Each grid cell fixes (model, k, m, rho, p_cens); per replicate one balanced
RSS sample and one SRS sample of the same size n = mk are drawn under the
same censoring law (independent substreams), both KM estimates and both
Greenwood plug-ins are evaluated at the level-matched times, and the cell
aggregates means, MC variances, and three relative-efficiency ratios (MC,
Greenwood, and the analytic ``re_true`` under the sampler's judged-rank law).

Determinism contract: per-cell stream = (master seed, cell index), per
replicate a child stream, reduction in replicate order; output is
byte-identical for a fixed (config, seed) regardless of worker count.
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
    asymptotic_rss_km_variance,
    calibrate_aft_concomitant,
    censoring_for_fraction,
    dell_clutter_sigma,
)
from .rss import rank_sum
from .sampling import RngStream, draw_balanced_rss, draw_srs
from .survival import SortedSample

# per-cell substream branch of the Monte-Carlo replicates
_PRIMARY = 0

CSV_COLUMNS = [
    "model", "k", "m", "n", "rho", "p_cens", "level", "t",
    "mean_s_rss", "mean_s_srs", "v_rss_mc", "v_srs_mc",
    "mean_gw_rss", "mean_gw_srs", "re_true", "re_mc", "re_gw",
    "b_mc", "n_degenerate", "seed", "rank_noise_sd",
]


@dataclass(frozen=True)
class DesignPoint:
    """One grid cell; ``model`` already carries its calibrated ranking noise."""

    model: SuperpopulationModel
    k: int
    m: int
    rho_target: float
    p_cens: float
    eval_levels: tuple[float, ...] = (0.75, 0.5, 0.25, 0.1)


@dataclass(frozen=True)
class EfficiencyRecord:
    design: DesignPoint
    t: float
    s_true: float
    mean_s_rss: float
    mean_s_srs: float
    v_rss_mc: float
    v_srs_mc: float
    mean_gw_rss: float
    mean_gw_srs: float
    re_true: float
    re_mc: float
    re_gw: float
    b_mc: int
    n_degenerate: int
    seed: int


def eval_times_from_levels(model: SuperpopulationModel, levels) -> list[float]:
    """Times with S(t) = level, by analytic inversion of the model law."""
    return [model.quantile(level) for level in levels]


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


def _simulate_batch(design: DesignPoint, n_reps: int, rng: RngStream, times):
    """Paired RSS/SRS replicates; returns per-replicate estimate arrays and,
    per evaluation time, the number of replicates in which some curve was
    degenerate (its whole risk set died at or before that time)."""
    model, k, m = design.model, design.k, design.m
    n = k * m
    censoring = censoring_for_fraction(model, design.p_cens)
    times = np.asarray(times, float)

    s_rss, gw_rss, s_srs, gw_srs = np.empty((4, n_reps, times.size))
    n_degenerate = np.zeros(times.size, dtype=int)

    for i in range(n_reps):
        rep = rng.child(i)
        rss = draw_balanced_rss(model, k, m, censoring, rep.child(0))
        srs = draw_srs(model, n, censoring, rep.child(1))
        rss_fit = SortedSample(rss.times, rss.events).product_limit()
        srs_fit = SortedSample(srs.times, srs.events).product_limit()

        s_rss[i] = rank_sum(rss_fit.survival_at(times)) / k
        gw_rss[i] = rank_sum(rss_fit.greenwood_at(times)) / k**2
        s_srs[i] = srs_fit.survival_at(times)[0]
        gw_srs[i] = srs_fit.greenwood_at(times)[0]
        exhausted = min(rss_fit.exhausted_at.min(), srs_fit.exhausted_at.min())
        n_degenerate += exhausted <= times

    return s_rss, gw_rss, s_srs, gw_srs, n_degenerate


def _true_re(design: DesignPoint, times) -> list[float]:
    """Benchmark RE per eval time: the ratio of the SRS kernel to the
    judged-rank RSS kernel, exactly 1.0 at k = 1."""
    model, k = design.model, design.k
    censoring = censoring_for_fraction(model, design.p_cens)
    v_srs = [asymptotic_km_variance(model, censoring, t) for t in times]
    v_rss = v_srs if k == 1 else asymptotic_rss_km_variance(model, censoring, times, k)
    return [a / b for a, b in zip(v_srs, v_rss)]


def run_cell(
    design: DesignPoint, b_mc: int, rng: RngStream, seed: int = 0
) -> list[EfficiencyRecord]:
    """Run one grid cell; one record per evaluation time."""
    if b_mc < 2:
        raise ParameterError(f"b_mc must be >= 2, got {b_mc}")
    times = eval_times_from_levels(design.model, design.eval_levels)

    s_rss, gw_rss, s_srs, gw_srs, n_deg = _simulate_batch(
        design, b_mc, rng.child(_PRIMARY), times
    )
    re_true = _true_re(design, times)

    records = []
    for j, (t, level) in enumerate(zip(times, design.eval_levels)):
        v_rss = float(np.var(s_rss[:, j], ddof=1))
        v_srs = float(np.var(s_srs[:, j], ddof=1))
        m_gw_rss = float(np.mean(gw_rss[:, j]))
        m_gw_srs = float(np.mean(gw_srs[:, j]))
        records.append(
            EfficiencyRecord(
                design=design,
                t=float(t),
                s_true=float(level),
                mean_s_rss=float(np.mean(s_rss[:, j])),
                mean_s_srs=float(np.mean(s_srs[:, j])),
                v_rss_mc=v_rss,
                v_srs_mc=v_srs,
                mean_gw_rss=m_gw_rss,
                mean_gw_srs=m_gw_srs,
                re_true=float(re_true[j]),
                re_mc=v_srs / v_rss if v_rss > 0 else float("nan"),
                re_gw=m_gw_srs / m_gw_rss if m_gw_rss > 0 else float("nan"),
                b_mc=b_mc,
                n_degenerate=int(n_deg[j]),
                seed=seed,
            )
        )
    return records


# --------------------------------------------------------------------------
# grid driver


def _base_model(cfg: HarnessConfig) -> SuperpopulationModel:
    if cfg.model == "aft":
        return AftModel(cfg.mu, cfg.beta, cfg.sigma_eps)
    return WeibullModel(cfg.nu, cfg.theta1)


def _cell_task(args):
    idx, design, b_mc, seed = args
    return run_cell(design, b_mc, RngStream(seed, idx), seed=seed)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def record_to_row(rec: EfficiencyRecord) -> list[str]:
    d = rec.design
    model_name = "aft" if isinstance(d.model, AftModel) else "weibull"
    noise = d.model.sigma_u if isinstance(d.model, AftModel) else d.model.sigma_z
    values = [
        model_name, d.k, d.m, d.k * d.m, d.rho_target, d.p_cens,
        rec.s_true, rec.t,
        rec.mean_s_rss, rec.mean_s_srs, rec.v_rss_mc, rec.v_srs_mc,
        rec.mean_gw_rss, rec.mean_gw_srs, rec.re_true, rec.re_mc, rec.re_gw,
        rec.b_mc, rec.n_degenerate, rec.seed, noise,
    ]
    return [_fmt(v) for v in values]


def run_grid(
    config: HarnessConfig,
    output_path: str,
    master_seed: int | None = None,
    parallelism: int = 1,
) -> None:
    """Run every grid cell and write one CSV row per (cell, eval time).

    Output is byte-identical for the same (config, seed) regardless of
    ``parallelism``: cells are computed from per-cell streams and written in
    grid order.
    """
    seed = config.seed if master_seed is None else master_seed

    base = _base_model(config)
    calibrated = {rho: prepare_model(base, rho) for rho in config.rho}
    cells = itertools.product(config.k, config.m, config.rho, config.p_cens)
    tasks = [
        (idx, DesignPoint(calibrated[rho], k, m, rho, p, tuple(config.levels)),
         config.b_mc, seed)
        for idx, (k, m, rho, p) in enumerate(cells)
    ]

    if parallelism > 1:
        with multiprocessing.Pool(parallelism) as pool:
            results = pool.map(_cell_task, tasks, chunksize=1)
    else:
        results = [_cell_task(t) for t in tasks]

    try:
        with open(output_path, "w") as fh:
            fh.write("# schema_version=2\n")
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for cell_records in results:
                for rec in cell_records:
                    fh.write(",".join(record_to_row(rec)) + "\n")
    except OSError as exc:
        raise ParameterError(f"unwritable output {output_path}: {exc}") from exc
