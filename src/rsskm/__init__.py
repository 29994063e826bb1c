"""Rank-aware Kaplan-Meier / Nelson-Aalen estimation under balanced ranked
set sampling with right censoring, plus a Monte-Carlo efficiency harness."""

from .bootstrap import MultiplierLaw, multiplier_bootstrap
from .config import ConfigError, HarnessConfig, parse_config
from .harness import (
    DesignPoint,
    eval_times_from_levels,
    prepare_model,
    run_cell,
    run_grid,
)
from .models import (
    AftModel,
    CalibrationError,
    CensoringLaw,
    InferenceWindowError,
    MixingMatrix,
    ParameterError,
    WeibullModel,
    aft_rho_ceiling,
    aft_score_correlation,
    asymptotic_km_variance,
    asymptotic_rss_km_variance,
    calibrate_aft_concomitant,
    censoring_for_fraction,
    dell_clutter_sigma,
    estimate_mixing_matrix,
    mixture_survival,
    order_statistic_survival,
    population_survival,
)
from .rss import (
    EmptyDesignError,
    RankedSetSample,
    UnbalancedDesignError,
    pooled_greenwood,
    rss_greenwood,
    rss_kaplan_meier,
    shrunk_variance,
)
from .sampling import RngStream, draw_balanced_rss, draw_srs
from .survival import (
    CensoredObservation,
    EmptySampleError,
    InvalidObservationError,
    StepSurvivalCurve,
    evaluate,
    kaplan_meier,
)

__version__ = "0.1.0"

__all__ = [
    "AftModel",
    "CalibrationError",
    "CensoredObservation",
    "CensoringLaw",
    "ConfigError",
    "DesignPoint",
    "EmptyDesignError",
    "EmptySampleError",
    "HarnessConfig",
    "InferenceWindowError",
    "InvalidObservationError",
    "MixingMatrix",
    "MultiplierLaw",
    "ParameterError",
    "RankedSetSample",
    "RngStream",
    "StepSurvivalCurve",
    "UnbalancedDesignError",
    "WeibullModel",
    "aft_rho_ceiling",
    "aft_score_correlation",
    "asymptotic_km_variance",
    "asymptotic_rss_km_variance",
    "calibrate_aft_concomitant",
    "censoring_for_fraction",
    "dell_clutter_sigma",
    "draw_balanced_rss",
    "draw_srs",
    "estimate_mixing_matrix",
    "eval_times_from_levels",
    "evaluate",
    "kaplan_meier",
    "mixture_survival",
    "multiplier_bootstrap",
    "order_statistic_survival",
    "parse_config",
    "pooled_greenwood",
    "population_survival",
    "prepare_model",
    "rss_greenwood",
    "rss_kaplan_meier",
    "run_cell",
    "run_grid",
    "shrunk_variance",
]
