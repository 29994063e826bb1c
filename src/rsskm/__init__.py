"""Rank-aware Kaplan-Meier / Nelson-Aalen estimation under balanced ranked
set sampling with right censoring, plus a Monte-Carlo efficiency harness.

``rss_kaplan_meier`` fits the k ranks of a sample with one call of the
product-limit kernel; ``rss_mean`` averages any of the fit's lookups over
the ranks (power 1 for curves, 2 for the 1/k^2-scaled variances)."""

from .bootstrap import MultiplierLaw, multiplier_bootstrap
from .config import ConfigError, HarnessConfig, parse_config
from .harness import (
    DesignPoint,
    prepare_model,
    run_cell,
    run_grid,
)
from .models import (
    AftModel,
    CensoringLaw,
    InferenceWindowError,
    ParameterError,
    WeibullModel,
    aft_rho_ceiling,
    aft_score_correlation,
    asymptotic_km_variance,
    asymptotic_rss_km_variance,
    calibrate_aft_concomitant,
    censoring_for_fraction,
    dell_clutter_sigma,
    order_statistic_survival,
)
from .rss import (
    EmptyDesignError,
    RankedSetSample,
    UnbalancedDesignError,
    rss_kaplan_meier,
    rss_mean,
)
from .sampling import RngStream, draw_balanced_rss
from .survival import EmptySampleError, InvalidObservationError

__version__ = "0.1.0"

__all__ = [
    "AftModel",
    "CensoringLaw",
    "ConfigError",
    "DesignPoint",
    "EmptyDesignError",
    "EmptySampleError",
    "HarnessConfig",
    "InferenceWindowError",
    "InvalidObservationError",
    "MultiplierLaw",
    "ParameterError",
    "RankedSetSample",
    "RngStream",
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
    "multiplier_bootstrap",
    "order_statistic_survival",
    "parse_config",
    "prepare_model",
    "rss_kaplan_meier",
    "rss_mean",
    "run_cell",
    "run_grid",
]
