"""Rank-aware Kaplan-Meier / Nelson-Aalen estimation under balanced ranked
set sampling with right censoring, plus a Monte-Carlo efficiency harness.

``rss_kaplan_meier`` fits the k ranks of a sample with one call of the
product-limit kernel; ``rss_mean`` averages any of the fit's lookups over
the ranks (power 1 for curves, 2 for the 1/k^2-scaled variances).

The estimation modules load with numpy alone.  The names from ``harness``
and ``models``, which need ``scipy.special``, are imported on first access
(PEP 562), so ``import rsskm`` loads no scipy."""

import importlib

from .bootstrap import MultiplierLaw, multiplier_bootstrap
from .config import ConfigError, HarnessConfig, parse_config
from .rss import (
    EmptyDesignError,
    RankedSetSample,
    UnbalancedDesignError,
    rss_kaplan_meier,
    rss_mean,
)
from .sampling import RngStream, draw_balanced_rss
from .survival import (
    EmptySampleError,
    InferenceWindowError,
    InvalidObservationError,
    ParameterError,
)

__version__ = "0.1.0"

# name -> the submodule that defines it, imported when the name is first read
_DEFERRED = {
    **dict.fromkeys(["DesignPoint", "prepare_model", "run_cell", "run_grid"], "harness"),
    **dict.fromkeys([
        "AftModel",
        "CensoringLaw",
        "WeibullModel",
        "aft_rho_ceiling",
        "aft_score_correlation",
        "asymptotic_km_variance",
        "calibrate_aft_concomitant",
        "censoring_for_fraction",
        "dell_clutter_sigma",
    ], "models"),
}


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFERRED[name]}", __name__), name)
    globals()[name] = value
    return value


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
    "calibrate_aft_concomitant",
    "censoring_for_fraction",
    "dell_clutter_sigma",
    "draw_balanced_rss",
    "multiplier_bootstrap",
    "parse_config",
    "prepare_model",
    "rss_kaplan_meier",
    "rss_mean",
    "run_cell",
    "run_grid",
]
