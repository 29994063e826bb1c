"""Rank-aware Kaplan-Meier / Nelson-Aalen estimation under balanced ranked
set sampling with right censoring, plus a Monte-Carlo efficiency harness.

``rss_kaplan_meier`` fits the k ranks of a sample with one call of the
product-limit kernel; ``rss_mean`` averages any of the fit's lookups over
the ranks (power 1 for curves, 2 for the 1/k^2-scaled variances).

The package root holds the estimation API, which loads with numpy alone, so
``import rsskm`` loads no scipy.  The simulation API needs ``scipy.special``
and is imported from its modules: ``rsskm.harness`` (``DesignPoint``,
``prepare_model``, ``run_cell``, ``run_grid``, ``run_kernels``) and
``rsskm.models`` (the models, censoring laws, calibration and variance
kernels)."""

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

__all__ = [
    "ConfigError",
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
    "draw_balanced_rss",
    "multiplier_bootstrap",
    "parse_config",
    "rss_kaplan_meier",
    "rss_mean",
]
