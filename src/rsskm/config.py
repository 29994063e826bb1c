"""Flat key/value config files for the simulation harness.

Format: UTF-8 text (a leading byte-order mark is skipped), one
``key = value`` pair per line, ``#`` comments, arrays as comma-separated
values.  Diff-friendly and language-neutral.

Recognized keys (defaults in parentheses):

    model         aft | weibull          (aft)
    mu, beta, sigma_eps                  (0.0, 1.5, 0.4)      [aft]
    nu, theta1                           (1.0, 1.0)           [weibull]
    k             array of set sizes     (2,4,6,8,10)
    m             array of cycle counts  (20,50)
    rho           array of ranking-quality targets (0.1,0.3,0.5,0.7,0.9)
    p_cens        array of censoring fractions     (0,0.1,0.3,0.5)
    levels        survival levels for eval times   (0.75,0.5,0.25,0.1)
    b_mc          MC replicates per cell (2000; 10000 with --full)
    seed          master seed, >= 0      (0)

Float keys must be finite.

Obsolete integer keys, accepted and ignored now that ``re_true`` is
analytic: ``b_true`` (secondary MC replicates), ``n_sets`` (mixing draws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


_ARRAY_KEYS = {"k", "m", "rho", "p_cens", "levels"}
_FLOAT_KEYS = {"mu", "beta", "sigma_eps", "nu", "theta1"}
_INT_KEYS = {"b_mc", "seed"}
_OBSOLETE_KEYS = {"b_true", "n_sets"}


@dataclass
class HarnessConfig:
    model: str = "aft"
    mu: float = 0.0
    beta: float = 1.5
    sigma_eps: float = 0.4
    nu: float = 1.0
    theta1: float = 1.0
    k: list[int] = field(default_factory=lambda: [2, 4, 6, 8, 10])
    m: list[int] = field(default_factory=lambda: [20, 50])
    rho: list[float] = field(default_factory=lambda: [0.1, 0.3, 0.5, 0.7, 0.9])
    p_cens: list[float] = field(default_factory=lambda: [0.0, 0.1, 0.3, 0.5])
    levels: list[float] = field(default_factory=lambda: [0.75, 0.5, 0.25, 0.1])
    b_mc: int = 2000
    seed: int = 0


def parse_config(path: str) -> HarnessConfig:
    cfg = HarnessConfig()
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"unreadable config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}:{undecodable_line(path)}: not UTF-8 text: {exc.reason}") from None

    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key == "model":
                if value not in ("aft", "weibull"):
                    raise ValueError(f"model must be aft or weibull, got {value!r}")
                cfg.model = value
            elif key in _ARRAY_KEYS:
                items = [v for v in value.replace(",", " ").split() if v]
                parsed = [int(v) if key in ("k", "m") else float(v) for v in items]
                if not parsed:
                    raise ValueError("empty array")
                setattr(cfg, key, parsed)
            elif key in _FLOAT_KEYS:
                setattr(cfg, key, float(value))
            elif key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key in _OBSOLETE_KEYS:
                int(value)
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: field {key!r}: {exc}") from exc

    _validate(cfg, path)
    return cfg


def undecodable_line(path: str) -> int:
    """Number of the first line of ``path`` that is not UTF-8 (the last line
    if each decodes alone); a text reader decodes ahead in blocks, so the
    raw lines are decoded one by one."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return lineno


def _validate(cfg: HarnessConfig, path: str) -> None:
    for key in sorted(_FLOAT_KEYS):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{path}: field {key!r}: must be finite")
    for key in ("k", "m"):
        if any(x < 1 for x in getattr(cfg, key)):
            raise ConfigError(f"{path}: field {key!r}: must be >= 1")
    if any(not 0.0 < r <= 1.0 for r in cfg.rho):
        raise ConfigError(f"{path}: field 'rho': values must be in (0,1]")
    if any(not 0.0 <= p < 1.0 for p in cfg.p_cens):
        raise ConfigError(f"{path}: field 'p_cens': values must be in [0,1)")
    if any(not 0.0 < l < 1.0 for l in cfg.levels):
        raise ConfigError(f"{path}: field 'levels': values must be in (0,1)")
    if cfg.b_mc < 2:
        raise ConfigError(f"{path}: field 'b_mc': must be >= 2")
