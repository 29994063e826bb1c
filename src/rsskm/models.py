"""Superpopulation laws, order statistics, the judged-rank law of the
sampler, concomitant calibration, censoring construction, and asymptotic KM
variance kernels.

Two generative families are supported:

* lognormal accelerated-lifetime model with a noisy log-scale ranking
  concomitant, calibrated by ``calibrate_aft_concomitant``, and
* Weibull (exponential at shape 1) lifetimes with an additive-noise
  ranking concomitant whose noise variance follows the closed-form
  relation sigma^2 = Var(X) * (rho^-2 - 1) (``dell_clutter_sigma``).

Each model gives its survival function and quantiles, and draws the units
measured in the judged slots of a ranked set sample (``draw_slots``).  The
exact law of those units (``judged_rank_survival``) feeds the one asymptotic
KM variance kernel, ``asymptotic_km_variance``: the population law at set
size k = 1 (SRS), the rank-averaged judged law at k > 1 (RSS).  That law is
tabulated once per (model, set size, eval times) (``_judged_law``) and a
judged Weibull model's score CDF once per model (``_score_cdf``), both
cached by model value, so equal models share the tables; the kernel reads
the law at its times, and at k > 1 the samplers invert each slot's CDF in
the law at no times (``_judged_slots``).  Perfect-ranking Weibull alone
draws its slots in closed form, as order statistics.

The standard normal comes from ``scipy.special`` (``ndtr``, ``ndtri``), in
the forms ``scipy.stats.norm`` evaluates, and the Weibull score-CDF spline
is computed here as ``scipy.interpolate.CubicSpline`` computes it, so this
module never loads ``scipy.stats`` or ``scipy.interpolate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import hermite_e, legendre
from scipy.special import gamma as gamma_fn
from scipy.special import log_ndtr, ndtr, ndtri

from .sampling import RngStream
from .survival import InferenceWindowError, ParameterError


# standard normal: the scipy.special expressions behind scipy.stats.norm's
# sf (ndtr(-z)), isf and pdf, bit for bit, without importing scipy.stats


def _normal_isf(q):
    """Phi^-1(1 - q); the + 0.0 (norm.isf's loc) makes q = 0.5 give +0.0."""
    return -ndtri(q) + 0.0


def _normal_pdf(x):
    return np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi)


# --------------------------------------------------------------------------
# superpopulation models


@dataclass(frozen=True)
class AftModel:
    """Lognormal lifetimes: log X ~ N(mu, beta^2 + sigma_eps^2).

    Ranking uses a noisy log-scale concomitant, score = log X + sigma_u * N(0,1);
    ``sigma_u`` stays None until calibrated against a target correlation
    (see ``calibrate_aft_concomitant``).  ``sigma_u = inf`` is the pure-noise
    proxy (scores carry no lifetime information).
    """

    mu: float = 0.0
    beta: float = 1.5
    sigma_eps: float = 0.4
    sigma_u: float | None = None

    @property
    def log_sd(self) -> float:
        return math.hypot(self.beta, self.sigma_eps)

    @property
    def mean_lifetime(self) -> float:
        return _finite("AFT mean lifetime", lambda: math.exp(self.mu + self.log_sd**2 / 2))

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            z = (np.log(t) - self.mu) / self.log_sd
        return np.where(t <= 0, 1.0, ndtr(-z))

    def quantile(self, level: float) -> float:
        """Time t with S(t) = level (closed-form lognormal inversion)."""
        if not 0.0 < level < 1.0:
            raise ParameterError(f"survival level must be in (0,1), got {level}")
        return _finite(f"quantile at survival level {level:g}",
                       lambda: math.exp(self.mu + self.log_sd * _normal_isf(level)))

    def draw_slots(self, k: int, size, lifetimes: RngStream, proxies: RngStream):
        """Lifetimes, shape ``(*size, k)``, of the units measured in judged
        slots 1..k of k-sets ranked by the score V, each drawn from its exact
        law (Dell & Clutter 1972).

        A set of one measures a population draw from ``lifetimes``.
        Otherwise nothing is drawn from ``lifetimes``: each slot inverts its
        tabulated CDF at a uniform from ``proxies`` (``_judged_slots``)."""
        if k == 1:
            return self.lifetime_at(lifetimes.generator().standard_normal((*size, 1)))
        return _judged_slots(self, k, size, proxies)

    def lifetime_at(self, w):
        """Lifetime at normal score w, i.e. with F(x) = Phi(w)."""
        return np.exp(self.mu + self.log_sd * w)

    def score_cdf_at(self, w, z):
        """Score CDF F_V(log x + sigma_u * z) at the lifetime x of score w,
        in closed form: log X and V are jointly normal."""
        if self.sigma_u is None:
            raise ParameterError("uncalibrated model: sigma_u is not set")
        if not math.isfinite(self.sigma_u):
            return ndtr(z)
        s = self.log_sd
        return ndtr((s * w + self.sigma_u * z) / math.hypot(s, self.sigma_u))


@dataclass(frozen=True)
class WeibullModel:
    """Weibull lifetimes, S(t) = exp(-(t/theta1)^nu); exponential at nu=1.

    Ranking score is X + sigma_z * N(0,1); ``sigma_z = inf`` is pure noise.
    """

    shape_nu: float = 1.0
    scale_theta1: float = 1.0
    sigma_z: float = 0.0

    def __post_init__(self):
        if not (0 < self.shape_nu < math.inf and 0 < self.scale_theta1 < math.inf):
            raise ParameterError(
                f"shape and scale must be positive and finite, got "
                f"nu={self.shape_nu}, theta1={self.scale_theta1}")
        if not self.sigma_z >= 0:
            raise ParameterError("sigma_z must be nonnegative")
        if 0 < self.sigma_z < math.inf:
            # ``_score_cdf`` spreads 2000 knots over [-8 sigma_z, x + 8
            # sigma_z], x below the lifetime at score 8, and its spline
            # cubes offsets of up to one knot spacing
            _finite(f"the cubed knot spacing of the Weibull score-CDF spline (ranking-noise "
                    f"sd {self.sigma_z:g})", lambda: (
                        (float(self.lifetime_at(8.0)) + 16 * self.sigma_z) / 1999) ** 3)

    @property
    def lifetime_variance(self) -> float:
        g1 = gamma_fn(1 + 1 / self.shape_nu)
        g2 = gamma_fn(1 + 2 / self.shape_nu)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf at tiny nu
            return _finite("Weibull lifetime variance",
                           lambda: self.scale_theta1**2 * (g2 - g1**2))

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):  # exp(-inf) = 0 far in the tail
            return np.where(t <= 0, 1.0,
                            np.exp(-((np.maximum(t, 0) / self.scale_theta1) ** self.shape_nu)))

    def quantile(self, level: float) -> float:
        if not 0.0 < level < 1.0:
            raise ParameterError(f"survival level must be in (0,1), got {level}")
        return _finite(f"quantile at survival level {level:g}",
                       lambda: self.scale_theta1 * (-math.log(level)) ** (1 / self.shape_nu))

    def draw_ranking_scale(self, gen: np.random.Generator, size):
        """Lifetimes X = theta * E^(1/nu), E ~ Exp(1), drawn from the law:
        the proxy ranks on X itself.  ``Generator.weibull`` draws the same E
        but takes the power by scalar ``pow`` even at nu = 1."""
        return self.scale_theta1 * gen.standard_exponential(size) ** (1 / self.shape_nu)

    def draw_slots(self, k: int, size, lifetimes: RngStream, proxies: RngStream):
        """Lifetimes, shape ``(*size, k)``, of the units measured in judged
        slots 1..k, each drawn from its exact law (Dell & Clutter 1972).

        A set of one measures a population draw from ``lifetimes``.
        Otherwise nothing is drawn from ``lifetimes``.  Under perfect ranking
        (sigma_z = 0) slot r measures the r-th order statistic X_[r] in
        closed form: F(X_[r]) ~ Beta(r, k-r+1) is G/(G+G') with G ~ Gamma(r)
        and G' ~ Gamma(k-r+1), one ``standard_gamma`` block ``(*size, k, 2)``
        from ``proxies`` with the shapes [r, k-r+1] interleaved on the last
        axis, so -log S(X_[r]) = log1p(G/G') and X_[r] = theta *
        log1p(G/G')^(1/nu).  Under judged ranking each slot inverts its
        tabulated CDF (``_judged_slots``).  The closed form stays because it
        draws faster than the table."""
        if k == 1:
            return self.draw_ranking_scale(lifetimes.generator(), (*size, 1))
        if self.sigma_z == 0:
            r = np.arange(1, k + 1)
            g = proxies.generator().standard_gamma(np.stack([r, k + 1 - r], axis=-1),
                                                   (*size, k, 2))
            return self.scale_theta1 * np.log1p(g[..., 0] / g[..., 1]) ** (1 / self.shape_nu)
        return _judged_slots(self, k, size, proxies)

    def lifetime_at(self, w):
        """Lifetime at normal score w, i.e. with F(x) = Phi(w)."""
        return self.scale_theta1 * (-log_ndtr(-w)) ** (1 / self.shape_nu)

    def score_cdf_at(self, w, z):
        """Score CDF F_V(x + sigma_z * z) at the lifetime x of score w, read
        from the model's tabulated F_V (``_score_cdf``)."""
        sigma = self.sigma_z
        if sigma == 0 or not math.isfinite(sigma):
            return ndtr(w if sigma == 0 else z)
        v, coef = _score_cdf(self)
        x = np.clip(self.lifetime_at(w) + sigma * z, v[0], v[-1])
        # scipy's PPoly evaluation: the knot at or left of x (the last
        # interval at v[-1]), then the terms in its order
        i = np.minimum(np.searchsorted(v, x, side="right"), v.size - 1) - 1
        h = x - v[i]
        h2 = h * h
        return coef[3, i] + coef[2, i] * h + coef[1, i] * h2 + coef[0, i] * (h2 * h)


SuperpopulationModel = AftModel | WeibullModel


@lru_cache(maxsize=32)
def _score_cdf(model: WeibullModel):
    """The score CDF F_V(v) = E Phi((v - X) / sigma_z) of a judged Weibull
    model tabulated at 2000 equally spaced points of v, and the coefficients
    of its cubic spline (``_cubic_spline``); built once per model value while
    among the 32 most recently read, so equal models share one table.

    Raises ParameterError where the spline misses F_V at a midpoint between
    knots by more than ``_SPLINE_TOLERANCE``: at small nu the lifetime's
    upper tail stretches the knots, and F_V can rise within a few of them."""
    sigma = model.sigma_z
    u, half = _panel_nodes(_W_EDGES)
    x = model.lifetime_at(u).ravel()
    dF = (half[:, None] * _GL_W * _normal_pdf(u)).ravel()

    def score_cdf(at):
        return np.concatenate(
            [ndtr((part[:, None] - x) / sigma) @ dF for part in np.array_split(at, 8)])

    v = np.linspace(-8 * sigma, x.max() + 8 * sigma, 2000)
    coef = _cubic_spline(v, score_cdf(v))
    h = np.diff(v) / 2
    error = np.max(np.abs(((coef[0] * h + coef[1]) * h + coef[2]) * h + coef[3]
                          - score_cdf(v[:-1] + h)))
    if not error <= _SPLINE_TOLERANCE:
        raise ParameterError(
            f"the Weibull score-CDF spline cannot resolve the ranking law at nu = "
            f"{model.shape_nu:g}, ranking-noise sd {sigma:g}: it is off by {error:.2g} "
            f"between knots, more than {_SPLINE_TOLERANCE:g}")
    return v, coef


def _finite(quantity: str, compute) -> float:
    """compute(), or a ParameterError naming ``quantity`` when it overflows."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ParameterError(f"{quantity} overflows at these model parameters")
    return value


def _cubic_spline(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients (4, n - 1), highest power first, of the not-a-knot cubic
    spline through (x, y) on n equally spaced knots x: the operations of
    ``scipy.interpolate.CubicSpline``, in its order, so its values are that
    spline's bit for bit without importing scipy.interpolate.  Its banded
    solve for the knot slopes is LAPACK ``gtsv``, which on these knots never
    swaps rows; the loops below are its elimination and back solve.  The
    equality is checked against scipy 1.17.1 by a test in ``test_models``."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # the tridiagonal system for the knot slopes: sub-, main and
    # super-diagonal and right-hand side
    sub = np.append(dx[1:], x[-1] - x[-3])
    main = np.concatenate([[dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]])
    sup = np.append(x[2] - x[0], dx[:-1])
    rhs = np.empty_like(y)
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    rhs[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    sub, main, sup, s = sub.tolist(), main.tolist(), sup.tolist(), rhs.tolist()
    for i in range(len(s) - 1):
        fact = sub[i] / main[i]
        main[i + 1] -= fact * sup[i]
        s[i + 1] -= fact * s[i]
    s[-1] /= main[-1]
    for i in range(len(s) - 2, -1, -1):
        s[i] = (s[i] - sup[i] * s[i + 1]) / main[i]
    s = np.array(s)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


# --------------------------------------------------------------------------
# censoring


@dataclass(frozen=True)
class CensoringLaw:
    """Independent censoring: none, or Weibull(shape, scale), which is
    exponential with mean ``parameter`` at shape 1."""

    kind: str  # "none" | "weibull-scale"
    parameter: float = 0.0
    shape: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "weibull-scale"):
            raise ParameterError(f"unknown censoring kind: {self.kind}")
        if self.kind != "none" and self.parameter <= 0:
            raise ParameterError("censoring parameter must be positive")

    def draw(self, gen: np.random.Generator, size):
        if self.kind == "none":
            return np.full(size, np.inf)
        return self.parameter * gen.standard_exponential(size) ** (1 / self.shape)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "none":
            return np.ones_like(t)
        with np.errstate(over="ignore"):  # exp(-inf) = 0 far in the tail
            return np.exp(-((np.maximum(t, 0) / self.parameter) ** self.shape))


def censoring_for_fraction(model: SuperpopulationModel, p_cens: float) -> CensoringLaw:
    """Censoring law targeting fraction ``p_cens``.

    AFT: exponential C with rate -log(1-p)/E[X], i.e. scale 1/rate.
    Weibull: same-shape Weibull with scale theta2 = theta1 * ((1-p)/p)^(1/nu),
    which censors exactly fraction p for Weibull lifetimes.  p = 0 means no
    censoring.
    """
    if not 0.0 <= p_cens < 1.0:
        raise ParameterError(f"censoring fraction must be in [0,1), got {p_cens}")
    if p_cens == 0.0:
        return CensoringLaw("none")
    if isinstance(model, WeibullModel):
        theta2 = model.scale_theta1 * ((1 - p_cens) / p_cens) ** (1 / model.shape_nu)
        return CensoringLaw("weibull-scale", theta2, shape=model.shape_nu)
    rate = -math.log(1 - p_cens) / model.mean_lifetime
    return CensoringLaw("weibull-scale", 1.0 / rate)


# --------------------------------------------------------------------------
# concomitant calibration (AFT)


def aft_rho_ceiling(model: AftModel) -> float:
    """Largest attainable |corr(score, X)| (noiseless log-scale score):
    s / sqrt(e^{s^2} - 1) with s the log-lifetime standard deviation."""
    s = model.log_sd
    spread = _finite(f"exp(s^2) in the AFT ranking-correlation ceiling (log-lifetime sd "
                     f"s = {s:g})", lambda: math.expm1(s**2))
    return s / math.sqrt(spread)


def aft_score_correlation(model: AftModel, sigma_u: float) -> float:
    """Exact |corr(log X + sigma_u * N(0,1), X)| for lognormal X:

        corr(sigma) = s^2 / (sqrt(s^2 + sigma^2) * sqrt(e^{s^2} - 1)),

    with s the log-lifetime standard deviation; corr(0) is the ceiling."""
    s = model.log_sd
    return s**2 / (math.hypot(s, sigma_u) * math.sqrt(math.expm1(s**2)))


# tuned against the reference efficiency tables
_SATURATION_MARGIN = 0.032


def calibrate_aft_concomitant(model: AftModel, rho_target: float) -> float:
    """Noise level sigma_u with |corr(score, X)| = rho_target, by exact
    inversion of ``aft_score_correlation`` (no simulation; the lognormal
    family admits a closed form, and MC correlation estimates are far too
    heavy-tailed to calibrate against).

    The correlation with the lifetime has a ceiling well below 1; targets
    above it cannot be met.  Targets above ceiling * (1 - _SATURATION_MARGIN)
    fall back to the best-effort level solving that correlation, so all of
    them share one noise level, which is how the reference efficiency tables
    behave.
    """
    if not 0.0 < rho_target <= 1.0:
        raise ParameterError(f"rho_target must be in (0,1], got {rho_target}")
    ceiling = aft_rho_ceiling(model)
    target = min(rho_target, ceiling * (1.0 - _SATURATION_MARGIN))
    s = model.log_sd
    ratio = _finite(f"(ceiling / rho)^2 in the AFT ranking-noise calibration "
                    f"(rho = {rho_target:g})", lambda: (ceiling / target) ** 2)
    return s * math.sqrt(ratio - 1.0)


def dell_clutter_sigma(var_x: float, rho: float) -> float:
    """Additive ranking-noise variance var_x * (rho^-2 - 1) that makes the
    noisy concomitant X + Z correlate with X at level rho."""
    if var_x <= 0:
        raise ParameterError("var_x must be positive")
    if not 0.0 < rho <= 1.0:
        raise ParameterError(f"rho must be in (0,1], got {rho}")
    return _finite(f"rho^-2 in the Weibull ranking-noise variance (rho = {rho:g})",
                   lambda: var_x * (rho**-2 - 1.0))


# --------------------------------------------------------------------------
# asymptotic variance kernels


def _check_window(model, censoring: CensoringLaw, t: float) -> None:
    sy = float(model.survival(t)) * float(censoring.survival(t))
    if not (sy > 1e-12 and math.isfinite(t) and t >= 0):
        raise InferenceWindowError(
            f"t={t} outside inference window (observed-time survival {sy:.3g})"
        )


# Judged-rank law (Dell & Clutter 1972).  Both models rank a k-set by the
# score V = h(X) + sigma * N(0,1) (h = log for AFT, the identity for
# Weibull), and the unit measured in judged slot r has lifetime density
# f(x) g_r(F(x)) with
#
#     g_r(p) = k E_Z Binom(r-1; k-1, F_V(h(Q(p)) + sigma Z)),
#
# Q the lifetime quantile and F_V the score CDF.  sigma = 0 gives the
# order-statistic law, sigma = inf gives g_r = 1, and sum_r g_r = k
# (McIntyre).  Everything is computed in the normal-score scale
# w = Phi^-1(F(x)), where both models are smooth, on 16-point Gauss-Legendre
# panels over [-8, 8] (mass outside: 1e-15) and 96-point Gauss-Hermite
# nodes for E_Z.

_GL_X, _GL_W = legendre.leggauss(16)
# _GL_CUM @ f integrates the interpolant of f over [-1, x_i] for each node x_i
_GL_CUM = legendre.legval(
    _GL_X, legendre.legint(np.linalg.inv(legendre.legvander(_GL_X, 15)), lbnd=-1)).T
_GH_Z, _GH_W = hermite_e.hermegauss(96)
_GH_W = _GH_W / _GH_W.sum()
_W_EDGES = np.linspace(-8.0, 8.0, 33)
# the largest miss of the score-CDF spline at its knots' midpoints: where it
# was below 2e-3 (Weibull nu 0.3-1.5, rho 0.4-0.9999), S_[r] at k <= 10
# missed that of a 40000-knot table by at most 2.5 times it; every nu >= 1
# passes up to rho 0.9999
_SPLINE_TOLERANCE = 5e-4
# buckets of u in the slot search's index: a power of two, so that u * B and
# every bucket edge b / B + r are exact in float64
_BUCKETS = 4096
# judged-slot draws inverted at once: a harness block (about 2^15 draws) is
# inverted in two slices, which halves the (9, draws) table gather of
# ``_JudgedLaw.scores``; slices of 2^13 took about 12% longer per block
# (in-process timeit, 2-core host)
_INVERTED_AT_ONCE = 2**14


def _panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes (panels, 16) and half-widths of the panels."""
    half = np.diff(edges) / 2
    return (edges[:-1] + half)[:, None] + half[:, None] * _GL_X, half


@dataclass(frozen=True, eq=False)
class _JudgedLaw:
    """Law of each judged slot r = 1..k on panels whose edges include the
    scores w of the eval times: the (panels, 16) nodes and the half-widths
    of their panels, per rank the mass and S_[r] at the nodes, the panel
    starting at each time, and (k, times) S_[r] at the times."""

    w: np.ndarray
    half: np.ndarray
    mass: np.ndarray
    survival: np.ndarray
    panel: np.ndarray
    survival_at: np.ndarray

    @cached_property
    def _inverse(self):
        """Tables for ``scores``, one row per slot over the n points w_0 = -8,
        the nodes, w_{n-1} = 8.

        - F_r = 1 - S_[r] made nondecreasing from 0 to 1, shifted by r - 1
          into one sorted array over all rows.
        - Per point j of each row, the cubic Hermite interpolant of F_r on
          [w_j, w_j + h] whose end slopes are the tabulated density (taken
          as 0 at |w| = 8, where it is below k * 1e-14): w_j, h, F_r(w_j),
          the coefficients c1..c3 of F_r(w_j + h t) - F_r(w_j) = c1 t +
          c2 t^2 + c3 t^3, their sum c1 + c2 + c3 (the interval's rise) and
          the derivative's 3 c3 and 2 c2 (all 0 at the last point, which
          starts no interval).
        - The bucket index of ``_intervals``: per slot r and each of
          ``_BUCKETS`` equal buckets [b/B, (b+1)/B) of u, the interval that
          holds every u of the bucket, or -1 where the bucket's edges lie
          in different intervals.  Rows are indexed one by one, so no
          (k, B) temporary is made."""
        k = len(self.mass)
        points = np.concatenate([[-8.0], self.w.ravel(), [8.0]])
        cdf = np.zeros((k, points.size))
        cdf[:, 1:-1] = 1.0 - self.survival.reshape(k, -1)
        cdf[:, -1] = 1.0
        cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0), axis=1)
        slope = np.zeros_like(cdf)
        slope[:, 1:-1] = (self.mass / self.half[:, None]).reshape(k, -1)
        h = np.diff(points)
        a, b, rise = h * slope[:, :-1], h * slope[:, 1:], np.diff(cdf)
        cubic = np.zeros((9, k, points.size))
        cubic[0], cubic[1, :, :-1], cubic[2] = points, h, cdf
        cubic[3:6, :, :-1] = a, 3 * rise - 2 * a - b, a + b - 2 * rise
        c1, c2, c3 = cubic[3:6]
        cubic[6], cubic[7], cubic[8] = c1 + c2 + c3, 3 * c3, 2 * c2
        shifted = (cdf + np.arange(k)[:, None]).ravel()
        n = points.size
        edges = np.arange(_BUCKETS + 1) / _BUCKETS
        # the smallest signed type that holds every index and -1
        index = np.empty((k, _BUCKETS), dtype=np.min_scalar_type(-shifted.size))
        for r in range(k):
            at = np.clip(np.searchsorted(shifted, edges + r, side="right") - 1,
                         r * n, r * n + n - 2)
            index[r] = np.where(at[:-1] == at[1:], at[:-1], -1)
        return shifted, cubic.reshape(9, -1), index.ravel()

    def _intervals(self, u) -> np.ndarray:
        """The flat index into ``_inverse`` of the interval that holds each
        draw of ``u`` (slots on the last axis): the last point of the
        shifted array at or below u + r - 1 for slot r, clipped to the
        slot's row.

        A draw reads the entry of its bucket in the bucket index.  About 96%
        of uniform draws lie in a bucket that one interval covers; the rest
        (mostly in the crowded tails) are searched.  Both give the search's
        index: u + r - 1 rounds monotonically in u, and the bucket's edges
        b/B + r - 1 are exact, so the index at u lies between the indices
        at its edges."""
        shifted, _, index = self._inverse
        k = len(self.mass)
        n = shifted.size // k
        bucket = (u * _BUCKETS).astype(np.intp)  # exact: B is a power of two
        bucket += np.arange(0, k * _BUCKETS, _BUCKETS)
        point = index.take(bucket).astype(np.intp)
        miss = np.flatnonzero(point < 0)
        slot = miss % k
        found = np.searchsorted(shifted, u.reshape(-1)[miss] + slot, side="right") - 1
        # u + r - 1 rounds to r, the start of the next row, at u just below 1
        point.reshape(-1)[miss] = np.clip(found, slot * n, slot * n + n - 2)
        return point

    def scores(self, u):
        """Normal scores w with F_r(w) = u[..., r - 1] for slots r = 1..k,
        ``u`` in [0, 1) with the slots on its last axis.

        ``_intervals`` finds each draw's interval; three Newton steps from
        the secant then solve the interval's cubic (its error against the
        exact F_r is below 1e-6), in place on the gathered coefficients."""
        w, h, y, c1, c2, c3, rise, three_c3, two_c2 = (
            self._inverse[1].take(self._intervals(u), axis=1))
        np.subtract(u, y, out=y)
        num, den = np.empty_like(y), np.empty_like(y)
        with np.errstate(divide="ignore", invalid="ignore"):  # zero slope at w = -8
            t = y / rise
            for _ in range(3):  # t -= (((c3 t + c2) t + c1) t - y) / ((3 c3 t + 2 c2) t + c1)
                np.multiply(c3, t, out=num)
                num += c2
                num *= t
                num += c1
                num *= t
                num -= y
                np.multiply(three_c3, t, out=den)
                den += two_c2
                den *= t
                den += c1
                num /= den
                t -= num
        np.fmax(np.fmin(t, 1.0, out=t), 0.0, out=t)
        t *= h
        t += w
        return t


def _tabulate_judged_law(model: SuperpopulationModel, k: int, times) -> _JudgedLaw:
    """The judged-rank law of ``model`` for k-sets on the panels of the
    scores of ``times``."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    try:
        float(k * math.comb(k - 1, (k - 1) // 2))  # the largest weight below
    except OverflowError:
        raise ParameterError(f"k = {k} is too large: the judged-rank weight "
                             f"k * C(k - 1, r) overflows a float") from None
    w_t = np.clip(_normal_isf(model.survival(np.asarray(times, dtype=float))), -8.0, 8.0)
    edges = np.union1d(_W_EDGES, w_t)
    w, half = _panel_nodes(edges)
    if k == 1:  # the one candidate is measured: the population law
        g = np.ones((1, *w.shape))
    else:
        cdf = model.score_cdf_at(w[..., None], _GH_Z)
        cdf = np.broadcast_to(cdf, (*w.shape, _GH_Z.size))  # noise-free or pure noise
        g = np.stack([
            (cdf**r * (1 - cdf) ** (k - 1 - r)) @ _GH_W * (k * math.comb(k - 1, r))
            for r in range(k)
        ])
    mass = g * _normal_pdf(w) * half[:, None]
    tail = np.cumsum((mass @ _GL_W)[:, ::-1], axis=1)[:, ::-1]  # from each panel on
    survival = tail[..., None] - mass @ _GL_CUM.T
    panel = np.searchsorted(edges, w_t)
    return _JudgedLaw(w, half, mass, survival, panel,
                      np.pad(tail, ((0, 0), (0, 1)))[:, panel])


@lru_cache(maxsize=32)
def _judged_law(model: SuperpopulationModel, k: int, times: tuple) -> _JudgedLaw:
    """``_tabulate_judged_law`` at the tuple ``times``, computed once per
    (model value, k, times) while among the 32 most recently read."""
    return _tabulate_judged_law(model, k, np.array(times, dtype=float))


def _judged_slots(model: SuperpopulationModel, k: int, size, proxies: RngStream):
    """Lifetimes, shape ``(*size, k)``, of judged slots 1..k of k-sets:
    slot r measures ``model.lifetime_at(w)`` with F_r(w) = U for one uniform
    U per slot, a ``(*size, k)`` block from ``proxies``, and F_r the slot's
    CDF in the judged-rank law tabulated for (model, k) on the fixed panels
    (``_JudgedLaw.scores``), so the draws do not depend on a cell's eval
    times.  The block is inverted in slices of whole k-sets of at most
    ``_INVERTED_AT_ONCE`` draws (one k-set if k is larger), which bounds the
    gathered tables of ``scores`` and changes no draw: each score depends
    on its uniform alone.  An uncalibrated AFT model raises on tabulation."""
    w = proxies.generator().random((*size, k)).reshape(-1, k)
    law = _judged_law(model, k, ())
    step = max(1, _INVERTED_AT_ONCE // k)
    for start in range(0, len(w), step):
        w[start:start + step] = law.scores(w[start:start + step])
    return model.lifetime_at(w).reshape(*size, k)


def judged_rank_survival(model: SuperpopulationModel, k: int, times) -> np.ndarray:
    """S_[r](t) for r = 1..k (rows) at each of ``times`` (columns): the
    survival of the unit measured in judged slot r of a k-set."""
    return _tabulate_judged_law(model, k, np.atleast_1d(times)).survival_at


def _judged_kernels(model, censoring: CensoringLaw, times, k: int) -> np.ndarray:
    """(k, times) per-rank kernels
    V_r(t) = S_[r](t)^2 int_0^t f_[r](u) / (S_[r](u)^2 K(u)) du."""
    law = _judged_law(model, k, tuple(times))
    n = law.panel.max(initial=0)
    cens = censoring.survival(model.lifetime_at(law.w[:n]))
    terms = (law.mass[:, :n] / (law.survival[:, :n] ** 2 * cens)) @ _GL_W
    integral = np.cumsum(np.pad(terms, ((0, 0), (1, 0))), axis=1)
    return law.survival_at**2 * integral[:, law.panel]


def asymptotic_km_variance(
    model: SuperpopulationModel,
    censoring: CensoringLaw,
    t,
    k: int = 1,
):
    """Per-observation asymptotic variance of the rank-averaged KM of k-sets
    at t (a time, or an array of times read from one tabulated law): the
    simple average of the k judged-rank kernels (``_judged_kernels``) under
    the model's ranking noise.  At k = 1 it is the SRS kernel of the
    population law, V(t) = S(t)^2 * int_0^t f(u) / (S(u)^2 K(u)) du."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    for u in times:
        _check_window(model, censoring, u)
    v = _judged_kernels(model, censoring, times, k).mean(axis=0)
    return float(v[0]) if np.ndim(t) == 0 else v
