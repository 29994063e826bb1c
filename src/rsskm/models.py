"""Superpopulation laws, order statistics, the judged-rank law of the
sampler, concomitant calibration, censoring construction, and asymptotic KM
variance kernels.

Two generative families are supported:

* lognormal accelerated-lifetime model with a noisy log-scale ranking
  concomitant, and
* Weibull (exponential at shape 1) lifetimes with an additive-noise
  ranking concomitant whose noise variance follows the closed-form
  relation sigma^2 = Var(X) * (rho^-2 - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e, legendre
from scipy.interpolate import CubicSpline
from scipy.special import gamma as gamma_fn
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

from .sampling import RngStream
from .survival import ParameterError


class CalibrationError(ValueError):
    pass


class InferenceWindowError(ValueError):
    pass


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
        return math.exp(self.mu + self.log_sd**2 / 2)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            z = (np.log(t) - self.mu) / self.log_sd
        return np.where(t <= 0, 1.0, norm.sf(z))

    def quantile(self, level: float) -> float:
        """Time t with S(t) = level (closed-form lognormal inversion)."""
        if not 0.0 < level < 1.0:
            raise ParameterError(f"survival level must be in (0,1), got {level}")
        return math.exp(self.mu + self.log_sd * norm.isf(level))

    def draw_lifetimes(self, gen: np.random.Generator, size):
        return np.exp(self.mu + self.log_sd * gen.standard_normal(size))

    def ranking_scores(self, x, gen: np.random.Generator):
        if self.sigma_u is None:
            raise ParameterError("uncalibrated model: sigma_u is not set")
        noise = gen.standard_normal(np.shape(x))
        if not math.isfinite(self.sigma_u):
            return noise
        return np.log(x) + self.sigma_u * noise

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
        if self.shape_nu <= 0 or self.scale_theta1 <= 0:
            raise ParameterError("shape and scale must be positive")
        if self.sigma_z < 0:
            raise ParameterError("sigma_z must be nonnegative")

    @property
    def mean_lifetime(self) -> float:
        return self.scale_theta1 * gamma_fn(1 + 1 / self.shape_nu)

    @property
    def lifetime_variance(self) -> float:
        g1 = gamma_fn(1 + 1 / self.shape_nu)
        g2 = gamma_fn(1 + 2 / self.shape_nu)
        return self.scale_theta1**2 * (g2 - g1**2)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        return np.where(t <= 0, 1.0, np.exp(-((np.maximum(t, 0) / self.scale_theta1) ** self.shape_nu)))

    def quantile(self, level: float) -> float:
        if not 0.0 < level < 1.0:
            raise ParameterError(f"survival level must be in (0,1), got {level}")
        return self.scale_theta1 * (-math.log(level)) ** (1 / self.shape_nu)

    def draw_lifetimes(self, gen: np.random.Generator, size):
        return self.scale_theta1 * gen.weibull(self.shape_nu, size)

    def ranking_scores(self, x, gen: np.random.Generator):
        noise = gen.standard_normal(np.shape(x))
        if not math.isfinite(self.sigma_z):
            return noise
        return x + self.sigma_z * noise

    def lifetime_at(self, w):
        """Lifetime at normal score w, i.e. with F(x) = Phi(w)."""
        return self.scale_theta1 * (-log_ndtr(-w)) ** (1 / self.shape_nu)

    def score_cdf_at(self, w, z):
        """Score CDF F_V(x + sigma_z * z) at the lifetime x of score w, with
        F_V(v) = E Phi((v - X) / sigma_z) tabulated at 2000 points of v and
        read through a cubic spline."""
        sigma = self.sigma_z
        if sigma == 0 or not math.isfinite(sigma):
            return ndtr(w if sigma == 0 else z)
        u, half = _panel_nodes(_W_EDGES)
        x = self.lifetime_at(u).ravel()
        dF = (half[:, None] * _GL_W * norm.pdf(u)).ravel()
        v = np.linspace(-8 * sigma, x.max() + 8 * sigma, 2000)
        cdf = np.concatenate(
            [ndtr((part[:, None] - x) / sigma) @ dF for part in np.array_split(v, 8)])
        return CubicSpline(v, cdf)(np.clip(self.lifetime_at(w) + sigma * z, v[0], v[-1]))


SuperpopulationModel = AftModel | WeibullModel


def population_survival(model: SuperpopulationModel, t: float) -> float:
    """S(t) = P(X > t) from the analytic law."""
    if t < 0:
        raise ParameterError(f"negative time: {t}")
    return float(model.survival(t))


# --------------------------------------------------------------------------
# censoring


@dataclass(frozen=True)
class CensoringLaw:
    """Independent censoring: none, Exp(rate), or Weibull(shape, scale)."""

    kind: str  # "none" | "exponential-rate" | "weibull-scale"
    parameter: float = 0.0
    shape: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "exponential-rate", "weibull-scale"):
            raise ParameterError(f"unknown censoring kind: {self.kind}")
        if self.kind != "none" and self.parameter <= 0:
            raise ParameterError("censoring parameter must be positive")

    def draw(self, gen: np.random.Generator, size):
        if self.kind == "none":
            return np.full(size, np.inf)
        if self.kind == "exponential-rate":
            return gen.exponential(1.0 / self.parameter, size)
        return self.parameter * gen.weibull(self.shape, size)

    def survival(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "none":
            return np.ones_like(t)
        if self.kind == "exponential-rate":
            return np.exp(-self.parameter * np.maximum(t, 0))
        return np.exp(-((np.maximum(t, 0) / self.parameter) ** self.shape))


def censoring_for_fraction(model: SuperpopulationModel, p_cens: float) -> CensoringLaw:
    """Censoring law targeting fraction ``p_cens``.

    AFT: C ~ Exp(rate = -log(1-p)/E[X]).  Weibull: same-shape Weibull with
    scale theta2 = theta1 * ((1-p)/p)^(1/nu), which censors exactly fraction
    p for Weibull lifetimes.  p = 0 means no censoring.
    """
    if not 0.0 <= p_cens < 1.0:
        raise ParameterError(f"censoring fraction must be in [0,1), got {p_cens}")
    if p_cens == 0.0:
        return CensoringLaw("none")
    if isinstance(model, WeibullModel):
        theta2 = model.scale_theta1 * ((1 - p_cens) / p_cens) ** (1 / model.shape_nu)
        return CensoringLaw("weibull-scale", theta2, shape=model.shape_nu)
    rate = -math.log(1 - p_cens) / model.mean_lifetime
    return CensoringLaw("exponential-rate", rate)


# --------------------------------------------------------------------------
# order statistics and the simulated judged-rank mixing matrix


def order_statistic_survival(s, k: int, r: int, t: float) -> float:
    """P(X_(r) > t) for the r-th smallest of k iid draws from survival s.

    ``s`` is either a survival value in [0,1] or a callable S(t).
    """
    if not 1 <= r <= k:
        raise ParameterError(f"rank r={r} out of range 1..{k}")
    sv = float(s(t)) if callable(s) else float(s)
    return math.fsum(math.comb(k, i) * (1 - sv) ** i * sv ** (k - i) for i in range(r))


@dataclass(frozen=True)
class MixingMatrix:
    """w[r-1][j-1] = P(true rank j | judged rank r), estimated by simulation.

    Rows sum to 1 exactly by construction; column sums are 1 up to MC error
    under the balanced design.  ``n_sets`` is the number of simulated
    candidate sets behind each row.
    """

    k: int
    w: np.ndarray
    n_sets: int

    def __post_init__(self):
        if self.w.shape != (self.k, self.k):
            raise ParameterError(f"mixing matrix must be {self.k}x{self.k}")
        if not np.all(np.isfinite(self.w)):
            raise ParameterError("mixing matrix entries must be finite")
        if np.any(self.w < 0) or np.any(np.abs(self.w.sum(axis=1) - 1) > 1e-9):
            raise ParameterError("mixing matrix rows must be stochastic")

    def entry_se(self) -> np.ndarray:
        """Per-entry binomial MC standard error."""
        return np.sqrt(self.w * (1 - self.w) / self.n_sets)

    @classmethod
    def identity(cls, k: int) -> "MixingMatrix":
        return cls(k, np.eye(k), n_sets=0)


def estimate_mixing_matrix(
    model: SuperpopulationModel, k: int, n_sets: int, rng: RngStream
) -> MixingMatrix:
    """Simulate candidate sets of size k, rank them by proxy and by true
    lifetime, and tally P(true rank | judged rank)."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    if n_sets < 1:
        raise ParameterError(f"n_sets must be >= 1, got {n_sets}")
    gen_x = rng.child(0).generator()
    gen_p = rng.child(1).generator()
    w = np.zeros((k, k))
    chunk = 200_000
    done = 0
    while done < n_sets:
        b = min(chunk, n_sets - done)
        x = model.draw_lifetimes(gen_x, (b, k))
        scores = model.ranking_scores(x, gen_p)
        judged = np.argsort(np.argsort(scores, axis=1, kind="stable"), axis=1)
        true = np.argsort(np.argsort(x, axis=1, kind="stable"), axis=1)
        # each set contributes its full judged->true rank permutation
        np.add.at(w, (judged.ravel(), true.ravel()), 1.0)
        done += b
    return MixingMatrix(k, w / n_sets, n_sets)


def mixture_survival(mixing: MixingMatrix, s_pop: float, r: int) -> float:
    """Judged-rank-r survival value: sum_j w[r][j] * S_[j]."""
    k = mixing.k
    return float(
        sum(mixing.w[r - 1, j - 1] * order_statistic_survival(s_pop, k, j, 0.0)
            for j in range(1, k + 1))
    )


# --------------------------------------------------------------------------
# concomitant calibration (AFT)


def aft_rho_ceiling(model: AftModel) -> float:
    """Largest attainable |corr(score, X)| (noiseless log-scale score):
    s / sqrt(e^{s^2} - 1) with s the log-lifetime standard deviation."""
    s = model.log_sd
    return s / math.sqrt(math.expm1(s**2))


def aft_score_correlation(model: AftModel, sigma_u: float) -> float:
    """Exact |corr(log X + sigma_u * N(0,1), X)| for lognormal X:

        corr(sigma) = s^2 / (sqrt(s^2 + sigma^2) * sqrt(e^{s^2} - 1)),

    with s the log-lifetime standard deviation; corr(0) is the ceiling."""
    s = model.log_sd
    return s**2 / (math.hypot(s, sigma_u) * math.sqrt(math.expm1(s**2)))


def calibrate_aft_concomitant(
    model: AftModel,
    rho_target: float,
    saturate: bool = True,
    saturation_margin: float = 0.032,
) -> float:
    """Noise level sigma_u with |corr(score, X)| = rho_target, by exact
    inversion of ``aft_score_correlation`` (no simulation; the lognormal
    family admits a closed form, and MC correlation estimates are far too
    heavy-tailed to calibrate against).

    The correlation with the lifetime has a ceiling well below 1; targets
    above it cannot be met.  With ``saturate=True`` (default) such targets
    fall back to the best-effort level solving
    corr = ceiling * (1 - saturation_margin); all past-ceiling targets
    therefore share one noise level, which is how the reference efficiency
    tables behave (the margin is tuned against them).  With
    ``saturate=False`` a CalibrationError reports the ceiling instead.
    """
    if not 0.0 < rho_target <= 1.0:
        raise ParameterError(f"rho_target must be in (0,1], got {rho_target}")
    ceiling = aft_rho_ceiling(model)
    cap = ceiling * (1.0 - saturation_margin)
    target = rho_target
    if rho_target > cap:
        if not saturate and rho_target > ceiling:
            raise CalibrationError(
                f"rho_target={rho_target} unreachable: ceiling |corr| = {ceiling:.4f}"
            )
        target = cap
    s = model.log_sd
    return s * math.sqrt((ceiling / target) ** 2 - 1.0)


def dell_clutter_sigma(var_x: float, rho: float) -> float:
    """Additive ranking-noise variance var_x * (rho^-2 - 1) that makes the
    noisy concomitant X + Z correlate with X at level rho."""
    if var_x <= 0:
        raise ParameterError("var_x must be positive")
    if not 0.0 < rho <= 1.0:
        raise ParameterError(f"rho must be in (0,1], got {rho}")
    return var_x * (rho**-2 - 1.0)


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


def _panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes (panels, 16) and half-widths of the panels."""
    half = np.diff(edges) / 2
    return (edges[:-1] + half)[:, None] + half[:, None] * _GL_X, half


def _judged_law(model: SuperpopulationModel, k: int, times):
    """Law of each judged slot r = 1..k on panels whose edges include the
    scores w of ``times``: the (panels, 16) nodes, per rank the mass and S_[r]
    at the nodes, the panel starting at each time, and (k, times) S_[r]."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    w_t = np.clip(norm.isf(model.survival(np.asarray(times, dtype=float))), -8.0, 8.0)
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
    mass = g * norm.pdf(w) * half[:, None]
    tail = np.cumsum((mass @ _GL_W)[:, ::-1], axis=1)[:, ::-1]  # from each panel on
    survival = tail[..., None] - mass @ _GL_CUM.T
    panel = np.searchsorted(edges, w_t)
    return w, mass, survival, panel, np.pad(tail, ((0, 0), (0, 1)))[:, panel]


def judged_rank_survival(model: SuperpopulationModel, k: int, times) -> np.ndarray:
    """S_[r](t) for r = 1..k (rows) at each of ``times`` (columns): the
    survival of the unit measured in judged slot r of a k-set."""
    return _judged_law(model, k, np.atleast_1d(times))[-1]


def _judged_kernels(model, censoring: CensoringLaw, times, k: int) -> np.ndarray:
    """(k, times) per-rank kernels
    V_r(t) = S_[r](t)^2 int_0^t f_[r](u) / (S_[r](u)^2 K(u)) du."""
    w, mass, survival, panel, survival_at = _judged_law(model, k, times)
    n = panel.max(initial=0)
    cens = censoring.survival(model.lifetime_at(w[:n]))
    terms = (mass[:, :n] / (survival[:, :n] ** 2 * cens)) @ _GL_W
    integral = np.cumsum(np.pad(terms, ((0, 0), (1, 0))), axis=1)
    return survival_at**2 * integral[:, panel]


def _is_exponential(model, censoring: CensoringLaw) -> bool:
    return (isinstance(model, WeibullModel) and model.shape_nu == 1.0
            and (censoring.kind != "weibull-scale" or censoring.shape == 1.0))


def _censoring_rate(censoring: CensoringLaw) -> float:
    if censoring.kind == "none":
        return 0.0
    if censoring.kind == "exponential-rate":
        return censoring.parameter
    return 1.0 / censoring.parameter  # exponential written as weibull scale


def asymptotic_km_variance(
    model: SuperpopulationModel,
    censoring: CensoringLaw,
    t: float,
    rank: int | None = None,
    k: int | None = None,
    method: str = "auto",
) -> float:
    """Per-observation asymptotic KM variance kernel at s = t:

        V(t) = S(t)^2 * int_0^t f(u) / (S(u)^2 K(u)) du,

    with (S, f) the population law, or with ``rank=r, k=k`` the law of the
    unit measured in judged slot r of a k-set under the model's ranking
    noise (the r-th order statistic when the noise is zero).

    ``method`` applies to the population law: "closed" (exponential case
    and the no-censoring collapse only), "quadrature" (the quadrature of the
    judged-rank kernels at k = 1), or "auto".
    """
    _check_window(model, censoring, t)
    if rank is None:
        s = float(model.survival(t))
        if censoring.kind == "none" and method == "closed":
            return s * (1.0 - s)
        if method in ("closed", "auto") and _is_exponential(model, censoring):
            lam = 1.0 / model.scale_theta1
            c = _censoring_rate(censoring)
            return s**2 * lam * math.expm1((lam + c) * t) / (lam + c)
        if method == "closed":
            raise ParameterError("no closed form for this configuration")
        rank, k = 1, 1
    elif k is None:
        raise ParameterError("k required for rank-specific laws")
    if not 1 <= rank <= k:
        raise ParameterError(f"rank r={rank} out of range 1..{k}")
    return float(_judged_kernels(model, censoring, [t], k)[rank - 1, 0])


def asymptotic_rss_km_variance(
    model: SuperpopulationModel,
    censoring: CensoringLaw,
    t,
    k: int,
):
    """Per-observation variance of the rank-averaged KM at t (a time, or an
    array of times read from one tabulated law): the simple average of the
    k judged-rank kernels under the model's ranking noise."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    for u in times:
        _check_window(model, censoring, u)
    v = _judged_kernels(model, censoring, times, k).mean(axis=0)
    return float(v[0]) if np.ndim(t) == 0 else v
