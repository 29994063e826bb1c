"""Closed-form reference laws that the tests compare the package against."""

import math

from rsskm import ParameterError


def order_statistic_survival(s, k: int, r: int, t: float) -> float:
    """P(X_(r) > t) for the r-th smallest of k iid draws from survival s.

    ``s`` is either a survival value in [0,1] or a callable S(t).
    """
    if not 1 <= r <= k:
        raise ParameterError(f"rank r={r} out of range 1..{k}")
    sv = float(s(t)) if callable(s) else float(s)
    return math.fsum(math.comb(k, i) * (1 - sv) ** i * sv ** (k - i) for i in range(r))


def exponential_km_variance(rate: float, censoring_rate: float, t: float) -> float:
    """Asymptotic per-observation KM variance at t of Exp(rate) lifetimes
    under Exp(censoring_rate) censoring (0 for none):

        V(t) = S(t)^2 * rate * (e^{(rate + c) t} - 1) / (rate + c),

    with S(t) = e^{-rate t} and c the censoring rate."""
    total = rate + censoring_rate
    return math.exp(-2 * rate * t) * rate * math.expm1(total * t) / total
