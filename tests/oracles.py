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
