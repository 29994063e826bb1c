"""Reference laws and implementations that the tests compare the package
against: closed forms, written-out definitions and earlier versions."""

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from rsskm import InvalidObservationError, ParameterError, RankedSetSample
from rsskm.config import undecodable_line

# observation CSV rows converted per block by ``read_observations``
_BLOCK_ROWS = 4096


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


def weighted_product_limit(times, events, weights, t):
    """The law reference of the multiplier bootstrap: one sample's
    product-limit curve at times ``t`` under per-unit weights, written out
    from the definition.  ``weights`` is ``(..., n)``, one weight per unit
    of the n ``times``, for any number of leading (replicate) axes.  At each
    death time u, R* = sum w I(Y >= u) and dN* = sum w I(Y = u, death);
    S*(t) is the product over u <= t of 1 - dN*/R*, and 0 from the first u
    with R* <= 0 on.  Returns S* as ``(..., t.size)``."""
    times, events = np.asarray(times, dtype=float), np.asarray(events, dtype=bool)
    weights, t = np.asarray(weights, dtype=float), np.asarray(t, dtype=float)
    u = np.unique(times[events])
    r_star = weights @ (times[:, None] >= u).astype(float)
    dn_star = weights @ ((times[:, None] == u) & events[:, None]).astype(float)
    gone = r_star <= 0
    factor = np.where(gone, 0.0, 1.0 - dn_star / np.where(gone, 1.0, r_star))
    surv = np.cumprod(factor, axis=-1)
    before = np.ones(surv.shape[:-1] + (1,))
    return np.concatenate([before, surv], axis=-1)[..., np.searchsorted(u, t, side="right")]


def tie_free_fit(times, events):
    """The unweighted product-limit fit of a tie-free ``(..., m)`` block as
    ``ProductLimit`` computed it before every fit took R and dN as counts,
    its formulas verbatim: S-hat the running product of the factors
    1 - 1/(m - j) at the deaths, the Greenwood sum adding
    1/((m - j)(m - j - 1)) at each death before the last position, R = m - j
    and dN = 1 at a death (R = 1, dN = 0 elsewhere) built on read, and
    ``exhausted_at`` the last time where the last unit died.  Each row is
    sorted by time, a -0.0 read as 0.0.  Returns the sorted times and the
    outputs by ``ProductLimit`` attribute name."""
    times, events = np.asarray(times, dtype=float), np.asarray(events, dtype=bool)
    order = np.argsort(times, axis=-1, kind="stable")
    times = np.take_along_axis(times, order, axis=-1) + 0.0  # -0.0 + 0.0 is 0.0
    events = np.take_along_axis(events, order, axis=-1)
    m = times.shape[-1]
    factor = 1.0 - 1.0 / (m - np.arange(m, dtype=float))
    survival = np.cumprod(np.where(events, factor, 1.0), axis=-1)
    at_risk = np.where(events, m - np.arange(m), 1.0)
    deaths = events.astype(float)
    # R = m - j, dN = 1 at each death; 0 at j = m - 1, where the whole risk
    # set dies
    r = m - np.arange(m - 1, dtype=float)
    terms = np.where(events, np.r_[1.0 / (r * (r - 1.0)), 0.0], 0.0)
    greenwood_sum = np.cumsum(terms, axis=-1)
    safe_at_risk = np.where(at_risk <= 0, 1.0, at_risk)
    return times, {
        "survival": survival,
        "greenwood_var": survival**2 * greenwood_sum,
        "cum_hazard": np.cumsum(deaths / safe_at_risk, axis=-1),
        "hazard_var": np.cumsum(deaths / safe_at_risk**2, axis=-1),
        "at_risk": at_risk,
        "deaths": deaths,
        "exhausted_at": np.where(events[..., -1], times[..., -1], np.inf),
    }


@dataclass(frozen=True)
class MultiplierLaw:
    """The multiplier weight law of rsskm before its three kinds became one
    gamma shape s (``bootstrap._weight_sums``): "unit-exponential" is s = 1,
    "gamma" with shape s is s, and "degenerate-one" is s = inf.
    ``draw_sums`` is verbatim; the argument checks are left out."""

    kind: str = "unit-exponential"
    gamma_shape: float = 1.0

    @classmethod
    def of_shape(cls, shape: float) -> "MultiplierLaw":
        """The old law that draws as weights of gamma shape ``shape``."""
        if shape == 1.0:
            return cls()
        return cls("degenerate-one") if shape == math.inf else cls("gamma", shape)

    def draw_sums(self, gen: np.random.Generator, counts) -> np.ndarray:
        """The total of n iid weights per entry n of ``counts``: Gamma(n) for
        unit-exponential, Gamma(n s) / s for gamma(s), n for degenerate-one.
        A count of 0 draws nothing; a count of 1 draws as standard_exponential."""
        counts = np.asarray(counts, dtype=float)
        if self.kind == "unit-exponential":
            if np.all(counts == 1.0):  # the same draws, by a faster numpy path
                return gen.standard_exponential(counts.shape)
            return gen.standard_gamma(counts)
        if self.kind == "gamma":
            return gen.standard_gamma(counts * self.gamma_shape) / self.gamma_shape
        return counts.copy()


def judged_slot_scores(law, u):
    """The slot inversion of a tabulated judged-rank law (``models._JudgedLaw``)
    as it was before the bucket index: the keys u + r - 1 argsorted, searched
    in sorted order in the shifted CDF array and scattered back, clipped to
    each slot's row, then three Newton steps from the secant on the
    interval's cubic, written as expressions.  Returns the intervals and the
    scores."""
    shifted = law._inverse[0]
    k = len(law.mass)
    n = shifted.size // k
    keys = u + np.arange(k)
    order = np.argsort(keys, axis=None)
    point = np.empty(keys.shape, dtype=np.intp)
    point.reshape(-1)[order] = np.searchsorted(shifted, keys.reshape(-1)[order],
                                               side="right") - 1
    first = np.arange(k) * n
    # u + r - 1 rounds to r, the start of the next row, at u just below 1
    point = np.clip(point, first, first + n - 2)
    w, h, f, c1, c2, c3 = law._inverse[1][:6].take(point, axis=1)
    y = u - f
    with np.errstate(divide="ignore", invalid="ignore"):  # zero slope at w = -8
        t = y / (c1 + c2 + c3)
        for _ in range(3):
            t -= (((c3 * t + c2) * t + c1) * t - y) / ((3 * c3 * t + 2 * c2) * t + c1)
    return point, w + h * np.fmax(np.fmin(t, 1.0), 0.0)


# The observation reader as it was before it converted blocks with numpy's C
# reader: every row through csv and float, in blocks of ``_BLOCK_ROWS`` records.


def read_observations(path: str) -> RankedSetSample:
    """Load a UTF-8 (cycle, rank, time, event) CSV, with or without a
    byte-order mark, into a balanced sample; rows may come in any order, and
    each (rank, cycle) pair must occur exactly once.  Blank lines are
    skipped; errors name the line of the first bad row, undecodable byte or
    oversized field.  Rows are converted in blocks, so only one block's
    strings are held."""
    names = ("rank", "cycle", "time", "event")
    columns = [[np.empty(0)] for _ in names]
    lines = [np.empty(0, dtype=int)]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or not set(names) <= set(header):
                raise InvalidObservationError(
                    f"{path}: header must contain columns {sorted(names)}"
                )
            index = [header.index(name) for name in names]
            records = ((reader.line_num, row) for row in reader if row)
            while block := list(itertools.islice(records, _BLOCK_ROWS)):
                for column, values in zip(columns, _block_columns(path, block, index, names)):
                    column.append(values)
                lines.append(np.array([lineno for lineno, _ in block]))
        except UnicodeDecodeError as exc:
            raise InvalidObservationError(
                f"{path}: line {undecodable_line(path)}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise InvalidObservationError(f"{path}: line {reader.line_num}: {exc}") from None
    return RankedSetSample.from_columns(*map(np.concatenate, columns),
                                        lines=np.concatenate(lines))


def _block_columns(path, block, index, names) -> list[np.ndarray]:
    """The named columns of a block of (line, row) records as float arrays."""
    try:
        fields = list(zip(*(row for _, row in block)))
        return [np.array(fields[i], dtype=float) for i in index]
    except (IndexError, ValueError):
        for lineno, row in block:  # name the first short or non-numeric row
            try:
                [float(row[i]) for i in index]
            except (IndexError, ValueError):
                raise InvalidObservationError(
                    f"{path}: line {lineno}: columns {', '.join(names)} must hold "
                    f"numbers, got {row}") from None
        raise
