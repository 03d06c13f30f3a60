"""Statistical query requirements (paper Section III-D, Table IV).

MLPerf Inference sizes each run so the reported tail latency is
statistically meaningful: with confidence ``C`` the true tail-latency
percentile lies within ``margin`` of the measurement.  The paper fixes
``C = 99%`` and sets the margin to one-twentieth of the distance between
the tail-latency percentile and 100% (Equation 1), then derives the
required number of queries from the normal approximation to a binomial
proportion (Equation 2) - the same math as sizing an electoral poll.

Finally, the count is rounded up to the next multiple of 2^13 = 8192
(Table IV: 23,886 -> 24,576; 50,425 -> 57,344; 262,742 -> 270,336).

The inverse normal CDF is implemented from scratch (Acklam's rational
approximation, |relative error| < 1.15e-9) so the core library has no
scipy dependency; the test suite cross-checks it against scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Confidence level used throughout MLPerf Inference v0.5.
CONFIDENCE = 0.99

#: Query counts are rounded up to a multiple of 2^13.
QUERY_ROUNDING_UNIT = 2 ** 13


def inverse_normal_cdf(p: float) -> float:
    """Return ``z`` such that ``Phi(z) = p`` for the standard normal CDF.

    Uses Peter Acklam's rational approximation with one step of Halley's
    method refinement, giving near machine precision over (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")

    # Coefficients for the central and tail rational approximations.
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)

    p_low = 0.02425
    p_high = 1.0 - p_low

    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)

    # One Halley refinement using erfc for the residual.
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    x = x - u / (1.0 + x * u / 2.0)
    return x


def margin_for_tail_latency(tail_latency: float) -> float:
    """Equation 1: margin = (1 - TailLatency) / 20."""
    if not 0.0 < tail_latency < 1.0:
        raise ValueError(f"tail_latency must be in (0, 1), got {tail_latency}")
    return (1.0 - tail_latency) / 20.0


def queries_for_confidence(tail_latency: float) -> int:
    """Equation 2: the raw (unrounded) number of queries required.

    ``NumQueries = NormsInv((1-C)/2)^2 * p*(1-p) / margin^2`` where
    ``C`` is ``CONFIDENCE``, ``p`` the tail-latency percentile and
    ``margin`` Equation 1's.  The result is rounded to the nearest
    integer, matching Table IV exactly (the 95th-percentile row is
    50,425 = round(50,425.2), not ceil).
    """
    margin = margin_for_tail_latency(tail_latency)
    z = inverse_normal_cdf((1.0 - CONFIDENCE) / 2.0)
    raw = (z * z) * tail_latency * (1.0 - tail_latency) / (margin * margin)
    return int(round(raw))


def round_up_to_unit(count: int) -> int:
    """Round ``count`` up to the nearest multiple of
    ``QUERY_ROUNDING_UNIT``."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    unit = QUERY_ROUNDING_UNIT
    return ((count + unit - 1) // unit) * unit


def required_queries(tail_latency: float) -> int:
    """Full Table IV pipeline: Eq. 1 margin, Eq. 2 count, 2^13 round-up."""
    return round_up_to_unit(queries_for_confidence(tail_latency))


@dataclass(frozen=True)
class QueryRequirement:
    """One row of Table IV."""

    tail_latency: float
    confidence: float
    margin: float
    inferences: int
    rounded_inferences: int

    @classmethod
    def for_percentile(cls, tail_latency: float) -> "QueryRequirement":
        raw = queries_for_confidence(tail_latency)
        return cls(
            tail_latency=tail_latency,
            confidence=CONFIDENCE,
            margin=margin_for_tail_latency(tail_latency),
            inferences=raw,
            rounded_inferences=round_up_to_unit(raw),
        )


def table_iv() -> list:
    """Reproduce Table IV: requirements at the 90th/95th/99th percentiles."""
    return [QueryRequirement.for_percentile(p) for p in (0.90, 0.95, 0.99)]


def percentiles(values, pcts) -> list:
    """Nearest-rank percentiles of ``values``, one per entry of ``pcts``.

    The p-th percentile is the smallest value such that at least ``p`` of
    the observations are <= that value (nearest-rank definition, which is
    what a latency SLO check needs: no interpolation between samples).
    One sort serves every rank, which is what a p50 / p90 / p99 summary
    of a 270,336-query run wants.
    """
    for pct in pcts:
        if not 0.0 < pct <= 1.0:
            raise ValueError(f"pct must be in (0, 1], got {pct}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take a percentile of no values")
    return [ordered[math.ceil(pct * len(ordered)) - 1] for pct in pcts]


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile as used for MLPerf latency reporting
    (see :func:`percentiles`)."""
    return percentiles(values, (pct,))[0]
