"""Series constants of the deletion-channel capacity expansion.

The binary deletion channel with deletion probability ``d`` has capacity

    C(d) = 1 + d*log2(d) - A1*d + A2*d**2 + O(d**(3-eps))   for small d,

where ``A1`` and ``A2`` are absolute constants assembled from
geometric-weighted series.  This module computes every such constant by
direct summation with a *certified* truncation bound, evaluates the
expansion ``capacity_estimate``, and provides the binary and plug-in
entropy functions used throughout the toolkit and the argument rules
(deletion probability intervals, integer sizes and seeds) that every
public entry point applies before any work.

Defining series (logs: ``ln`` natural, ``log2`` base two)::

    c2  = sum_{l>=1} 2^-l * l * ln(l)                              [nats]
    c3  = ( -1 + sum_{l>=3} 2^-l * ( C(l,2)*log2(C(l,2))
             - l^2*log2(l) + (l-1)(l-3)*log2(l-1)
             + (l-2)*log2(l-2) ) ) / 2                             [bits]
    c4  = sum_{j>=4} 2^-(2+j) (j-1)(j-3) h(1/(j-1))
          + sum_{i>=2} sum_{j>=4} 2^-(i+j+1) (i+j-1)(j-3)
                                   h((i+1)/(i+j-1))                [bits]
    c5  = (ln 2 / 4) * sum_{l>=1} l (l-3) 2^-l log2(l)
    A1  = log2(2e) - sum_{l>=1} 2^-(l+1) * l * log2(l)
        = log2(2e) - c2 / (2 ln 2)          (two independent routes)
    A2  = c3 + c4 + (2 + (3/2) c2^2 + Sa - c2*Sb) / (4 ln 2)
    A2' = 2 c5^2 / ln 2 + c3 + c4 + 1/(2 ln 2)

with the auxiliary sums ``Sa = sum 2^-l (l ln l)^2`` and
``Sb = sum 2^-l l^2 ln l`` and ``h`` the binary entropy in bits.

Truncation-bound soundness.  Every series has terms of the form
``2^-l * g(l)`` with ``g`` dominated by ``kappa * l^a * (ln l)^b``.
For ``l = L + k`` (k >= 1, L >= 8)::

    (L+k)^a <= L^a * e^(k*a/L)          (since 1 + k/L <= e^(k/L))
    ln(L+k) <= ln(L) * (1 + k/L) <= ln(L) * e^(k/L)   (L >= 3)

so ``g(L+k) <= g(L) * e^(k*(a+b)/L)`` and the tail beyond ``L`` is at
most ``2^-L * g(L) * rho/(1-rho)`` with ``rho = e^((a+b)/L) / 2 < 1``.
The double sum in ``c4`` is truncated by shells ``s = i + j`` with the
product majorant ``|term| <= 2^-(s+1) * s^3`` (using ``h <= 1``), whose
tail obeys the same geometric bound.  Every partial sum is the correctly
rounded ``math.fsum``; results are cached per tolerance.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesConstants",
    "binary_entropy",
    "compute_constants",
    "capacity_estimate",
    "DEFAULT_TOL",
    "LN2",
]

LN2 = math.log(2.0)

#: Truncation tolerance of the constants every other module reads, and of
#: ``compute_constants()`` without an argument.
DEFAULT_TOL = 1e-12


# --- argument rules, applied before any work; ``nan`` fails every interval ---


def _check_d_closed(d: float) -> None:
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"deletion probability must be in [0, 1], got {d!r}")


def _check_d_half_open(d: float) -> None:
    if not 0.0 <= d < 1.0:
        raise ValueError(f"deletion probability must be in [0, 1), got {d!r}")


def _check_d_open(d: float) -> None:
    if not 0.0 < d < 1.0:
        raise ValueError(f"deletion probability must be in (0, 1), got {d!r}")


def _check_int(name: str, value, minimum: int) -> int:
    """The rule of every size and seed: ``value`` as an ``int``, ``TypeError``
    naming ``name`` unless it is an integer, ``ValueError`` below ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


# Propagation factor: assembled constants (A1, A2, A2') are smooth
# functions of the raw series values with total first-order sensitivity
# below 8 (worst case A2': |4 c5/ln2| + 2 < 6).  Each raw series is
# therefore truncated to tol/8 so every reported constant is within tol.
_PROPAGATION = 8.0


@dataclass(frozen=True)
class SeriesConstants:
    """All series constants of the capacity expansion.

    Units: ``c2`` is a nats-weighted sum; ``c5`` is dimensionless;
    everything else is in bits.  ``truncation_error_bound`` is a sound
    upper bound on the truncation error of every field.
    """

    c2: float
    c3: float
    c4: float
    c5: float
    A1: float
    A2: float
    A2_prime: float
    truncation_error_bound: float


def binary_entropy(p: float) -> float:
    """Binary entropy ``h(p) = -p log2 p - (1-p) log2 (1-p)`` in bits.

    Uses the convention ``0 * log 0 = 0``.  Raises ``ValueError`` for
    ``p`` outside ``[0, 1]``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary_entropy requires 0 <= p <= 1, got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _entropy_bits(p: np.ndarray) -> float:
    """Plug-in entropy ``-sum p log2 p`` (bits) over the entries ``> 0``,
    taken as ``0.0 - sum``: an input with no positive entry gives ``+0.0``,
    not ``-0.0``, and every other value keeps its bits."""
    p = p[p > 0.0]
    return float(0.0 - np.sum(p * np.log2(p)))


def _tail_bound(L: int, kappa: float, a: int, b: int) -> float:
    """Upper bound on ``sum_{l>L} 2^-l * kappa * l^a * (ln l)^b`` (L >= 8)."""
    deg = a + b
    rho = math.exp(deg / L) / 2.0
    if rho >= 1.0:
        return math.inf
    g_L = kappa * L**a * math.log(L) ** b
    return 2.0**-L * g_L * rho / (1.0 - rho)


def _choose_L(tol: float, kappa: float, a: int, b: int) -> int:
    """Smallest truncation index ``>= 8`` whose tail majorant is below ``tol``."""
    L = 8
    while _tail_bound(L, kappa, a, b) >= tol:
        L += 1
        if L > 100_000:  # pragma: no cover - unreachable for sane tol
            raise AssertionError("truncation index search did not converge")
    return L


# --- raw series partial sums -------------------------------------------------
# Each function sums its series up to the given index; the dominating
# majorant (kappa, a, b) used to certify the tail is noted alongside.


def _c2_sum(L: int) -> float:
    # |term| * 2^l = l ln l            -> kappa=1, a=1, b=1
    return math.fsum(2.0**-l * l * math.log(l) for l in range(2, L + 1))


def _a1_series_sum(L: int) -> float:
    # direct route: sum 2^-(l+1) l log2 l;  majorant kappa=1/(2 ln2), a=1, b=1
    return math.fsum(2.0 ** -(l + 1) * l * math.log2(l) for l in range(2, L + 1))


def _c3_bracket(l: int) -> float:
    half = l * (l - 1) / 2.0
    t = half * math.log2(half) - l * l * math.log2(l)
    t += (l - 1) * (l - 3) * math.log2(l - 1)
    if l > 3:
        t += (l - 2) * math.log2(l - 2)
    return t


def _c3_sum(L: int) -> float:
    # |bracket| <= 8 l^2 log2 l for l >= 3 -> kappa=8/ln2, a=2, b=1
    s = math.fsum(2.0**-l * _c3_bracket(l) for l in range(3, L + 1))
    return (-1.0 + s) / 2.0


def _c4a_sum(J: int) -> float:
    # |term| * 2^(2+j) = (j-1)(j-3) h(1/(j-1)) <= j^2 -> kappa=4, a=2, b=0
    return math.fsum(
        2.0 ** -(2 + j) * (j - 1) * (j - 3) * binary_entropy(1.0 / (j - 1))
        for j in range(4, J + 1)
    )


def _c4b_sum(S: int) -> float:
    # shell s = i+j: |term| <= 2^-(s+1) * s * s^2 -> kappa=1, a=3, b=0
    def shells():
        for s in range(6, S + 1):
            for i in range(2, s - 3):
                j = s - i  # >= 4, as i <= s - 4
                yield (
                    2.0 ** -(s + 1)
                    * (s - 1)
                    * (j - 3)
                    * binary_entropy((i + 1) / (s - 1))
                )

    return math.fsum(shells())


def _sa_sum(L: int) -> float:
    # (l ln l)^2 -> kappa=1, a=2, b=2
    return math.fsum(2.0**-l * (l * math.log(l)) ** 2 for l in range(2, L + 1))


def _sb_sum(L: int) -> float:
    # l^2 ln l -> kappa=1, a=2, b=1
    return math.fsum(2.0**-l * l * l * math.log(l) for l in range(2, L + 1))


def _c5_sum(L: int) -> float:
    # l|l-3| log2 l <= l^2 log2 l -> kappa=1/ln2, a=2, b=1
    return (LN2 / 4.0) * math.fsum(
        2.0**-l * l * (l - 3) * math.log2(l) for l in range(2, L + 1)
    )


_cache: dict[float, SeriesConstants] = {}


def compute_constants(tol: float = DEFAULT_TOL) -> SeriesConstants:
    """Compute all series constants with truncation error certified below ``tol``.

    Every constant is obtained by summing its defining series to an index
    at which the geometric-tail majorant (module docstring) drops below
    ``tol / 8``; the factor 8 covers error propagation into the assembled
    constants.  Without an argument it returns the ``DEFAULT_TOL``
    constants that the rest of the package uses.  Results are cached per
    tolerance.  Raises ``ValueError`` if ``tol <= 0``.
    """
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    cached = _cache.get(tol)
    if cached is not None:
        return cached

    t = tol / _PROPAGATION
    bounds = []

    def pick(kappa: float, a: int, b: int) -> int:
        L = _choose_L(t, kappa, a, b)
        bounds.append(_tail_bound(L, kappa, a, b))
        return L

    # The two A1 routes are summed to a COMMON index so that their
    # difference is pure rounding noise (the per-term values are
    # algebraically identical), keeping the 1e-12 route-agreement
    # invariant at every tolerance.
    L_shared = pick(1.0, 1, 1)
    bounds.append(_tail_bound(L_shared, 1.0 / (2 * LN2), 1, 1))
    c2 = _c2_sum(L_shared)
    a1_series = _a1_series_sum(L_shared)
    c3 = _c3_sum(pick(8.0 / LN2, 2, 1))
    c4 = _c4a_sum(pick(4.0, 2, 0)) + _c4b_sum(pick(1.0, 3, 0))
    sa = _sa_sum(pick(1.0, 2, 2))
    sb = _sb_sum(pick(1.0, 2, 1))
    c5 = _c5_sum(pick(1.0 / LN2, 2, 1))

    log2_2e = math.log2(2.0 * math.e)
    a1 = log2_2e - a1_series
    a1_check = log2_2e - c2 / (2.0 * LN2)
    # The two routes are algebraically identical; disagreement beyond
    # rounding would indicate a transcription bug, so fail loudly.
    if abs(a1 - a1_check) > 1e-12:  # pragma: no cover - internal guard
        raise AssertionError("A1 evaluation routes disagree beyond 1e-12")

    a2 = c3 + c4 + (2.0 + 1.5 * c2 * c2 + sa - c2 * sb) / (4.0 * LN2)
    a2_prime = 2.0 * c5 * c5 / LN2 + c3 + c4 + 1.0 / (2.0 * LN2)

    result = SeriesConstants(
        c2=c2,
        c3=c3,
        c4=c4,
        c5=c5,
        A1=a1,
        A2=a2,
        A2_prime=a2_prime,
        truncation_error_bound=_PROPAGATION * max(bounds),
    )
    if result.truncation_error_bound > tol:  # pragma: no cover - guard
        raise AssertionError("truncation bound exceeds requested tolerance")
    _cache[tol] = result
    return result


def capacity_estimate(d: float) -> float:
    """Second-order capacity expansion ``1 + d log2 d - A1 d + A2 d^2`` in bits.

    ``d`` must lie in ``[0, 1)`` (the half-open rule); at ``d = 0`` the
    ``d log d`` term is 0 and the value is exactly 1.
    """
    _check_d_half_open(d)
    if d == 0.0:
        return 1.0
    consts = compute_constants()
    return 1.0 + d * math.log2(d) - consts.A1 * d + consts.A2 * d * d
