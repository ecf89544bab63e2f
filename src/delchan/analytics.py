"""Closed-form evaluators for the small-deletion-rate entropy expansions.

Each function evaluates one of the toolkit's second-order formulas with
the asymptotic error term set to zero, truncated at the support of the
supplied run-length law:

* ``hatD_entropy_formula`` — the per-bit conditional entropy of the
  modified deletion pattern (deletions reversed in runs carrying >= 3),
  whose sums collapse to ``(d/2) sum 2^-l l log2 l + c3 d^2`` for the
  ``2^-l`` law;
* ``k_entropy_formula`` — the per-bit entropy of the parent-block
  length vector given input and output under the perturbed process,
  collapsing to ``c4 d^2`` for the ``2^-l`` law;
* ``hy_given_x_formula`` — the per-bit entropy of (output, parent
  blocks) given the input, expressed through the OUTPUT run law and
  the series constants, with the prescribed cutoff
  ``ell = floor(4 log2(1/d))``;
* ``markov_rate_bound`` — the second-order rate ceiling
  ``1 - d log2(1/d) - A1 d + A2' d^2`` of first-order Markov sources;
* ``optimal_markov_param`` — the optimizing Markov stay-probability
  ``1/2 + c5 d``.

The series constants are absolute, so the formulas that use them read
``compute_constants()`` (the ``DEFAULT_TOL`` constants) and depend on
``d`` and the run law alone.  All probabilities of k-tuples of runs are
formed as products of the single-run pmf (renewal assumption), and every
returned value is in bits (bits per bit for rates).
"""

from __future__ import annotations

import math

import numpy as np

from delchan.constants import LN2, _check_d_half_open, _check_d_open, _check_int
from delchan.constants import compute_constants
from delchan.sources import DEFAULT_L_MAX, RunLengthDistribution

__all__ = [
    "hatD_entropy_formula",
    "hy_given_x_formula",
    "k_entropy_formula",
    "markov_rate_bound",
    "optimal_markov_param",
    "output_formula_cutoff",
]

#: Per-layer contribution below which the geometric tails over the count
#: of intervening length-1 runs are considered exhausted.
_K_LAYER_EPS = 1e-18
_K_HARD_CAP = 65536


def hatD_entropy_formula(p: RunLengthDistribution, d: float) -> float:
    """Per-bit conditional entropy of the modified deletion pattern.

    Evaluates, in bits with the error term set to zero and sums
    truncated at ``p.L_max``::

        (d/mu)   sum_{l>=2} p(l) l log2 l
      + (d^2/mu) sum_{l>=2} p(l) [C(l,2) log2 C(l,2) - l^2 log2 l]
      + (d^2/mu) (P(L>1)^2 - p(1)^2) sum_{l>=2} p(l) l log2 l
      + (d^2/mu) [ sum_{l0>=2, l2>=1} p(l0) p(1) p(l2) (l0+l2) log2(l0+l2)
                 + p(1)^2 sum_{l2} p(l2) l2 log2 l2 ]

    where k-tuple run probabilities are renewal products.  For the
    ``2^-l`` law this equals ``(d/2) sum 2^-l l log2 l + c3 d^2``
    exactly (up to the 2^-L_max truncation).
    """
    _check_d_half_open(d)
    if d == 0.0:
        return 0.0
    probs = p.probs
    lengths = np.arange(1, p.L_max + 1, dtype=np.float64)
    log2_l = np.log2(lengths)
    mu = p.mean
    p1 = float(probs[0])
    p_gt1 = 1.0 - p1

    l_log_l = lengths * log2_l  # l log2 l, zero at l = 1
    s1 = float(np.dot(probs, l_log_l))

    choose2 = lengths * (lengths - 1.0) / 2.0
    c2l = choose2 * np.log2(np.maximum(choose2, 1.0))
    s2 = float(np.dot(probs, c2l - lengths**2 * log2_l))

    s3 = (p_gt1**2 - p1**2) * s1

    # fused-run term: l0 >= 2 and l2 >= 1 around a fully deleted 1-run
    w0 = probs[1:]  # p(l0), l0 = 2..L_max
    sums = lengths[1:, None] + lengths[None, :]  # l0 + l2
    s4a = p1 * float(np.einsum("i,j,ij->", w0, probs, sums * np.log2(sums)))
    s4b = p1**2 * s1

    return (d / mu) * s1 + (d * d / mu) * (s2 + s3 + s4a + s4b)


def k_entropy_formula(p: RunLengthDistribution, d: float) -> float:
    """Per-bit entropy of the parent-block vector given input and output.

    Evaluates, in bits with the error term set to zero::

        (d^2/mu) { sum_{k>=2} sum_{l>=2} p(1)^(k+1) p(l)
                       (k-1+l) h(1/(k-1+l))
                 + sum_{l0>=2} sum_{k>=2} sum_{l>=2} p(l0) p(1)^k p(l)
                       (l0+k-1+l) h((l0+1)/(l0+k-1+l)) }

    with ``h`` the binary entropy (bits) and renewal product
    probabilities; the geometric sums over ``k`` run until their layers
    fall below 1e-18.  For the ``2^-l`` law this equals ``c4 d^2``.
    """
    _check_d_half_open(d)
    if d == 0.0:
        return 0.0
    probs = p.probs
    mu = p.mean
    p1 = float(probs[0])
    if p1 == 0.0:
        return 0.0

    lengths = np.arange(1, p.L_max + 1, dtype=np.float64)
    w_l = probs[1:]  # p(l) for l >= 2, and p(l0) for l0 >= 2
    l_vals = lengths[1:]

    def h(x: np.ndarray) -> np.ndarray:
        return -(x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x))

    layers = []
    p1_pow = p1 * p1  # p(1)^k at k = 2
    for k in range(2, _K_HARD_CAP + 1):
        m = (k - 1) + l_vals  # k-1+l
        double_layer = p1_pow * p1 * float(np.dot(w_l, m * h(1.0 / m)))
        tot = l_vals[:, None] + (k - 1) + l_vals[None, :]
        frac = (l_vals[:, None] + 1.0) / tot
        triple_layer = p1_pow * float(
            np.einsum("i,j,ij->", w_l, w_l, tot * h(frac))
        )
        layer = double_layer + triple_layer
        layers.append(layer)
        if layer < _K_LAYER_EPS and k > 8:
            break
        p1_pow *= p1

    return (d * d / mu) * math.fsum(layers)


def output_formula_cutoff(d: float, L_max: int = DEFAULT_L_MAX) -> int:
    """Truncation point ``min(floor(4 log2(1/d)), L_max)`` of the
    output-run entropy formula; ``d`` must lie in ``(0, 1)`` (the open rule)
    and ``L_max >= 1`` (the integer rule)."""
    _check_d_open(d)
    L_max = _check_int("L_max", L_max, 1)
    return min(int(math.floor(4.0 * math.log2(1.0 / d))), L_max)


def hy_given_x_formula(q: RunLengthDistribution, d: float) -> float:
    """Per-bit entropy of (output, parent blocks) given the input.

    ``q`` is the OUTPUT run-length law.  Evaluates, in bits, with the
    error term set to zero and ``ell = min(floor(4 log2(1/d)), q.L_max)``::

        - (d/2) sum_{l=2}^ell q(l) l log2 l
        + (d c2 / (4 ln 2)) sum_{l=1}^ell q(l) l
        + d log2(1/d) + (d/ln 2)(1 - c2/2)
        + d^2 (-c3 - 1/(2 ln 2))

    For ``q = 2^-l`` the two q-sums cancel to ``O(d * 2^-ell)``.
    Returns 0 at ``d = 0``.
    """
    _check_d_half_open(d)
    if d == 0.0:
        return 0.0
    consts = compute_constants()
    ell = output_formula_cutoff(d, q.L_max)
    lengths = np.arange(1, ell + 1, dtype=np.float64)
    probs = q.probs[:ell]
    sum_llog = float(np.dot(probs[1:], lengths[1:] * np.log2(lengths[1:])))
    sum_l = float(np.dot(probs, lengths))
    c2 = consts.c2
    return (
        -(d / 2.0) * sum_llog
        + (d * c2 / (4.0 * LN2)) * sum_l
        + d * math.log2(1.0 / d)
        + (d / LN2) * (1.0 - c2 / 2.0)
        + d * d * (-consts.c3 - 1.0 / (2.0 * LN2))
    )


def markov_rate_bound(d: float) -> float:
    """Second-order ceiling ``1 - d log2(1/d) - A1 d + A2' d^2`` on the
    information rate of first-order Markov sources."""
    _check_d_half_open(d)
    if d == 0.0:
        return 1.0
    consts = compute_constants()
    return 1.0 - d * math.log2(1.0 / d) - consts.A1 * d + consts.A2_prime * d * d


def optimal_markov_param(d: float) -> float:
    """Optimizing Markov stay-probability ``1/2 + c5 d``.

    ``d`` must lie in ``[0, 1)`` (the half-open rule, checked before any
    work).  Raises ``ValueError`` too when the first-order expression
    reaches 1 (d too large for the expansion to define a probability).
    """
    _check_d_half_open(d)
    value = 0.5 + compute_constants().c5 * d
    if value >= 1.0:
        raise ValueError(
            f"1/2 + c5 d = {value} >= 1 is not a probability; "
            "the first-order parameterization only covers small d"
        )
    return value
