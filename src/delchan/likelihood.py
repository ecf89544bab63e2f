"""Exact deletion-channel likelihoods and exhaustive small-instance oracles.

The probability of receiving ``y`` (length ``m``) after sending ``x``
(length ``n``) is ``p(y|x) = N(x,y) * d^(n-m) * (1-d)^m`` where
``N(x,y)`` counts deletion masks mapping ``x`` to ``y`` — equivalently,
subsequence embeddings of ``y`` in ``x``.  ``N`` satisfies the dynamic
program ``f[i][j] = f[i-1][j] + [x_i = y_j] * f[i-1][j-1]`` with
``f[i][0] = 1``.

One float64 kernel evaluates the DP for every caller.  Only the band
``0 <= delta = i - j <= k = n - m`` reaches ``f[n][m]`` (Davey & MacKay's
drift states), so it runs ``f_i[delta] = f_{i-1}[delta-1] + [x_i =
y_{i-delta}] f_{i-1}[delta]`` in O(n (k + 1)) time on a batch of pairs of
one input length at once, outputs padded with a sentinel that matches no
input bit.  A pair whose band peak nears overflow is rescaled by an exact
power of two kept as a log2 scale, so its value is bit-identical alone or
in any batch.  Counts are exact below 2^53 (every ``n <= 56``, so the
``n <= 12`` oracles); above, the relative error is about ``n * 2^-53``.
Impossible outputs give the distinguished value ``-inf``, not an error:
Monte Carlo never produces them but adversarial inputs do.

``exact_block_information`` enumerates all inputs and masks for
``n <= 12`` and returns exact ``H(Y)``, ``H(Y|X)``, and ``I/n`` — the
ground-truth oracle against which the Monte Carlo estimators are gated.
It keys every (input, mask) pair by its output in one int32 matrix and
reads it once, input by input: the output law of ``x`` gives both its
share of ``p(y)`` and the term ``H(Y|X = x)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from delchan.sources import SourceSpec, as_bits

__all__ = [
    "IMPOSSIBLE",
    "BlockInformation",
    "LogLikelihood",
    "binomial_length_entropy",
    "embedding_count",
    "exact_block_information",
    "log2_binomial",
    "log_likelihood",
    "total_probability",
]

#: Distinguished value for outputs no deletion mask can produce.
IMPOSSIBLE = float("-inf")

_ORACLE_MAX_N = 12
#: Pads the outputs in ``_band_counts``; matches no input bit.
_SENTINEL = 2
#: Band values at most double per input bit: a peak check every 32 bits
#: against 2^960 keeps them below 2^992.
_RESCALE_EVERY = 32
_RESCALE_ABOVE = 2.0**960


@dataclass(frozen=True)
class LogLikelihood:
    """Log2 embedding count and log2 channel probability (bits, <= 0)."""

    log_embedding_count: float
    log_prob: float

    @property
    def impossible(self) -> bool:
        return self.log_prob == IMPOSSIBLE


class BlockInformation(NamedTuple):
    """Exact block-level entropies (bits) and per-bit information rate."""

    H_Y: float
    H_Y_given_X: float
    I_n_per_bit: float


def log2_binomial(n: int, k: int) -> float:
    """``log2 C(n, k)`` via lgamma (exactly 0 at the boundary cases)."""
    if k < 0 or k > n:
        raise ValueError(f"binomial coefficient C({n},{k}) out of range")
    if k == 0 or k == n:
        return 0.0
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    ) / math.log(2.0)


def _band_counts(
    x: np.ndarray, y: np.ndarray, m: np.ndarray | list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Embedding counts ``top * 2**scale`` of R pairs: ``x`` is one input,
    shape ``(n,)``, or one per pair, ``(R, n)``; output r is ``y[r, :m[r]]``."""
    xt = np.atleast_2d(x).T  # pairs last throughout: (n, R) or (n, 1)
    n, m = xt.shape[0], np.asarray(m, dtype=np.int64)
    k, rows, width = n - m, m.size, y.shape[1]
    K = int(k.max())
    # Pair r's band fills entries K - k_r..K of column r (zeros below), so
    # its answer is entry K.  Run back to front (N is unchanged), every y
    # starts at offset K of ypad: the step reading x[u] meets ypad[u + c].
    ypad = np.full((n + K, rows), _SENTINEL, dtype=np.uint8)
    ypad[K : K + width] = np.where(np.arange(width)[:, None] < m, y.T, _SENTINEL)
    windows = np.ndarray((n, K + 1, rows), np.uint8, ypad, 0, (rows, rows, 1))
    f = np.zeros((K + 1, rows))
    f[K - k, np.arange(rows)] = 1.0
    g = np.empty_like(f)
    eq = np.empty((min(n, _RESCALE_EVERY), K + 1, rows))
    scale = np.zeros(rows, dtype=np.int64)
    for hi in range(n, 0, -_RESCALE_EVERY):
        lo = max(hi - _RESCALE_EVERY, 0)
        np.equal(windows[lo:hi], xt[lo:hi, None, :], out=eq[: hi - lo])
        for u in range(hi - lo - 1, -1, -1):
            np.multiply(f, eq[u], out=g)
            g[1:] += f[:-1]
            f, g = g, f
        peak = f.max(axis=0)
        e = np.where(peak > _RESCALE_ABOVE, np.frexp(peak)[1], 0)
        np.ldexp(f, -e, out=f)
        scale += e
    return f[K], scale


def embedding_count(x, y) -> float:
    """``log2 N(x, y)``: deletion masks of weight ``n - m`` mapping ``x`` to ``y``.

    Exact for ``n <= 56``; above, the relative error of ``N`` is about
    ``n * 2^-53``.  Returns ``-inf`` when no mask works.  Raises
    ``ValueError`` when ``y`` is longer than ``x``.
    """
    x = as_bits(x)
    y = as_bits(y)
    n, m = x.size, y.size
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if m == 0:
        return 0.0
    top, scale = _band_counts(x, y[None, :], [m])
    return math.log2(top[0]) + scale[0] if top[0] > 0.0 else IMPOSSIBLE


def log_likelihood(x, y, d: float) -> LogLikelihood:
    """Exact ``log2 p(y|x)`` for deletion probability ``d``.

    Impossible outputs yield the distinguished ``-inf`` fields, not an
    exception.  ``d = 0`` and ``d = 1`` are handled as the degenerate
    identity / erase-everything channels.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"deletion probability must be in [0, 1], got {d!r}")
    x = as_bits(x)
    y = as_bits(y)
    n, m = x.size, y.size
    if m > n:
        raise ValueError(f"output longer than input ({m} > {n})")
    if d == 0.0:
        possible = m == n and bool(np.array_equal(x, y))
        value = 0.0 if possible else IMPOSSIBLE
        return LogLikelihood(log_embedding_count=value, log_prob=value)
    if d == 1.0:
        value = 0.0 if m == 0 else IMPOSSIBLE
        return LogLikelihood(log_embedding_count=value, log_prob=value)
    log_n = embedding_count(x, y)
    if log_n == IMPOSSIBLE:
        return LogLikelihood(log_embedding_count=IMPOSSIBLE, log_prob=IMPOSSIBLE)
    log_prob = log_n + (n - m) * math.log2(d) + m * math.log2(1.0 - d)
    return LogLikelihood(log_embedding_count=log_n, log_prob=log_prob)


def binomial_length_entropy(n: int, d: float) -> float:
    """Entropy (bits) of the output length ``M ~ Binomial(n, 1 - d)``."""
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"deletion probability must be in [0, 1], got {d!r}")
    if d == 0.0 or d == 1.0 or n == 0:
        return 0.0
    terms = []
    for m in range(n + 1):
        lp = log2_binomial(n, m) + m * math.log2(1.0 - d) + (n - m) * math.log2(d)
        p = 2.0**lp
        if p > 0.0:
            terms.append(-p * lp)
    return math.fsum(terms)


def total_probability(x, d: float) -> float:
    """``sum over all y of p(y|x)`` — exactly 1 for a correct DP.

    Enumerates every candidate output of every length (``n <= 12``), one
    batched kernel call per length, and sums ``N(x,y) d^(n-m) (1-d)^m``.
    Exposed as the normalization self-check of the likelihood computation.
    """
    if not 0.0 < d < 1.0:
        raise ValueError("total_probability requires 0 < d < 1")
    x = as_bits(x)
    n = x.size
    if n > _ORACLE_MAX_N:
        raise ValueError(
            f"all-output enumeration supports n <= {_ORACLE_MAX_N}, got {n}"
        )
    totals = []
    for m in range(n + 1):
        codes = np.arange(2**m, dtype=np.int64)
        # bit j (1-based) of each candidate y, MSB first
        ys = ((codes[:, None] >> (m - 1 - np.arange(m))) & 1).astype(np.uint8)
        top, scale = _band_counts(x, ys, np.full(codes.size, m))
        weight = d ** (n - m) * (1.0 - d) ** m
        totals.append(float(np.ldexp(top, scale).sum()) * weight)
    return math.fsum(totals)


# --------------------------------------------------------------------------
# exhaustive small-instance information oracle
# --------------------------------------------------------------------------


def _input_probs(spec: SourceSpec, bits_matrix: np.ndarray) -> np.ndarray:
    """P(X^n = x) for every row of ``bits_matrix`` under ``spec``.

    Renewal sources use the run-boundary (Palm) start: probability is
    ``(1/2) * prod(p(l_i) over complete runs) * P(L >= l_last)`` with the
    final run censored at the horizon.
    """
    rows, n = bits_matrix.shape
    if spec.kind == "bernoulli_half":
        return np.full(rows, 2.0**-n)
    if spec.kind == "markov":
        flips = (bits_matrix[:, 1:] != bits_matrix[:, :-1]).sum(axis=1)
        return (
            0.5 * spec.p_same ** (n - 1 - flips) * (1.0 - spec.p_same) ** flips
        )
    dist = spec.dist
    assert dist is not None
    # pmf[l] = P(L = l) and tail[l] = P(L >= l), zero beyond the support
    pmf, tail = np.zeros(n + 1), np.zeros(n + 1)
    top = min(dist.L_max, n)
    pmf[1 : top + 1] = dist.probs[:top]
    tail[1 : top + 1] = np.cumsum(dist.probs[::-1])[::-1][:top]
    # runs of all rows in row-major order; every row starts a run
    starts = np.ones((rows, n), dtype=bool)
    np.not_equal(bits_matrix[:, 1:], bits_matrix[:, :-1], out=starts[:, 1:])
    begin = np.flatnonzero(starts)
    end = np.append(begin[1:], rows * n)
    factors = np.where(end % n == 0, tail[end - begin], pmf[end - begin])
    first = begin % n == 0
    factors[first] *= 0.5
    return np.multiply.reduceat(factors, np.flatnonzero(first))


def exact_block_information(spec: SourceSpec, n: int, d: float) -> BlockInformation:
    """Exact ``H(Y)``, ``H(Y|X)``, and ``I/n`` by full enumeration (n <= 12).

    Enumerates all ``2^n`` inputs weighted by the source law (renewal
    sources: run-boundary start) and all ``2^n`` deletion masks.  Raises
    ``ValueError`` with guidance above the exhaustive limit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _ORACLE_MAX_N:
        raise ValueError(
            f"exact enumeration is limited to n <= {_ORACLE_MAX_N}; "
            "use the Monte Carlo estimators for larger n"
        )
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"deletion probability must be in [0, 1], got {d!r}")

    size = 2**n
    shifts = n - 1 - np.arange(n)
    codes = np.arange(size, dtype=np.int64)
    bits = ((codes[:, None] >> shifts) & 1).astype(np.uint8)

    p_x = _input_probs(spec, bits)
    total = math.fsum(p_x.tolist())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"input law sums to {total!r}")

    mask_bits = bits.astype(np.int64)  # mask code mk deletes the 1-bits of mk
    weights_mask = d ** mask_bits.sum(axis=1) * (1.0 - d) ** (
        n - mask_bits.sum(axis=1)
    )

    # key of (x, mask): the output y-code, sum over surviving positions of
    # bit * 2^(survivors strictly to the right), plus 2^len(y) - 1 so that
    # each output length owns its own block of keys
    keep = 1 - mask_bits
    suffix_keep = np.cumsum(keep[:, ::-1], axis=1)[:, ::-1] - keep
    place = (keep * (2**suffix_keep)).astype(np.float32)
    keys = (bits.astype(np.float32) @ place.T).astype(np.int32)  # exact: < 2^12
    keys += (2 ** keep.sum(axis=1) - 1).astype(np.int32)
    n_keys = 2 ** (n + 1) - 1

    # one pass over inputs: the output law of x gives p(y) and H(Y|X = x)
    p_y = np.zeros(n_keys)
    h_terms = []
    for xi in np.flatnonzero(p_x).tolist():
        q = np.bincount(keys[xi], weights=weights_mask, minlength=n_keys)
        p_y += p_x[xi] * q
        qnz = q[q > 0.0]
        h_terms.append(p_x[xi] * float(-np.sum(qnz * np.log2(qnz))))
    nz = p_y > 0.0
    H_Y = float(-np.sum(p_y[nz] * np.log2(p_y[nz])))
    H_Y_given_X = math.fsum(h_terms)

    return BlockInformation(
        H_Y=H_Y,
        H_Y_given_X=H_Y_given_X,
        I_n_per_bit=(H_Y - H_Y_given_X) / n,
    )
