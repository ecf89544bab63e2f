"""Exact deletion-channel likelihoods and exhaustive small-instance oracles.

The probability of receiving ``y`` (length ``m``) after sending ``x``
(length ``n``) is ``p(y|x) = N(x,y) * d^(n-m) * (1-d)^m`` where
``N(x,y)`` counts deletion masks mapping ``x`` to ``y`` — equivalently,
subsequence embeddings of ``y`` in ``x``.  ``N`` satisfies the dynamic
program ``f[i][j] = f[i-1][j] + [x_i = y_j] * f[i-1][j-1]`` with
``f[i][0] = 1``.

One kernel evaluates the DP for every caller.  Only the band
``0 <= delta = i - j <= k = n - m`` reaches ``f[n][m]`` (Davey & MacKay's
drift states), so it runs ``f_i[delta] = f_{i-1}[delta-1] + [x_i =
y_{i-delta}] f_{i-1}[delta]`` in O(n (k + 1)) time on R pairs of one input
length at once, read pairs last and C-contiguous: inputs ``(n, R)`` and
outputs ``(n + K, R)`` padded with a sentinel that matches no input bit
(``_band_counts`` lays out row-major pairs).  Pair r's band starts as a
one at drift ``k_r`` and zeros elsewhere, written for all pairs by one
compare.  Every band value counts the embeddings of a y-suffix in an
x-suffix, so it is at most ``C(n, n // 2)``: up to ``n = 17``
(``C(17, 8) = 24310``) every count fits in int16 and the kernel counts in
int16, exactly, in a quarter of the bytes; from ``n = 18``
(``C(18, 9) = 48620``) it counts in float64.  Either way it returns
float64, the same bits.  A float pair whose band peak nears overflow is
rescaled by an exact power of two kept as a log2 scale, so its value is
bit-identical alone or in any batch.  Band values at most double per
input bit, so the peak checks start after bit 960.  Counts are exact
below 2^53 (every ``n <= 56``, so the ``n <= 12`` oracles); above, the
relative error is about ``n * 2^-53``.
Impossible outputs give the distinguished value ``-inf``, not an error:
Monte Carlo never produces them but adversarial inputs do.

The exhaustive ``n <= 12`` oracles enumerate every output:
``total_probability`` is the normalization self-check of the DP, and
``exact_block_information`` gives the exact ``H(Y)`` and ``H(Y|X)``
against which the Monte Carlo estimators are gated.  Both read every
n-bit word from one read-only matrix per n, built on first use.  The
latter also keeps one table per n, built on first use as plain read-only
arrays: the output keys each orbit representative reaches, ascending,
and their integer mask counts ``N``.
Every mask onto an output of length m weighs the same float, so a mask
by mask sum of ``N`` equal weights is the ``N``-th partial sum of one
``cumsum`` row, and a call reads its ``q_c(y)`` from there bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from delchan.constants import (
    _check_d_closed, _check_d_open, _check_int, _entropy_bits, _segment_entropy_bits,
)
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
#: Band values at most double per input bit, so they stay <= 2^960 over
#: the first 960 bits; after that a peak check every 32 bits against 2^960
#: keeps them below 2^992.
_RESCALE_EVERY = 32
_RESCALE_AFTER_BITS = 960
_RESCALE_ABOVE = 2.0**_RESCALE_AFTER_BITS
#: Band DP type while every value fits.  A band value is an embedding count
#: of a y-suffix in an x-suffix, at most ``C(n, n // 2)``, so every count of
#: an input of ``n <= _INT_MAX_N`` bits fits: 17 for int16, as ``C(17, 8) =
#: 24310 <= 32767 < C(18, 9) = 48620``.  Longer inputs count in float64.
_INT_COUNTS = np.int16
_INT_MAX_N = max(
    n for n in range(64) if math.comb(n, n // 2) <= np.iinfo(_INT_COUNTS).max
)
#: Pairs x band width per ``_total_probabilities`` kernel call, all in the
#: int16 regime (n <= 12).  The ``check_dp_oracle`` tracemalloc peak is
#: 1.20 MB at 2^13 cells and 1.96 MB at 2^14.
_MAX_BAND_CELLS = 1 << 13
#: Mask keys per chunk of orbit representatives (16 at n = 12) when the
#: ``exact_block_information`` table is built; a call reads the table in
#: chunks of as many representatives.  Chunks of 64 at n = 12 ran as fast
#: but raised the peak resident set by about 1 MB.
_KEY_CHUNK_CELLS = 1 << 16


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


@functools.lru_cache(maxsize=8)
def _log2_binomials(n: int) -> np.ndarray:
    """``log2_binomial(n, m)`` for every ``m = 0..n``, bit for bit (the same
    lgamma terms in the same order); built once per n and kept read-only."""
    lgamma = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    table = (lgamma[n] - lgamma - lgamma[::-1]) / math.log(2.0)
    table.setflags(write=False)
    return table


def _band_dp(xt, ypad, k) -> tuple[np.ndarray, np.ndarray]:
    """Embedding counts ``top * 2**scale`` of R pairs laid out pairs last:
    inputs ``xt`` ``(n, R)``, outputs ``ypad`` ``(n + K, R)``, both
    C-contiguous; pair r, with ``k[r] = n - m_r``, has its output in
    rows ``K..K + m_r - 1`` of column r and ``_SENTINEL`` elsewhere.  The
    band counts in int16 for ``n <= _INT_MAX_N`` (every value fits, and no
    rescale check is reached) and in float64 above; ``top`` is float64.
    One broadcast compare of ``K..0`` with ``k`` writes every pair's start,
    in either type and for any mix of ``k``."""
    n, K, rows = len(xt), len(ypad) - len(xt), ypad.shape[1]
    dtype = _INT_COUNTS if n <= _INT_MAX_N else np.float64
    # Pair r's band fills entries K - k_r..K of column r (zeros below), so
    # its answer is entry K; it starts as the one-hot column [K - i == k_r].
    # Run back to front (N is unchanged), every y starts at offset K of
    # ypad: the step reading x[u] meets ypad[u + c].
    windows = np.ndarray((n, K + 1, rows), np.uint8, ypad, 0, (rows, rows, 1))
    f = np.empty((K + 1, rows), dtype)
    np.equal(np.arange(K, -1, -1)[:, None], k, out=f, casting="unsafe")
    g = np.empty_like(f)
    eq = np.empty((min(n, _RESCALE_EVERY), K + 1, rows), dtype)
    scale = np.zeros(rows, dtype=np.int64)
    for hi in range(n, 0, -_RESCALE_EVERY):
        lo = max(hi - _RESCALE_EVERY, 0)
        np.equal(windows[lo:hi], xt[lo:hi, None, :], out=eq[: hi - lo])
        for u in range(hi - lo - 1, -1, -1):
            np.multiply(f, eq[u], out=g)
            g[1:] += f[:-1]
            f, g = g, f
        if n - lo <= _RESCALE_AFTER_BITS:  # every value <= 2^(n - lo)
            continue
        peak = f.max(axis=0)
        e = np.where(peak > _RESCALE_ABOVE, np.frexp(peak)[1], 0)
        np.ldexp(f, -e, out=f)
        scale += e
    return f[K].astype(np.float64), scale


def _band_counts(
    x: np.ndarray, y: np.ndarray, m: np.ndarray | list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """``_band_dp`` on row-major pairs, one input per pair: input r is
    ``x[r]`` of ``x`` ``(R, n)``, and output r is ``y[r, :m[r]]`` (uint8)."""
    xt = np.ascontiguousarray(x.T)
    n, m = xt.shape[0], np.asarray(m, dtype=np.int64)
    k, rows, width = n - m, m.size, y.shape[1]
    K = int(k.max())
    ypad = np.full((n + K, rows), _SENTINEL, dtype=np.uint8)
    np.copyto(ypad[K : K + width], y.T, where=np.arange(width)[:, None] < m)
    return _band_dp(xt, ypad, k)


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
    top, scale = _band_counts(x[None, :], y[None, :], [m])
    return math.log2(top[0]) + int(scale[0]) if top[0] > 0.0 else IMPOSSIBLE


def log_likelihood(x, y, d: float) -> LogLikelihood:
    """Exact ``log2 p(y|x)`` for deletion probability ``d``, with the
    embedding count ``log2 N(x, y)`` of :func:`embedding_count`.

    An impossible output has ``log_prob = -inf``, not an exception.
    ``d = 0`` and ``d = 1`` are the degenerate identity / erase-everything
    channels: there ``log_prob`` is 0 or ``-inf``, and the count is still N.
    """
    _check_d_closed(d)
    log_n = embedding_count(x, y)
    n, m = len(x), len(y)
    if log_n == IMPOSSIBLE:
        log_prob = IMPOSSIBLE
    elif d == 0.0:  # only y = x, which then embeds exactly once
        log_prob = 0.0 if m == n else IMPOSSIBLE
    elif d == 1.0:
        log_prob = 0.0 if m == 0 else IMPOSSIBLE
    else:
        log_prob = log_n + (n - m) * math.log2(d) + m * math.log2(1.0 - d)
    return LogLikelihood(log_embedding_count=log_n, log_prob=log_prob)


def binomial_length_entropy(n: int, d: float) -> float:
    """Entropy (bits) of the output length ``M ~ Binomial(n, 1 - d)``."""
    n = _check_int("n", n, 0)
    _check_d_closed(d)
    if d == 0.0 or d == 1.0 or n == 0:
        return 0.0
    m = np.arange(n + 1)
    lp = _log2_binomials(n) + m * math.log2(1.0 - d) + (n - m) * math.log2(d)
    p = np.exp2(lp)
    possible = p > 0.0
    return math.fsum((-p[possible] * lp[possible]).tolist())


@functools.lru_cache(maxsize=_ORACLE_MAX_N + 1)
def _all_words(n: int) -> np.ndarray:
    """Every n-bit word, MSB first, as the rows of a ``(2^n, n)`` matrix;
    built once per n and kept read-only."""
    codes = np.arange(2**n, dtype=np.int64)
    words = ((codes[:, None] >> (n - 1 - np.arange(n))) & 1).astype(np.uint8)
    words.setflags(write=False)
    return words


def _total_probabilities(xs: np.ndarray, d: float) -> np.ndarray:
    """``total_probability`` of each row of ``xs``, shape ``(R, n)``; a call
    covers inputs x all 2^m outputs, at most ``_MAX_BAND_CELLS`` band cells,
    and each sum is bit-identical to the input's sum alone."""
    xs = np.ascontiguousarray(xs)
    rows, n = xs.shape
    totals = np.empty((rows, n + 1))
    for m in range(n + 1):
        K, width = n - m, 2**m
        group = max(1, min(rows, _MAX_BAND_CELLS // (width * (K + 1))))
        # group copies of every output, laid out once for this (n, m)
        ypad = np.full((n + K, group * width), _SENTINEL, dtype=np.uint8)
        ypad[K:n] = np.tile(_all_words(m).T, group)
        k = np.full(group * width, K)
        for lo in range(0, rows, group):
            x = xs[lo : lo + group]
            cols = len(x) * width  # fewer in a ragged last group
            xt = np.repeat(x.T, width, axis=1)
            # n <= 12 never rescales: scale is 0 and top is the count
            top, _ = _band_dp(xt, np.ascontiguousarray(ypad[:, :cols]), k[:cols])
            totals[lo : lo + group, m] = top.reshape(-1, width).sum(axis=1)
        totals[:, m] *= d ** (n - m) * (1.0 - d) ** m
    return np.array([math.fsum(row) for row in totals.tolist()])


def total_probability(x, d: float) -> float:
    """``sum over all y of p(y|x)`` — exactly 1 for a correct DP.

    Enumerates every candidate output of every length (``n <= 12``), one
    batched kernel call per length, and sums ``N(x,y) d^(n-m) (1-d)^m``.
    It is the one-row case of the batched ``_total_probabilities``.
    Exposed as the normalization self-check of the likelihood computation.
    """
    _check_d_open(d)
    x = as_bits(x)
    if x.size > _ORACLE_MAX_N:
        raise ValueError(
            f"all-output enumeration supports n <= {_ORACLE_MAX_N}, got {x.size}"
        )
    return float(_total_probabilities(x[None, :], d)[0])


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


def _group_codes(n: int) -> np.ndarray:
    """``g·c`` for every n-bit code ``c`` (MSB first) and each g of the group
    (identity, reversal R, complement C, R∘C), as the rows of a ``(4, 2^n)``
    matrix.  Every g is an involution, so each row is its own inverse map."""
    codes = np.arange(2**n, dtype=np.int64)
    reversed_ = _all_words(n).astype(np.int64) @ (1 << np.arange(n))
    full = 2**n - 1
    return np.stack([codes, reversed_, codes ^ full, reversed_ ^ full])


def _key_maps(n: int) -> np.ndarray:
    """``key(g·y)`` for every output key of an n-bit input and each g, shape
    ``(4, 2^(n+1) - 1)``: the outputs of length m own keys ``2^m - 1 +
    code``, and g acts on the code bits within that block."""
    return np.concatenate(
        [2**m - 1 + _group_codes(m) for m in range(n + 1)], axis=1
    )


class _OrbitOutputs(NamedTuple):
    """Reachable outputs of every orbit representative of one n, read-only:
    representative ``c = orbit[0, i]`` reaches the keys ``keys[b[i]:b[i + 1]]``
    (ascending, ``b = bounds``) through ``counts[b[i]:b[i + 1]]`` masks."""

    orbit: np.ndarray  # (4, orbits): g·c for each g
    stab: np.ndarray  # |Stab(c)|
    bounds: np.ndarray
    keys: np.ndarray  # int16
    counts: np.ndarray  # int16, at most C(n, n // 2)


@functools.lru_cache(maxsize=_ORACLE_MAX_N)
def _orbit_outputs(n: int) -> _OrbitOutputs:
    """The ``exact_block_information`` table of one n, built on first use."""
    bits = _all_words(n)
    # orbit representatives c: the smallest code of each orbit
    orbit = _group_codes(n)
    reps = np.flatnonzero(orbit.min(axis=0) == orbit[0])
    orbit = orbit.take(reps, axis=1)  # C order, no writable base
    stab = (orbit == reps).sum(axis=0)

    # key of (c, mask): the output y-code, sum over surviving positions of
    # bit * 2^(survivors strictly to the right), plus 2^len(y) - 1 so that
    # each output length owns its own block of keys; mask code mk deletes
    # the 1-bits of mk
    keep = 1 - bits.astype(np.int64)
    suffix_keep = np.cumsum(keep[:, ::-1], axis=1)[:, ::-1] - keep
    place_t = (keep * (2**suffix_keep)).T.astype(np.float32)
    offset = (2 ** keep.sum(axis=1) - 1).astype(np.float32)
    chunk = max(1, _KEY_CHUNK_CELLS // 2**n)

    # float32 holds every key (below 2^13) exactly; each row's keys are
    # sorted, and a run of equal keys is one reachable output and its mask
    # count (one cast per chunk)
    keys, counts, sizes = [], [], []
    for lo in range(0, reps.size, chunk):
        rows = bits[reps[lo : lo + chunk]].astype(np.float32)
        row_keys = rows @ place_t
        row_keys += offset
        row_keys.sort(axis=1)
        flat = row_keys.ravel()
        first = np.ones(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=first[1:])
        first[:: 2**n] = True  # each row starts a run
        starts = np.flatnonzero(first)
        keys.append(flat[starts].astype(np.int16))
        counts.append(np.diff(starts, append=flat.size).astype(np.int16))
        sizes.append(np.bincount(starts >> n, minlength=len(rows)))
    bounds = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    table = (orbit, stab, bounds, np.concatenate(keys), np.concatenate(counts))
    for a in table:
        a.setflags(write=False)  # cached: one table for every caller
    return _OrbitOutputs(*table)


def exact_block_information(spec: SourceSpec, n: int, d: float) -> BlockInformation:
    """Exact ``H(Y)``, ``H(Y|X)``, and ``I/n`` by full enumeration (n <= 12).

    Covers all ``2^n`` inputs weighted by the source law (renewal sources:
    run-boundary start) and all ``2^n`` deletion masks.  Reversal R and
    complement C commute with i.i.d. deletions, so the output law of
    ``g·x`` is that of ``x`` with g applied to the outputs, and only one
    input per orbit of {identity, R, C, R∘C} is enumerated: the smallest
    code ``c`` (1056 of 4096 inputs at n = 12).  Its output law ``q_c``
    gives ``H(Y|X = x)`` for the whole orbit and adds
    ``p(g·c) / |Stab(c)| * q_c(g·y)`` to ``p(y)`` for each g; the source
    law need not be symmetric (the renewal start censors only the last
    run).  The mask counts ``N(c, y)`` of the outputs each ``c`` reaches
    depend on n alone, so they are built once per n, on first use, and
    kept read-only (273,539 entries in 1.15 MB at n = 12, where an orbit
    reaches 259 of the 8191 output keys on average and 609 at most).  A
    call reads ``q_c(y)``, the sum of the ``N(c, y)`` equal weights
    ``d^(n-m) (1-d)^m`` of the masks onto y added one at a time, as the
    ``N``-th partial sum of that weight, and touches only reachable
    entries, one chunk of representatives at a time.  A non-integer
    ``n`` raises ``TypeError``, ``n > 12`` ``ValueError``.
    """
    n = _check_int("n", n, 1)
    if n > _ORACLE_MAX_N:
        raise ValueError(
            f"exact enumeration is limited to n <= {_ORACLE_MAX_N}; "
            "use the Monte Carlo estimators for larger n"
        )
    _check_d_closed(d)
    table = _orbit_outputs(n)

    p_x = _input_probs(spec, _all_words(n))
    total = math.fsum(p_x.tolist())
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"input law sums to {total!r}")

    # the weight p(g·c) / |Stab(c)| of each g and the orbit's probability;
    # a dead orbit only adds 0.0 * q, which moves no sum
    weights = p_x[table.orbit] / table.stab
    p_orbit = weights.sum(axis=0)
    reach = np.diff(table.bounds)

    # q_c(y) adds the weights of the N = N(c, y) masks mapping c to y one
    # at a time, in mask order, from 0.0 (as np.bincount over all 2^n masks
    # does).  Each such mask keeps m = len(y) bits and weighs the same
    # float w_m = d^(n-m) (1-d)^m, so q_c(y) is the N-th sequential partial
    # sum of w_m: row m, column N - 1 of one cumsum table, the same bits.
    m = np.arange(n + 1)
    w = d ** (n - m) * (1.0 - d) ** m
    partial = np.cumsum(np.repeat(w[:, None], math.comb(n, n // 2), axis=1), axis=1)
    length = np.repeat(m, 2**m)  # len(y) of each key
    n_keys = length.size

    # H(Y|X = c) per orbit, and p(y) per g: np.add.at adds one term at a
    # time in the order given, so each key of acc adds its terms in orbit
    # order, as a loop ``acc += weights[:, i, None] * q_i`` over orbits
    # does; an unreachable key would only have added +0.0
    chunk = max(1, _KEY_CHUNK_CELLS // 2**n)
    acc = np.zeros((4, n_keys))
    h_terms = []
    for lo in range(0, p_orbit.size, chunk):
        orbits = slice(lo, lo + chunk)
        seg = table.bounds[lo : lo + chunk + 1]
        entries = slice(seg[0], seg[-1])
        k = table.keys[entries].astype(np.intp)
        q = partial[length[k], table.counts[entries] - 1]
        h = p_orbit[orbits] * _segment_entropy_bits(q, seg - seg[0])
        h_terms.extend(h.tolist())
        for g in range(4):
            np.add.at(acc[g], k, np.repeat(weights[g, orbits], reach[orbits]) * q)
    p_y = np.take_along_axis(acc, _key_maps(n), axis=1)
    H_Y = _entropy_bits(p_y.sum(axis=0))
    H_Y_given_X = math.fsum(h_terms)

    return BlockInformation(
        H_Y=H_Y,
        H_Y_given_X=H_Y_given_X,
        I_n_per_bit=(H_Y - H_Y_given_X) / n,
    )
