"""Monte Carlo rate estimation for deletion-channel input processes.

The achievable rate of a stationary input process splits as
``I/n = H(Y)/n - H(Y|X)/n``.  Because the output length ``M`` is a
Binomial(n, 1-d) variable independent of the input, its entropy appears
in both terms and cancels; the estimators below therefore work with the
length-conditioned quantities, which converge to the same limits with
an O(log n / n) term removed:

* ``estimate_h_cond`` — Monte Carlo mean of
  ``(log2 C(n, m) - log2 N(x, y)) / n``, an unbiased estimate of
  ``H(Y|X, M)/n``: sample an input, pass it through the channel, count
  embeddings with the exact DP.
* ``estimate_h_out_renewal`` — the output of a renewal source is again
  renewal, so ``H(Y)/n -> (1-d) H(q_L)/mu(Y)`` exactly; estimated with
  the plug-in entropy of the interior output run lengths (first and
  last 64 runs discarded as burn-in) and a block bootstrap standard
  error.  Runs longer than 64 enter the mean run length but not the
  entropy, which biases the estimate low; a ``UserWarning`` reports how
  many there were.  For Markov inputs the same formula is only an upper bound
  (their output is not renewal), so the renewal estimator refuses them
  and ``estimate_rate`` labels the result ``"upper-bound"``.  The
  stream's source, channel and run segmentation run in fixed blocks of
  input bits from the same Philox stream, so no per-bit float array is
  held and the result does not depend on the block size.

Replicas run one after another in fixed chunks of 64, each chunk on one
RNG stream spawned by chunk index from the root seed: it samples its
inputs as one matrix, draws one deletion mask and runs one batched DP.
``estimate_rate`` draws its two halves from separate seeds, so running
them at the same time (``threads > 1``) gives bit-identical results.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from delchan.channel import _deletion_mask, _output_run_lengths
from delchan.likelihood import _band_counts, log2_binomial
from delchan.sources import DEFAULT_SEED, SourceSpec, _sample_rows, sample_sequence
from delchan.sources import _as_seed_sequence, _rng_from

__all__ = [
    "RateEstimate",
    "estimate_h_cond",
    "estimate_h_out_renewal",
    "estimate_rate",
]

_BURN_IN_RUNS = 64
_L_CAP = 64
_BOOTSTRAP_RESAMPLES = 200
_MIN_COUNT_PER_SUPPORT_POINT = 100
#: Replicas per RNG stream and batched embedding DP: fixed (the draws
#: depend on it) and small (so it bounds memory).
_CHUNK = 64


@dataclass(frozen=True)
class RateEstimate:
    """One Monte Carlo rate estimation run.

    ``rate = h_out - h_cond``; ``std_err`` is the quadrature sum of the
    component errors.  ``mode`` is ``"exact-renewal"`` when the output
    entropy identity is exact for the source (renewal or uniform
    inputs) and ``"upper-bound"`` for Markov inputs.
    """

    rate: float
    h_out: float
    h_cond: float
    std_err: float
    n: int
    samples: int
    d: float
    seed: int
    mode: str

    def to_json(self, *, indent: "int | None" = None) -> str:
        return json.dumps(asdict(self), indent=indent)


def _check_h_cond_args(d: float, n: int, samples: int) -> None:
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"deletion probability must be in [0, 1], got {d!r}")


def _check_out_bits(out_bits: int) -> None:
    if out_bits < 1:
        raise ValueError(f"out_bits must be >= 1, got {out_bits}")


def estimate_h_cond(
    spec: SourceSpec,
    d: float,
    n: int,
    samples: int,
    seed,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``H(Y|X, M)/n`` with its standard error.

    Each replica draws an input of length ``n`` from ``spec``, passes it
    through the channel, and evaluates
    ``(log2 C(n, m) - log2 N(x, y)) / n`` — the exact conditional
    information of the received string given input and output length.
    Replicas run in fixed chunks of 64, one RNG stream and one batched DP
    per chunk.
    """
    _check_h_cond_args(d, n, samples)
    if d == 0.0 or d == 1.0:
        # every mask (all-keep / all-delete) is certain: p(y|x, m) = 1
        return 0.0, 0.0

    chunks = _as_seed_sequence(seed).spawn(-(-samples // _CHUNK))
    ms_all = np.empty(samples, dtype=np.int64)
    log_n_all = np.empty(samples)
    for index, child in enumerate(chunks):
        start = index * _CHUNK
        rows = min(_CHUNK, samples - start)
        rng = _rng_from(child)
        xs = _sample_rows(spec, n, rows, rng)
        keep = _deletion_mask(xs.shape, d, rng) == 0
        ms = keep.sum(axis=1)
        ys = np.zeros_like(xs)
        ys[np.arange(n) < ms[:, None]] = xs[keep]
        top, scale = _band_counts(xs, ys, ms)
        ms_all[start : start + rows] = ms
        # y is a subsequence of x: N >= 1
        log_n_all[start : start + rows] = np.log2(top) + scale

    # log2 C(n, m) only at the output lengths drawn (a few dozen of n + 1)
    drawn, which = np.unique(ms_all, return_inverse=True)
    log2_binom = np.array([log2_binomial(n, m) for m in drawn.tolist()])
    values = (log2_binom[which] - log_n_all) / n

    mean = math.fsum(values.tolist()) / samples
    var = math.fsum(((v - mean) ** 2 for v in values.tolist()))
    std_err = math.sqrt(var / (samples * (samples - 1)))
    return mean, std_err


def _interior_output_run_lengths(lengths: np.ndarray) -> np.ndarray:
    burn = _BURN_IN_RUNS if lengths.size >= 2 * _BURN_IN_RUNS + 16 else 1
    if lengths.size < 2 * burn + 1:
        raise ValueError(
            f"output stream too short: {lengths.size} runs after the channel"
        )
    return lengths[burn:-burn]


def _plug_in_h_over_mu(
    counts: np.ndarray, total_runs: float, length_sum: float, miller_madow: bool
) -> float:
    """(plug-in entropy of counts/total) / (length_sum/total), in bits."""
    nz = counts[counts > 0.0]
    probs = nz / total_runs
    h = float(-np.sum(probs * np.log2(probs)))
    if miller_madow:
        h += (nz.size - 1) / (2.0 * total_runs * math.log(2.0))
    return h / (length_sum / total_runs)


def _h_out_from_stream(
    spec: SourceSpec,
    d: float,
    out_bits: int,
    seed,
    miller_madow: bool = False,
) -> tuple[float, float]:
    """Shared estimation path: (1-d) * H(q_hat)/mu_hat + bootstrap error."""
    _check_out_bits(out_bits)
    if not 0.0 <= d < 1.0:
        raise ValueError(
            f"deletion probability must be in [0, 1) for output simulation, got {d!r}"
        )
    sample_seed, boot_seed = _as_seed_sequence(seed).spawn(2)

    n_in = int(out_bits / (1.0 - d) * 1.02) + 1024
    rng = _rng_from(sample_seed)
    x = sample_sequence(spec, n_in, rng)
    interior = _interior_output_run_lengths(_output_run_lengths(x, d, rng))
    n_runs = int(interior.size)

    # run counts per contiguous block of runs, for the bootstrap below;
    # overflow is pooled at L_CAP+1
    n_blocks = max(8, min(64, n_runs // 200))
    edges = np.linspace(0, n_runs, n_blocks + 1).astype(np.int64)
    block_counts = np.zeros((n_blocks, _L_CAP), dtype=np.float64)
    block_runs = np.zeros(n_blocks)
    block_length_sums = np.zeros(n_blocks)
    for b in range(n_blocks):
        seg = interior[edges[b] : edges[b + 1]]
        c = np.bincount(np.minimum(seg, _L_CAP + 1), minlength=_L_CAP + 2)
        block_counts[b] = c[1 : _L_CAP + 1]
        block_runs[b] = seg.size
        block_length_sums[b] = seg.sum()
    support_counts = block_counts.sum(axis=0)  # integers: the sum is exact
    length_sum = float(interior.sum())

    # lengths never observed are structural zeros (e.g. deterministic run
    # laws without deletions), not evidence of a starved estimate
    check_to = min(8, int(interior.max()))
    weak = [
        l
        for l in range(1, check_to + 1)
        if 0.0 < support_counts[l - 1] < _MIN_COUNT_PER_SUPPORT_POINT
    ]
    if weak:
        warnings.warn(
            "underpowered output-entropy estimate: support points "
            f"{weak} have fewer than {_MIN_COUNT_PER_SUPPORT_POINT} "
            f"observed runs (total {n_runs}); increase out_bits",
            UserWarning,
            stacklevel=3,
        )
    over_cap = n_runs - int(support_counts.sum())
    if over_cap:
        warnings.warn(
            f"{over_cap} of {n_runs} output runs ({over_cap / n_runs:.2e}) "
            f"are longer than {_L_CAP}: they count toward the mean run length "
            "but not the entropy, so h_out is biased low",
            UserWarning,
            stacklevel=3,
        )

    # point estimate: entropy over the capped support, mean over all runs
    h_over_mu = _plug_in_h_over_mu(
        support_counts, float(n_runs), length_sum, miller_madow
    )
    h_out = (1.0 - d) * h_over_mu

    # block bootstrap over the contiguous run blocks
    boot_rng = _rng_from(boot_seed)
    replicas = np.empty(_BOOTSTRAP_RESAMPLES)
    for r in range(_BOOTSTRAP_RESAMPLES):
        picks = boot_rng.integers(0, n_blocks, n_blocks)
        c = block_counts[picks].sum(axis=0)
        runs = float(block_runs[picks].sum())
        lsum = float(block_length_sums[picks].sum())
        replicas[r] = (1.0 - d) * _plug_in_h_over_mu(c, runs, lsum, miller_madow)
    std_err = float(np.std(replicas, ddof=1))
    return h_out, std_err


def estimate_h_out_renewal(
    spec: SourceSpec,
    d: float,
    out_bits: int,
    seed,
    *,
    miller_madow: bool = False,
) -> tuple[float, float]:
    """Estimate ``lim H(Y)/n = (1-d) H(q_L)/mu(Y)`` for renewal inputs.

    Simulates enough input to produce about ``out_bits`` output bits,
    discards 64 burn-in runs at each end, and applies the plug-in
    entropy over run lengths (capped at 64; longer runs count toward
    ``mu_hat`` only, which biases the estimate low, and a ``UserWarning``
    reports how many there were).  ``miller_madow`` adds the
    (K-1)/(2N ln 2) bias correction.  The standard error is a
    contiguous-block bootstrap.
    Markov sources are refused — their channel output is not renewal —
    use ``estimate_rate``, which reports the same formula as an
    explicit upper bound.
    """
    if not spec.is_renewal_like:
        raise ValueError(
            "output of a Markov source is not a renewal process; "
            "use estimate_rate for the labeled upper-bound estimate"
        )
    return _h_out_from_stream(spec, d, out_bits, seed, miller_madow=miller_madow)


def estimate_rate(
    spec: SourceSpec,
    d: float,
    *,
    n: int,
    samples: int,
    out_bits: int,
    threads: int = 1,
    seed: int = DEFAULT_SEED,
    miller_madow: bool = False,
) -> RateEstimate:
    """Monte Carlo achievable-rate estimate ``h_out - h_cond``.

    ``mode`` is ``"exact-renewal"`` for renewal/uniform sources (both
    components estimate their limits consistently) and
    ``"upper-bound"`` for Markov sources, whose output entropy is
    bounded by the run-length formula rather than equal to it.  The
    result is deterministic given ``seed`` and the sampling sizes.  The
    arguments of ``estimate_h_cond`` and ``out_bits`` are checked before
    either half starts.  The two halves draw from separate seeds;
    ``threads > 1`` runs ``estimate_h_cond`` on a worker thread during the
    output stream, which changes neither the result nor the errors raised.
    More than 2 threads add nothing.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_h_cond_args(d, n, samples)
    _check_out_bits(out_bits)
    seed = int(seed)
    cond_seed, out_seed = np.random.SeedSequence(seed).spawn(2)
    cond_args = (spec, d, n, samples, cond_seed)
    h_out, se_out = 0.0, 0.0  # d == 1: the output is empty
    # the stream stays on this thread, so its warning still points at the
    # caller and reaches the caller's warnings.catch_warnings
    with ThreadPoolExecutor(max_workers=1) as pool:
        cond = pool.submit(estimate_h_cond, *cond_args) if threads > 1 else None
        if d != 1.0:
            h_out, se_out = _h_out_from_stream(
                spec, d, out_bits, out_seed, miller_madow
            )
    h_cond, se_cond = cond.result() if cond else estimate_h_cond(*cond_args)
    mode = "exact-renewal" if spec.is_renewal_like else "upper-bound"
    return RateEstimate(
        rate=h_out - h_cond,
        h_out=h_out,
        h_cond=h_cond,
        std_err=math.hypot(se_cond, se_out),
        n=n,
        samples=samples,
        d=d,
        seed=seed,
        mode=mode,
    )
