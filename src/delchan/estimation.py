"""Monte Carlo rate estimation for deletion-channel input processes.

The achievable rate of a stationary input process splits as
``I/n = H(Y)/n - H(Y|X)/n``.  The output length ``M`` is a
Binomial(n, 1-d) variable independent of the input, so
``H(Y|X) = H(M) + H(Y|X, M)``.  The two halves estimate different things:

* ``estimate_h_cond`` — ``H(Y|X)/n`` at the ``n`` of the run: the Monte
  Carlo mean of ``(log2 C(n, m) - log2 N(x, y)) / n``, an unbiased
  estimate of ``H(Y|X, M)/n``, plus the exact constant ``H(M)/n``
  (``binomial_length_entropy``), which adds no variance.  Sample an
  input, pass it through the channel, count embeddings with the exact
  DP.  ``H(Y|X)/n`` is about flat in ``n`` (measured), while
  ``H(Y|X, M)/n`` alone sits about ``H(M)/n`` below it, with
  ``H(M) ~ (1/2) log2(2 pi e n d (1-d))``.
* the output-entropy half of ``estimate_rate`` — the output of a
  renewal source is again renewal, so ``H(Y)/n -> (1-d) H(q_L)/mu(Y)``
  exactly; estimated with the plug-in entropy of the interior output run
  lengths (first and last 64 runs discarded as burn-in) and a block
  bootstrap standard error.  Runs longer than 64 enter the mean run
  length but not the entropy, which biases the estimate low; a
  ``UserWarning`` reports how many there were.  This half estimates the
  limit as ``n`` grows, which ``rate = h_out - h_cond`` pairs with
  ``H(Y|X)/n``.

A ``RateEstimate``'s ``mode`` is ``"exact-renewal"`` for renewal and
uniform inputs and ``"upper-bound"`` for Markov inputs.  The identity is
exact for Markov inputs too: the runs of a symmetric Markov chain are
i.i.d. Geometric(1 - p_same), and the first run from a uniform first bit
has the same law, so the input is renewal.  Their estimates are still
labelled ``"upper-bound"``, the value the ``mc-stream`` gate in
``bench/workloads.py`` asserts; relabelling them ``"exact-renewal"``
belongs with a change to that benchmark.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from delchan.channel import _keep_mask, _output_run_lengths
from delchan.constants import _check_d_closed, _check_int, _entropy_bits
from delchan.likelihood import _band_counts, _log2_binomials, binomial_length_entropy
from delchan.runstats import _L_CAP, _capped_counts
from delchan.sources import DEFAULT_SEED, SourceSpec, _sample_rows, sample_sequence
from delchan.sources import _as_seed_sequence, _rng_from

__all__ = [
    "RateEstimate",
    "estimate_h_cond",
    "estimate_rate",
]

_BURN_IN_RUNS = 64
_BOOTSTRAP_RESAMPLES = 200
_MIN_COUNT_PER_SUPPORT_POINT = 100
#: Rows per embedding-DP call come in whole chunks of this size.
_CHUNK = 64
#: Input bits per embedding-DP call: as many whole chunks as fit, at least
#: one; the draws depend on the rows per call.  At n = 10 that is 51
#: chunks, so the kernel's fixed per-call cost is paid once per 3264
#: replicas, and its largest buffer (``min(n, 32) x (k + 1) x rows`` band
#: values) stays near 3 MB in float64, and near a quarter of that for the
#: int16 counts of n <= 17.  From n = 512 on a call holds one chunk.
_DP_BITS = 1 << 15


@dataclass(frozen=True)
class RateEstimate:
    """One Monte Carlo rate estimation run.

    ``rate = h_out - h_cond``; ``std_err`` is the quadrature sum of the
    component errors.  ``mode`` labels the input (see the module
    docstring).
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

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _check_h_cond_args(d: float, n: int, samples: int) -> tuple[int, int]:
    samples = _check_int("samples", samples, 2)
    n = _check_int("n", n, 1)
    _check_d_closed(d)
    return n, samples


def estimate_h_cond(
    spec: SourceSpec,
    d: float,
    n: int,
    samples: int,
    seed,
) -> tuple[float, float]:
    """Monte Carlo estimate of ``H(Y|X)/n`` with its standard error.

    Each replica draws an input of length ``n`` from ``spec``, passes it
    through the channel, and evaluates
    ``(log2 C(n, m) - log2 N(x, y)) / n`` — the exact conditional
    information of the received string given input and output length.
    Their mean estimates ``H(Y|X, M)/n``; the exact ``H(M)/n`` of the
    Binomial(n, 1-d) output length is added to it.
    All replicas draw from one stream; a ``SeedSequence`` is read, not
    spawned from.  One DP call covers whole 64-row chunks, up to 2^15 input
    bits, and gives each pair the same value in any batch.  Before any
    work: the integer rule on ``n >= 1``, ``samples >= 2`` and an int
    ``seed``, and the closed rule ``d`` in ``[0, 1]``.
    """
    n, samples = _check_h_cond_args(d, n, samples)
    root = _as_seed_sequence(seed)
    if d == 0.0 or d == 1.0:
        # every mask (all-keep / all-delete) is certain: p(y|x, m) = 1
        return 0.0, 0.0

    rng = _rng_from(root)
    per_call = _CHUNK * max(1, _DP_BITS // (_CHUNK * n))
    ms_all = np.empty(samples, dtype=np.int64)
    log_n_all = np.empty(samples)
    for start in range(0, samples, per_call):
        rows = min(per_call, samples - start)
        xs = _sample_rows(spec, n, rows, rng)
        keep = _keep_mask((rows, n), d, rng)
        ms = keep.sum(axis=1)
        ys = np.zeros_like(xs)
        ys[np.arange(n) < ms[:, None]] = xs[keep]
        top, scale = _band_counts(xs, ys, ms)
        ms_all[start : start + rows] = ms
        # y is a subsequence of x: N >= 1
        log_n_all[start : start + rows] = np.log2(top) + scale

    values = (_log2_binomials(n)[ms_all] - log_n_all) / n

    mean = math.fsum(values.tolist()) / samples
    var = math.fsum(((v - mean) ** 2 for v in values.tolist()))
    std_err = math.sqrt(var / (samples * (samples - 1)))
    return mean + binomial_length_entropy(n, d) / n, std_err


def _interior_output_run_lengths(lengths: np.ndarray) -> np.ndarray:
    burn = _BURN_IN_RUNS if lengths.size >= 2 * _BURN_IN_RUNS + 16 else 1
    if lengths.size < 2 * burn + 1:
        raise ValueError(
            f"output stream too short: {lengths.size} runs after the channel"
        )
    return lengths[burn:-burn]


def _h_out_from_stream(
    spec: SourceSpec, d: float, out_bits: int, seed
) -> tuple[float, float]:
    """Output entropy rate ``(1-d) H(q_hat)/mu_hat`` with a block bootstrap
    error; ``estimate_rate`` has checked ``out_bits`` and ``d < 1``.

    A table row per block of runs holds its counts of lengths ``1.._L_CAP``,
    its run count and its length sum.  One statistic of summed rows gives the
    point estimate (all rows) and each replicate (resampled rows).  Every
    entry is an integer below 2^53, so every sum of rows is exact.
    """
    sample_seed, boot_seed = _as_seed_sequence(seed).spawn(2)

    n_in = int(out_bits / (1.0 - d) * 1.02) + 1024
    rng = _rng_from(sample_seed)
    x = sample_sequence(spec, n_in, rng)
    interior = _interior_output_run_lengths(_output_run_lengths(x, d, rng))
    n_runs = int(interior.size)

    # contiguous blocks of runs, none empty; runs longer than _L_CAP count
    # toward the length sum but not the counts
    n_blocks = min(n_runs, max(8, min(64, n_runs // 200)))
    edges = np.linspace(0, n_runs, n_blocks + 1).astype(np.int64)
    blocks = np.split(interior, edges[1:-1])
    table = np.array(
        [np.append(_capped_counts(b, _L_CAP), (b.size, b.sum())) for b in blocks],
        np.float64,
    )

    def h_out_of(total: np.ndarray) -> float:
        counts, runs, length_sum = total[:-2], total[-2], total[-1]
        return float((1.0 - d) * (_entropy_bits(counts / runs) / (length_sum / runs)))

    total = table.sum(axis=0)
    # lengths never observed are structural zeros (e.g. deterministic run
    # laws without deletions), not evidence of a starved estimate
    weak = [
        l for l in range(1, 9) if 0.0 < total[l - 1] < _MIN_COUNT_PER_SUPPORT_POINT
    ]
    if weak:
        warnings.warn(
            "underpowered output-entropy estimate: support points "
            f"{weak} have fewer than {_MIN_COUNT_PER_SUPPORT_POINT} "
            f"observed runs (total {n_runs}); increase out_bits",
            UserWarning,
            stacklevel=3,
        )
    over_cap = n_runs - int(total[:-2].sum())
    if over_cap:
        warnings.warn(
            f"{over_cap} of {n_runs} output runs ({over_cap / n_runs:.2e}) "
            f"are longer than {_L_CAP}: they count toward the mean run length "
            "but not the entropy, so h_out is biased low",
            UserWarning,
            stacklevel=3,
        )

    picks = _rng_from(boot_seed).integers(0, n_blocks, (_BOOTSTRAP_RESAMPLES, n_blocks))
    replicas = [h_out_of(table[p].sum(axis=0)) for p in picks]
    return h_out_of(total), float(np.std(replicas, ddof=1))


def estimate_rate(
    spec: SourceSpec,
    d: float,
    *,
    n: int,
    samples: int,
    out_bits: int,
    threads: int = 1,
    seed: int = DEFAULT_SEED,
) -> RateEstimate:
    """Monte Carlo achievable-rate estimate ``h_out - h_cond``.

    ``mode`` labels the input as the module docstring explains.  The
    result is deterministic given ``seed`` and the sampling sizes.  Before
    either half starts: the integer rule on ``threads``, ``n``,
    ``out_bits`` (each >= 1), ``samples >= 2`` and ``seed >= 0`` (reported
    as an ``int``), and the closed rule ``d`` in ``[0, 1]``.  The two halves
    draw from separate seeds; ``threads > 1`` runs ``estimate_h_cond`` on a
    worker thread during the output stream, which changes neither the
    result nor the errors raised.  More than 2 threads add nothing.
    """
    threads = _check_int("threads", threads, 1)
    n, samples = _check_h_cond_args(d, n, samples)
    out_bits = _check_int("out_bits", out_bits, 1)
    seed = _check_int("seed", seed, 0)
    cond_seed, out_seed = np.random.SeedSequence(seed).spawn(2)
    cond_args = (spec, d, n, samples, cond_seed)
    h_out, se_out = 0.0, 0.0  # d == 1: the output is empty
    # the stream stays on this thread, so its warning still points at the
    # caller and reaches the caller's warnings.catch_warnings
    with ThreadPoolExecutor(max_workers=1) as pool:
        cond = pool.submit(estimate_h_cond, *cond_args) if threads > 1 else None
        if d != 1.0:
            h_out, se_out = _h_out_from_stream(spec, d, out_bits, out_seed)
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
