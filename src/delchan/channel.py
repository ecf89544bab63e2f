"""Deletion channel, the modified deletion mask, and run segmentation.

The deletion channel drops each input bit independently with probability
``d``; the surviving bits, in order, form the output.  ``modified_mask``
is the structured variant of the deletion *mask* used by the closed-form
entropy analysis: deletions are reversed in every input run that suffers
three or more of them.

Segmentation utilities decompose a sequence into maximal runs
(``run_lengths``) and split the runs into *super-runs* (a first run
followed by the maximal stretch of length-1 runs) with array operations.

A bit is kept when its uniform ``u >= d`` (``d`` of 0 or 1 draws none).
Long output streams apply the channel in fixed blocks of input bits,
drawing the same numbers as ``transmit``.  Each block indexes its kept
bits once and writes the differences of consecutive output run starts
straight into the run-length buffer; only the open run's start and the
last output bit carry into the next block.  Its memory is the sampled
input (one byte per input bit) plus one int32 per output run, and block
buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from delchan.constants import _check_d_closed
from delchan.sources import _BLOCK, _rng_from, as_bits

__all__ = [
    "DeletionRealization",
    "SuperRunType",
    "apply_mask",
    "modified_mask",
    "run_lengths",
    "segment_super_runs",
    "transmit",
]


class SuperRunType(NamedTuple):
    """A super-run: first-run length and total length of trailing 1-runs."""

    l_rep: int
    l_alt: int


@dataclass(frozen=True, eq=False)
class DeletionRealization:
    """One channel use: input ``x``, deletion ``mask`` (1 = deleted), output ``y``."""

    x: np.ndarray
    mask: np.ndarray
    y: np.ndarray


def apply_mask(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Channel output: the mask-0 positions of ``x``, order preserved."""
    return x[mask == 0]


def transmit(x, d: float, seed) -> DeletionRealization:
    """Pass ``x`` through the deletion channel with i.i.d. Bernoulli(d) mask.

    ``seed`` may be an int, ``SeedSequence``, or ``Generator`` (derived
    streams).  Deterministic given the seed.
    """
    _check_d_closed(d)
    x = as_bits(x)
    keep = _keep_mask(x.shape, d, _rng_from(seed))
    return DeletionRealization(x=x, mask=(~keep).view(np.uint8), y=x[keep])


def _keep_mask(shape, d: float, rng: np.random.Generator, out=None) -> np.ndarray:
    """I.i.d. keep mask (True = kept, ``u >= d`` for a uniform ``u``) of any
    shape, e.g. ``(rows, n)`` for a batch; draws nothing when ``d`` is 0 or
    1.  ``out``, if given, is a float buffer of ``shape`` for the uniforms."""
    if d == 0.0 or d == 1.0:
        return np.full(shape, d == 0.0)
    return rng.random(shape, out=out) >= d


def _run_dtype(size: int) -> type:
    """Integer type for the run lengths of a ``size``-bit sequence: int32
    below 2^31 bits, int64 from there on.  No run is longer than the
    sequence.  Signed, so ``np.bincount`` can still cast it safely to
    ``intp``."""
    return np.int32 if size < 2**31 else np.int64


def _output_run_lengths(
    x: np.ndarray, d: float, rng: np.random.Generator
) -> np.ndarray:
    """``run_lengths(transmit(x, d, rng).y)`` from the same draws, run over
    blocks of ``_BLOCK`` input bits with no per-bit mask or output array.
    Each block indexes its kept bits once and finds its run starts as output
    indices; the differences of consecutive starts go straight into the run
    buffer.  Only the open run's start and the last output bit carry into
    the next block.

    The lengths come back as ``_run_dtype(x.size)``, int32 below 2^31
    input bits; numpy sums int32 arrays in int64, so every count and sum
    is the same as from int64.  Besides ``x``, the memory resident is one
    such integer per output run plus buffers of one block."""
    u = np.empty(min(_BLOCK, x.size))
    # at most one run per output bit; only the pages written are touched,
    # 4 bytes per output run below 2^31 input bits
    lengths = np.empty(x.size, dtype=_run_dtype(x.size))
    runs = 0  # runs ended
    out = start = last = 0  # output bits so far, open run's start, last bit
    for lo in range(0, x.size, _BLOCK):
        xb = x[lo : lo + _BLOCK]
        yb = np.compress(_keep_mask(xb.shape, d, rng, u[: xb.size]), xb)
        if yb.size == 0:
            continue
        if out and yb[0] != last:  # the block's first bit starts a run
            lengths[runs] = out - start
            runs += 1
            start = out
        # runs start at output indices out + 1 + starts
        starts = np.flatnonzero(yb[1:] != yb[:-1])
        if starts.size:
            lengths[runs] = out + 1 + starts[0] - start
            np.subtract(
                starts[1:],
                starts[:-1],
                out=lengths[runs + 1 : runs + starts.size],
                casting="same_kind",
            )
            runs += starts.size
            start = out + 1 + int(starts[-1])
        out += yb.size
        last = yb[-1]
    if out:
        lengths[runs] = out - start
        runs += 1
    return lengths[:runs]


# --------------------------------------------------------------------------
# run segmentation
# --------------------------------------------------------------------------


def run_lengths(x: np.ndarray) -> np.ndarray:
    """Lengths of the maximal runs of ``x`` (vectorized)."""
    if x.size == 0:
        return np.zeros(0, dtype=np.int64)
    changes = np.flatnonzero(x[1:] != x[:-1]) + 1
    return np.diff(np.concatenate(([0], changes, [x.size])))


def _super_run_arrays(x) -> tuple[np.ndarray, np.ndarray]:
    """``l_rep`` and ``l_alt`` of every super-run of ``x``, as two arrays."""
    lengths = run_lengths(as_bits(x))
    if lengths.size == 0:
        return lengths, lengths
    # the first run, and every later run of length >= 2, starts a super-run
    starts = np.flatnonzero(lengths[1:] >= 2) + 1
    starts = np.concatenate(([0], starts))
    l_alt = np.diff(starts, append=lengths.size) - 1
    return lengths[starts], l_alt


def segment_super_runs(x) -> list[SuperRunType]:
    """Greedy left-to-right super-run decomposition.

    A super-run is a first run (any length; length >= 2 except possibly
    for the leading super-run of the sequence) followed by the maximal
    stretch of length-1 runs.  ``sum(l_rep + l_alt)`` equals ``len(x)``.
    """
    l_rep, l_alt = _super_run_arrays(x)
    return list(map(SuperRunType, l_rep.tolist(), l_alt.tolist()))


# --------------------------------------------------------------------------
# modified deletion mask
# --------------------------------------------------------------------------


def modified_mask(x, mask) -> tuple[np.ndarray, np.ndarray]:
    """Reverse all deletions in every run of ``x`` carrying >= 3 of them.

    Returns ``(mask_hat, z)`` with ``z = mask XOR mask_hat`` (the
    reversed positions); ``z`` is 1 only where ``mask`` is 1.
    """
    x = as_bits(x)
    mask = as_bits(mask)
    if x.size != mask.size:
        raise ValueError(f"input and mask lengths differ ({x.size} vs {mask.size})")
    if x.size == 0:
        return mask.copy(), np.zeros(0, dtype=np.uint8)
    lengths = run_lengths(x)
    run_id = np.repeat(np.arange(lengths.size), lengths)
    dels_per_run = np.bincount(run_id, weights=mask, minlength=lengths.size)
    reversed_runs = dels_per_run >= 3
    z = (mask & reversed_runs[run_id]).astype(np.uint8)
    return (mask ^ z).astype(np.uint8), z
