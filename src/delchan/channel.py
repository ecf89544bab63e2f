"""Deletion channel, the modified deletion mask, and run segmentation.

The deletion channel drops each input bit independently with probability
``d``; the surviving bits, in order, form the output.  ``modified_mask``
is the structured variant of the deletion *mask* used by the closed-form
entropy analysis: deletions are reversed in every input run that suffers
three or more of them.

Segmentation utilities decompose a sequence into maximal runs
(``run_lengths``) and split the runs into *super-runs* (a first run
followed by the maximal stretch of length-1 runs) with array operations.

One keep mask (``_keep_mask``) serves ``transmit`` and the long output
streams of ``delchan.estimation`` (``_output_run_lengths``), so both make
the same draws; only this module decodes a stream's byte per output run.
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


class _OutputRuns(NamedTuple):
    """Run lengths in one byte each (``short``, saturated at 255); the run at
    ``long_at[i]`` (ascending) is ``long[i]`` >= 255 bits long.  Other modules
    read the bytes as capped lengths and exact sums from :meth:`length_sum`."""

    short: np.ndarray  # uint8
    long_at: np.ndarray
    long: np.ndarray

    def length_sum(self, lo: int, hi: int) -> int:
        """Exact total length of runs ``lo..hi-1``."""
        a, b = np.searchsorted(self.long_at, (lo, hi))
        rest = self.long[a:b].sum() - 255 * (b - a)
        return int(self.short[lo:hi].sum(dtype=np.int64) + rest)


def _output_run_lengths(
    x: np.ndarray, d: float, rng: np.random.Generator
) -> _OutputRuns:
    """``run_lengths(transmit(x, d, rng).y)`` from the same draws, run over
    blocks of ``_BLOCK`` input bits with no per-bit mask or output array.
    Each block indexes its kept bits once, finds its run starts as output
    indices and writes the differences of consecutive starts into one
    scratch buffer, which is stored saturated into the byte per run.  Only
    the open run's start and the last output bit carry into the next
    block.  Besides ``x``, the memory resident is one byte per output run,
    the rare runs of 255 bits or more, and buffers of one block."""
    u = np.empty(min(_BLOCK, x.size))
    scratch = np.empty(min(_BLOCK, x.size) + 1, dtype=np.intp)
    # at most one run per output bit; only the pages written are touched
    short = np.empty(x.size, dtype=np.uint8)
    long_at, long = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    runs = 0  # runs ended
    out = start = last = 0  # output bits so far, open run's start, last bit
    for lo in range(0, x.size, _BLOCK):
        xb = x[lo : lo + _BLOCK]
        yb = np.compress(_keep_mask(xb.shape, d, rng, u[: xb.size]), xb)
        k = 0  # runs ended in this block, their lengths in scratch[:k]
        if yb.size:
            if out and yb[0] != last:  # the block's first bit starts a run
                scratch[0] = out - start
                k, start = 1, out
            # runs start at output indices out + 1 + starts
            starts = np.flatnonzero(yb[1:] != yb[:-1])
            if starts.size:
                scratch[k] = out + 1 + starts[0] - start
                np.subtract(
                    starts[1:], starts[:-1], out=scratch[k + 1 : k + starts.size]
                )
                k += starts.size
                start = out + 1 + int(starts[-1])
            out += yb.size
            last = yb[-1]
        if lo + _BLOCK >= x.size and out:  # the open run ends the stream
            scratch[k] = out - start
            k += 1
        if k:
            ended = scratch[:k]
            np.minimum(ended, 255, out=short[runs : runs + k], casting="unsafe")
            if ended.max() >= 255:
                at = np.flatnonzero(ended >= 255)
                long_at.append(at + runs)
                long.append(ended[at])
            runs += k
    return _OutputRuns(short[:runs], np.concatenate(long_at), np.concatenate(long))


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
