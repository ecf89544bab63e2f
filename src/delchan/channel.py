"""Deletion channel, the modified deletion mask, and run segmentation.

The deletion channel drops each input bit independently with probability
``d``; the surviving bits, in order, form the output.  ``modified_mask``
is the structured variant of the deletion *mask* used by the closed-form
entropy analysis: deletions are reversed in every input run that suffers
three or more of them.

Segmentation utilities decompose a sequence into maximal runs and into
*super-runs* (a first run followed by the maximal stretch of length-1
runs).

Long output streams run through a private path that applies the channel
and the run segmentation in fixed blocks of input bits, drawing the same
Philox numbers as ``transmit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from delchan.sources import _BLOCK, _check_deletion_probability, _rng_from, as_bits

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
    _check_deletion_probability(d)
    x = as_bits(x)
    mask = _deletion_mask(x.shape, d, _rng_from(seed))
    return DeletionRealization(x=x, mask=mask, y=apply_mask(x, mask))


def _deletion_mask(shape, d: float, rng: np.random.Generator, out=None) -> np.ndarray:
    """I.i.d. Bernoulli(d) deletion mask (1 = deleted) of any shape, e.g.
    ``(rows, n)`` for a batch; draws nothing when ``d`` is 0 or 1.
    ``out``, if given, is a float buffer of ``shape`` for the uniforms."""
    if d == 0.0 or d == 1.0:
        return np.full(shape, d == 1.0, dtype=np.uint8)
    return (rng.random(shape, out=out) < d).view(np.uint8)


def _output_run_lengths(
    x: np.ndarray, d: float, rng: np.random.Generator
) -> np.ndarray:
    """``run_lengths(transmit(x, d, rng).y)`` from the same draws, run over
    blocks of ``_BLOCK`` input bits with no per-bit mask or output array;
    the run open at the end of a block carries into the next."""
    u = np.empty(min(_BLOCK, x.size))
    # at most one run per output bit; only the pages written are touched
    lengths = np.empty(x.size, dtype=np.int64)
    runs = m = 0  # runs ended and output bits so far
    start = last = 0  # start position and value of the open run
    for lo in range(0, x.size, _BLOCK):
        xb = x[lo : lo + _BLOCK]
        yb = apply_mask(xb, _deletion_mask(xb.shape, d, rng, u[: xb.size]))
        if yb.size == 0:
            continue
        starts = np.flatnonzero(yb[1:] != yb[:-1])
        starts += m + 1
        if m and yb[0] != last:  # the block starts a new run
            starts = np.concatenate(([m], starts))
        if starts.size:
            lengths[runs : runs + starts.size] = np.diff(starts, prepend=start)
            runs += starts.size
            start = int(starts[-1])
        m += yb.size
        last = yb[-1]
    if m == 0:
        return lengths[:0]
    lengths[runs] = m - start
    return lengths[: runs + 1]


# --------------------------------------------------------------------------
# run segmentation
# --------------------------------------------------------------------------


def run_lengths(x: np.ndarray) -> np.ndarray:
    """Lengths of the maximal runs of ``x`` (vectorized)."""
    if x.size == 0:
        return np.zeros(0, dtype=np.int64)
    changes = np.flatnonzero(x[1:] != x[:-1]) + 1
    return np.diff(np.concatenate(([0], changes, [x.size])))


def segment_super_runs(x) -> list[SuperRunType]:
    """Greedy left-to-right super-run decomposition.

    A super-run is a first run (any length; length >= 2 except possibly
    for the leading super-run of the sequence) followed by the maximal
    stretch of length-1 runs.  ``sum(l_rep + l_alt)`` equals ``len(x)``.
    """
    x = as_bits(x)
    lengths = run_lengths(x)
    if lengths.size == 0:
        return []
    # every run of length >= 2 (except a leading one) starts a new super-run
    starts = np.flatnonzero(lengths >= 2)
    starts = starts[starts > 0]
    bounds = np.concatenate(([0], starts, [lengths.size]))
    out = []
    for i in range(len(bounds) - 1):
        first = int(lengths[bounds[i]])
        n_alt = int(bounds[i + 1] - bounds[i] - 1)
        out.append(SuperRunType(l_rep=first, l_alt=n_alt))
    return out


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
