"""Deletion channel, modified/perturbed deletion variants, and segmentation.

The deletion channel drops each input bit independently with probability
``d``; the surviving bits, in order, form the output.  This module also
implements two structured variants of the deletion *mask* used by the
closed-form entropy analysis:

* ``modified_mask``: deletions are reversed in every input run that
  suffers three or more of them;
* ``perturbed_mask``: deletions are reversed inside super-run ``S_i``
  whenever the window ``(S_i, S_{i+1}, S_{i+2})`` carries three or more
  deletions in total (windows are always evaluated on the ORIGINAL
  mask, so reversals never cascade; trailing windows use only the
  super-runs that exist).

Segmentation utilities decompose a sequence into maximal runs, into
*super-runs* (a first run followed by the maximal stretch of length-1
runs), and into *parent blocks*: the grouping ``X(1)..X(M)`` of input
runs that produced each output run ``Y(1)..Y(M)``, together with the
block-length vector ``K = (|X(1)|, ..., |X(M-1)|)``.

Long output streams run through a private path that applies the channel
and the run segmentation in fixed blocks of input bits, drawing the same
Philox numbers as ``transmit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from delchan.sources import _BLOCK, _rng_from, as_bits

__all__ = [
    "DeletionRealization",
    "ParentSegmentation",
    "SuperRunType",
    "apply_mask",
    "modified_mask",
    "parent_segmentation",
    "perturbed_mask",
    "run_lengths",
    "segment_runs",
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


@dataclass(frozen=True, eq=False)
class ParentSegmentation:
    """Parent blocks ``X(1)..X(M)``, output runs ``Y(1)..Y(M)``, and ``K``.

    Concatenating ``x_blocks`` reproduces ``x``; concatenating
    ``y_blocks`` reproduces ``y``; every ``Y(j)`` is a single (possibly
    empty, for ``j = 1``) run of ``y``.  ``K`` lists ``|X(j)|`` for
    ``j < M``.
    """

    x_blocks: list[str]
    y_blocks: list[str]
    K: tuple[int, ...]


def apply_mask(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Channel output: the mask-0 positions of ``x``, order preserved."""
    return x[mask == 0]


def transmit(x, d: float, seed) -> DeletionRealization:
    """Pass ``x`` through the deletion channel with i.i.d. Bernoulli(d) mask.

    ``seed`` may be an int, ``SeedSequence``, or ``Generator`` (derived
    streams).  Deterministic given the seed.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"deletion probability must be in [0, 1], got {d!r}")
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


def _run_boundaries(x: np.ndarray) -> np.ndarray:
    """Start indices of maximal runs (plus the terminal sentinel)."""
    if x.size == 0:
        return np.zeros(1, dtype=np.int64)
    changes = np.flatnonzero(x[1:] != x[:-1]) + 1
    return np.concatenate(([0], changes, [x.size]))


def run_lengths(x: np.ndarray) -> np.ndarray:
    """Lengths of the maximal runs of ``x`` (vectorized)."""
    b = _run_boundaries(x)
    return np.diff(b) if x.size else np.zeros(0, dtype=np.int64)


def segment_runs(x) -> list[tuple[int, int]]:
    """Maximal-block decomposition as ``[(value, length), ...]``."""
    x = as_bits(x)
    if x.size == 0:
        return []
    b = _run_boundaries(x)
    return [(int(x[b[i]]), int(b[i + 1] - b[i])) for i in range(len(b) - 1)]


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


def _super_run_total_lengths(x: np.ndarray) -> np.ndarray:
    return np.array([t.l_rep + t.l_alt for t in segment_super_runs(x)], dtype=np.int64)


# --------------------------------------------------------------------------
# modified / perturbed deletion masks
# --------------------------------------------------------------------------


def _check_same_length(x: np.ndarray, mask: np.ndarray) -> None:
    if x.size != mask.size:
        raise ValueError(
            f"input and mask lengths differ ({x.size} vs {mask.size})"
        )


def modified_mask(x, mask) -> tuple[np.ndarray, np.ndarray]:
    """Reverse all deletions in every run of ``x`` carrying >= 3 of them.

    Returns ``(mask_hat, z)`` with ``z = mask XOR mask_hat`` (the
    reversed positions); ``z`` is 1 only where ``mask`` is 1.
    """
    x = as_bits(x)
    mask = as_bits(mask)
    _check_same_length(x, mask)
    if x.size == 0:
        return mask.copy(), np.zeros(0, dtype=np.uint8)
    lengths = run_lengths(x)
    run_id = np.repeat(np.arange(lengths.size), lengths)
    dels_per_run = np.bincount(run_id, weights=mask, minlength=lengths.size)
    reversed_runs = dels_per_run >= 3
    z = (mask & reversed_runs[run_id]).astype(np.uint8)
    return (mask ^ z).astype(np.uint8), z


def perturbed_mask(x, mask) -> tuple[np.ndarray, np.ndarray]:
    """Reverse deletions inside super-run ``S_i`` when the window
    ``(S_i, S_{i+1}, S_{i+2})`` holds >= 3 deletions in total.

    All windows are evaluated on the original ``mask`` (reversals do not
    cascade); windows extending past the last super-run count only the
    existing ones.  Returns ``(mask_breve, z_breve)`` with
    ``z_breve = mask XOR mask_breve``.
    """
    x = as_bits(x)
    mask = as_bits(mask)
    _check_same_length(x, mask)
    if x.size == 0:
        return mask.copy(), np.zeros(0, dtype=np.uint8)
    totals = _super_run_total_lengths(x)
    sr_id = np.repeat(np.arange(totals.size), totals)
    dels = np.bincount(sr_id, weights=mask, minlength=totals.size)
    padded = np.concatenate((dels, [0.0, 0.0]))
    window = padded[:-2] + padded[1:-1] + padded[2:]
    reversed_srs = window >= 3
    z = (mask & reversed_srs[sr_id]).astype(np.uint8)
    return (mask ^ z).astype(np.uint8), z


# --------------------------------------------------------------------------
# parent segmentation
# --------------------------------------------------------------------------


def parent_segmentation(x, mask) -> ParentSegmentation:
    """Group input runs into the parent blocks of each output run.

    Walks the runs of ``x`` in order, appending each run's bits to the
    current block when the run's surviving bits ``omega`` are empty or
    match the current block's output value (starting from empty
    ``X(1) = Y(1) = ""``), and opening a new block otherwise.  ``K``
    excludes the final block's length.
    """
    x = as_bits(x)
    mask = as_bits(mask)
    _check_same_length(x, mask)

    x_blocks: list[list[str]] = [[]]
    y_blocks: list[list[str]] = [[]]
    block_value: int | None = None

    b = _run_boundaries(x)
    for i in range(len(b) - 1) if x.size else []:
        lo, hi = int(b[i]), int(b[i + 1])
        value = int(x[lo])
        sigma = str(value) * (hi - lo)
        survivors = int(hi - lo - int(mask[lo:hi].sum()))
        omega = str(value) * survivors
        merge = survivors == 0 or block_value is None or value == block_value
        if not merge:
            x_blocks.append([])
            y_blocks.append([])
        x_blocks[-1].append(sigma)
        y_blocks[-1].append(omega)
        if survivors > 0:
            block_value = value

    return ParentSegmentation(
        x_blocks=["".join(parts) for parts in x_blocks],
        y_blocks=["".join(parts) for parts in y_blocks],
        K=tuple(len("".join(parts)) for parts in x_blocks[:-1]),
    )
