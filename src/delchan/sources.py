"""Run-length distributions and stationary binary source sampling.

A *renewal* binary source alternates runs of 0s and 1s whose lengths are
i.i.d. from a run-length pmf ``p_L``.  This module constructs the pmfs
used throughout the toolkit —

* ``geometric_half``: ``p*(l) = 2^-l`` (the run law of the i.i.d.
  uniform source),
* ``dagger_distribution``: the first-order capacity-achieving
  perturbation ``2^-l * (1 + d*(l*ln(l) - c2*l/2))``,

— and samples finite paths of Bernoulli(1/2), symmetric first-order
Markov, and renewal sources; a renewal path starts at a run boundary
(Palm start).

Sequences are numpy ``uint8`` arrays of 0/1 values; ``as_bits`` accepts
strings like ``"0110"`` for convenience.  Sampling uses numpy's SFC64
generator, chosen for speed; parallel streams are spawned from a
``SeedSequence``, so they are deterministic.  A private row-batched
sampler draws many paths from one stream (see ``delchan.estimation``).
A single long path is simulated in fixed blocks of ``_BLOCK`` draws from
the same stream, in the same order, so the bits do not depend on the
block size.  Every Markov and renewal path's bits are the running XOR of
its toggles (its first bit, then a 1 at each flip or run start), written
into one zeroed buffer and scanned in place over 8-byte words (parallel
prefix: Kogge & Stone, IEEE Trans. Computers C-22(8), 1973).

Run lengths are drawn by inverting the cumulative pmf, one uniform per
length, which gives exactly the draws of ``Generator.choice(p=probs)``.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from delchan.constants import _check_d_closed, _check_int, compute_constants

__all__ = [
    "DEFAULT_SEED",
    "RunLengthDistribution",
    "SourceSpec",
    "as_bits",
    "bits_to_str",
    "dagger_distribution",
    "dagger_mass",
    "geometric_half",
    "point_mass",
    "read_distribution",
    "sample_sequence",
    "write_distribution",
]

#: Fixed documented default seed (used by the CLI; never wall-clock).
DEFAULT_SEED = 0xDC0DE

#: Default truncation point for constructed distributions.  The
#: geometric-type laws used here leave < 2^-60 mass beyond 64.
DEFAULT_L_MAX = 64

#: Draws (input bits) per block of a long simulated path; results do not
#: depend on it, and a block's temporaries stay in cache.
_BLOCK = 1 << 16

#: Cells of the run-length guide table: cell ``c`` holds the uniforms in
#: ``[c/_GUIDE_CELLS, (c+1)/_GUIDE_CELLS)``.  A power of 2, so that
#: ``u * _GUIDE_CELLS`` is exact.
_GUIDE_CELLS = 1 << 12


# --------------------------------------------------------------------------
# bit-sequence helpers
# --------------------------------------------------------------------------


def _mapped_bytes(size: int) -> np.ndarray:
    """``size >= 1`` bytes in an anonymous memory map of their own, unmapped
    when the array is freed.

    Only the one-row sampler's buffer goes here, not to malloc.  Once
    glibc frees a block the size of a long stream's input, it raises its mmap
    threshold past that size and serves the next such block from the heap,
    where small allocations made between two streams can pin the freed block:
    a later stream then grows the heap by the whole block, so the peak RSS
    jumps by the input size after a number of streams that depends on every
    other allocation in the process.  The map is private and, where the
    platform can, prefaulted: a shared anonymous map is backed by shmem and
    takes a fault per page on first write.  A fresh map still costs its
    pages, about 3% of the time of a 2 * 10^7-bit stream over a reused block
    zeroed again (8-9 ms of 259-331 ms on a 2-core Xeon VM; a shared map
    cost 13-16 ms).
    """
    if hasattr(mmap, "MAP_PRIVATE"):
        flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
        return np.frombuffer(mmap.mmap(-1, size, flags=flags), np.uint8, size)
    return np.frombuffer(mmap.mmap(-1, size), np.uint8, size)  # Windows: no flags


def as_bits(x: "str | Sequence[int] | np.ndarray") -> np.ndarray:
    """Coerce a bit string like ``"0110"``, or an array or sequence whose
    elements all equal 0 or 1, to a uint8 array (a uint8 array is not copied)."""
    if isinstance(x, str):
        if x and set(x) - {"0", "1"}:
            raise ValueError(f"bit string may contain only '0'/'1', got {x!r}")
        return np.frombuffer(x.encode("ascii"), dtype=np.uint8) - ord("0")
    arr = x if isinstance(x, np.ndarray) else np.asarray(list(x))
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit array may contain only 0s and 1s")
    return arr.astype(np.uint8, copy=False)


def bits_to_str(bits: np.ndarray) -> str:
    """Render a uint8 bit array as a compact '0101' string."""
    return "".join("1" if b else "0" for b in np.asarray(bits).tolist())


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    """``seed`` itself if a SeedSequence, else one from the integer rule on ``seed``."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(_check_int("seed", seed, 0))


def _rng_from(seed) -> np.random.Generator:
    """Build an SFC64 generator, the one bit generator of the package, from
    an int seed, a SeedSequence, or a Generator (returned as it is)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.SFC64(_as_seed_sequence(seed)))


# --------------------------------------------------------------------------
# run-length distributions
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunLengthDistribution:
    """Truncated pmf over run lengths ``l = 1..L_max``.

    ``probs[l-1]`` is ``P(L = l)``, so ``L_max`` is ``probs.size``;
    probabilities are nonnegative and sum to 1 within 1e-12 (checked when
    built).  Build one with :meth:`from_weights`.
    ``discarded_mass`` records the pre-normalization mass beyond
    ``L_max`` for constructed laws (diagnostic metadata).
    """

    probs: np.ndarray
    discarded_mass: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    @staticmethod
    def from_weights(
        weights: "Sequence[float] | np.ndarray",
        discarded_mass: float = 0.0,
    ) -> "RunLengthDistribution":
        """Normalize nonnegative weights over lengths 1..len(weights)."""
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D sequence")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            bad = int(np.flatnonzero((w < 0.0) | ~np.isfinite(w))[0]) + 1
            raise ValueError(f"invalid weight at run length l={bad}")
        total = math.fsum(w.tolist())
        if total <= 0.0:
            raise ValueError("weights sum to zero")
        probs = w / total
        probs.flags.writeable = False
        return RunLengthDistribution(probs, discarded_mass)

    def validate(self) -> None:
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("non-finite probability")
        if np.any(self.probs < 0.0):
            raise ValueError("negative probability")
        if abs(math.fsum(self.probs.tolist()) - 1.0) > 1e-12:
            raise ValueError("probabilities do not sum to 1 within 1e-12")

    @property
    def L_max(self) -> int:
        """Longest run length of the support."""
        return self.probs.size

    @cached_property
    def mean(self) -> float:
        """``sum(l * probs[l-1])``."""
        return math.fsum((l + 1) * p for l, p in enumerate(self.probs.tolist()))

    @property
    def lengths(self) -> np.ndarray:
        """Support lengths ``1..L_max``."""
        return np.arange(1, self.L_max + 1)

    @cached_property
    def _cdf(self) -> "_InverseCdf":
        """Cumulative pmf and guide table for inverse-CDF sampling, built once."""
        return _inverse_cdf(self.probs)

    def prob(self, l: int) -> float:
        """``P(L = l)`` for an integer ``l >= 0`` (0 outside the support)."""
        if 1 <= _check_int("l", l, 0) <= self.L_max:
            return float(self.probs[l - 1])
        return 0.0


def geometric_half(L_max: int = DEFAULT_L_MAX) -> RunLengthDistribution:
    """Truncated, renormalized geometric law ``p*(l) = 2^-l``."""
    L_max = _check_int("L_max", L_max, 1)
    weights = 0.5 ** np.arange(1, L_max + 1)
    return RunLengthDistribution.from_weights(weights, discarded_mass=2.0**-L_max)


def point_mass(l: int) -> RunLengthDistribution:
    """Degenerate law concentrated on run length ``l``."""
    l = _check_int("l", l, 1)
    weights = np.zeros(l)
    weights[-1] = 1.0
    return RunLengthDistribution.from_weights(weights)


def dagger_mass(l: int, d: float) -> float:
    """Pre-truncation mass ``2^-l * (1 + d*(l*ln(l) - c2*l/2))``.

    The log is natural: only then does the perturbation sum to zero over
    all ``l``, so that the full series is a probability distribution.
    The integer rule ``l >= 1`` and the closed rule ``d`` in ``[0, 1]`` run
    before any work.
    """
    l = _check_int("l", l, 1)
    _check_d_closed(d)
    return _dagger_mass(l, d, compute_constants().c2)


def _dagger_mass(l: int, d: float, c2: float) -> float:
    return 2.0**-l * (1.0 + d * (l * math.log(l) - c2 * l / 2.0))


def dagger_distribution(d: float, L_max: int = DEFAULT_L_MAX) -> RunLengthDistribution:
    """First-order capacity-achieving run-length law, truncated to ``L_max``.

    ``p(l) ∝ 2^-l * (1 + d*(l*ln(l) - c2*l/2))`` renormalized over
    ``1..L_max``.  The closed rule ``d`` in ``[0, 1]`` and the integer rule
    ``L_max >= 1`` run before any work.
    """
    _check_d_closed(d)
    L_max = _check_int("L_max", L_max, 1)
    c2 = compute_constants().c2
    # every mass is positive: the smallest factor is 1 - c2/2 > 0.1, at l = d = 1
    weights = np.array([_dagger_mass(l, d, c2) for l in range(1, L_max + 1)])
    discarded = 1.0 - math.fsum(weights.tolist())
    return RunLengthDistribution.from_weights(weights, discarded_mass=discarded)


# --------------------------------------------------------------------------
# source specifications
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """A stationary ergodic binary source the toolkit can realize.

    ``kind`` is one of ``"bernoulli_half"``, ``"markov"`` (symmetric
    first-order, with ``P(X_i = X_{i-1}) = p_same``), or ``"renewal"``
    (i.i.d. run lengths from ``dist``).
    """

    kind: str
    p_same: float | None = None
    dist: RunLengthDistribution | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind == "bernoulli_half":
            if self.p_same is not None or self.dist is not None:
                raise ValueError("bernoulli_half takes no parameters")
        elif self.kind == "markov":
            if self.p_same is None or not 0.0 < self.p_same < 1.0:
                raise ValueError("markov requires 0 < p_same < 1")
        elif self.kind == "renewal":
            if self.dist is None:
                raise ValueError("renewal requires a run-length distribution")
        else:
            raise ValueError(f"unknown source kind {self.kind!r}")

    @staticmethod
    def bernoulli_half() -> "SourceSpec":
        return SourceSpec(kind="bernoulli_half")

    @staticmethod
    def markov(p_same: float) -> "SourceSpec":
        return SourceSpec(kind="markov", p_same=p_same)

    @staticmethod
    def renewal(dist: RunLengthDistribution) -> "SourceSpec":
        return SourceSpec(kind="renewal", dist=dist)

    @staticmethod
    def dagger(d: float) -> "SourceSpec":
        """Renewal source with the capacity-achieving run law for ``d``."""
        return SourceSpec.renewal(dagger_distribution(d))

    @property
    def is_renewal_like(self) -> bool:
        """True when the output-run entropy identity is exact (renewal laws)."""
        return self.kind in ("bernoulli_half", "renewal")


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------


class _InverseCdf(NamedTuple):
    """A run-length law as :func:`_sample_lengths` inverts it."""

    cdf: np.ndarray
    #: the length ``1..`` of every uniform in the cell, or 0 when a cdf
    #: point lies strictly inside the cell (the length depends on ``u``)
    guide: np.ndarray


def _inverse_cdf(probs: np.ndarray) -> _InverseCdf:
    """The cumulative pmf as ``Generator.choice(p=probs)`` builds it, and its
    guide table of ``_GUIDE_CELLS`` cells (indexed search: Chen & Asau, AIIE
    Transactions 6(2), 1974; Devroye 1986, sec. III.2.4).

    The length of a uniform ``u`` is ``searchsorted(cdf, u, "right") + 1``,
    which never decreases in ``u``.  Over a cell ``[a, b)`` it therefore lies
    between its value at ``a`` and ``searchsorted(cdf, b, "left") + 1``; the
    two agree exactly when no cdf point lies strictly inside the cell, and
    then the table holds that length.
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    edges = np.arange(_GUIDE_CELLS + 1) / _GUIDE_CELLS  # exact
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    hi = np.searchsorted(cdf, edges[1:], side="left")
    guide = np.where(lo == hi, lo + 1, 0)
    for table in (cdf, guide):
        table.setflags(write=False)  # cached: every sampler call shares it
    return _InverseCdf(cdf, guide)


def _sample_lengths(rng, inv: _InverseCdf, shape, out=None) -> np.ndarray:
    """Lengths ``1..`` drawn by inversion: the draws of ``rng.choice(p=...)``
    (the uniforms go to the float buffer ``out`` if given).

    Each uniform reads the guide entry of its cell (``u * _GUIDE_CELLS`` is
    exact, and truncation gives the cell); only the uniforms in a cell that
    a cdf point splits are searched in the cdf.
    """
    u = rng.random(shape, out=out)
    lengths = inv.guide[(u * _GUIDE_CELLS).astype(np.intp)]
    split = np.flatnonzero(lengths == 0)
    if split.size:
        lengths.flat[split] = np.searchsorted(inv.cdf, u.flat[split], side="right") + 1
    return lengths


def _running_xor(buf: np.ndarray) -> None:
    """Running XOR, in place, of the 0/1 bytes of ``buf`` (a multiple of 8 of them):
    three shifted XORs scan each ``<u8`` word, then earlier words' parity is added."""
    w = buf.view("<u8")
    for shift in (8, 16, 32):
        w ^= w << shift
    parity = buf[7::8].cumsum(dtype=np.uint8) & 1  # mod 256 keeps the parity
    w[1:] ^= parity[:-1] * np.uint64(0x0101010101010101)  # to all 8 bytes


def _scan_toggles(buf: np.ndarray, lo: int, hi: int) -> int:
    """Turn the toggles ``buf[lo:hi]`` (``lo``, ``hi`` multiples of 8) into bits
    in place after the bits before ``lo``: the last of them is folded into the
    first toggle, then the running XOR is taken.  Returns ``hi``."""
    words = buf[lo:hi]
    if lo and words.size:
        words[0] ^= buf[lo - 1]
    _running_xor(words)
    return hi


def _sample_rows(
    spec: SourceSpec,
    n: int,
    rows: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``rows`` independent paths of ``n >= 1`` bits, shape ``(rows, n)``.

    Each draw is made for all rows at once, so one row draws exactly what
    :func:`sample_sequence` documents.  One row draws blocks of ``_BLOCK``
    into a private map, a batch whole rows.  Row 0's finished words are
    scanned as written, the rest at the end, then each row's carry undone.
    """
    if spec.kind == "bernoulli_half":
        return rng.integers(0, 2, size=(rows, n), dtype=np.uint8)

    size = (rows * n + 8) & ~7  # whole words, with a byte past the last row
    buf = _mapped_bytes(size) if rows == 1 else np.zeros(size, dtype=np.uint8)
    toggles = buf[: rows * n].reshape(rows, n)
    done = 0  # the bits before ``done``, all in row 0, are final

    if spec.kind == "markov":
        toggles[:, :1] = rng.integers(0, 2, size=(rows, 1), dtype=np.uint8)
        step = _BLOCK if rows == 1 else n
        u = np.empty((rows, min(step, n - 1)))
        for lo in range(1, n, step):
            flips = toggles[:, lo : lo + step].view(np.bool_)
            uniforms = rng.random(out=u[:, : flips.shape[1]])
            np.greater_equal(uniforms, spec.p_same, out=flips)
            done = _scan_toggles(buf, done, (lo + flips.shape[1]) & ~7)
    else:
        dist = spec.dist
        assert dist is not None
        first = rng.integers(0, 2, size=(rows, 1))
        toggles[:, :1] = first
        # flat positions: where each row's drawn runs end, and the row's end
        ends = np.arange(0, rows * n, n)[:, None]
        limits = ends + n
        # Draw run lengths in deterministic-size batches until n bits are
        # covered.  One row inverts block by block until it is covered; the
        # rest of its batch is still drawn, so later draws do not move.
        batch = max(16, int(n / dist.mean * 1.25) + 16)
        step = min(_BLOCK, batch) if rows == 1 else batch
        u = np.empty((rows, step))
        while (ends < limits).any():
            for lo in range(0, batch, step):
                k = min(step, batch - lo)
                if not (ends < limits).any():
                    rng.random(out=u[:, :k])
                    continue
                starts = _sample_lengths(rng, dist._cdf, (rows, k), u[:, :k])
                starts[:, :1] += ends
                np.cumsum(starts, axis=1, out=starts)
                # a run start at or past a row's end lands on that end: the
                # byte past the last row, or the next row's first toggle,
                # which is written again after the loop
                np.minimum(starts, limits, out=starts)
                buf[starts] = 1
                ends = starts[:, -1:]
                done = _scan_toggles(buf, done, int(ends[0, 0]) & ~7)
        toggles[:, :1] = first  # row 0: its first bit already, the same value

    _scan_toggles(buf, done, size)
    toggles[1:] ^= toggles[:-1, -1:]  # ufuncs buffer an operand overlapping the output
    return toggles


def sample_sequence(spec: SourceSpec, n: int, seed) -> np.ndarray:
    """Sample ``n`` bits of the source as a uint8 array.

    Deterministic function of ``(spec, n, seed)``.  ``seed`` may be an
    int, a ``numpy.random.SeedSequence``, or an existing ``Generator``
    (for derived parallel streams).

    Renewal sources alternate run values with i.i.d. lengths, starting
    at a run boundary (Palm start).
    """
    n = _check_int("n", n, 0)
    rng = _rng_from(seed)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    return _sample_rows(spec, n, 1, rng)[0]


# --------------------------------------------------------------------------
# distribution file I/O
# --------------------------------------------------------------------------


def write_distribution(
    path, dist: RunLengthDistribution, comment: str | None = None
) -> None:
    """Write a run-length pmf as UTF-8 lines ``l<TAB>prob`` (l = 1..L_max).

    Trailing comment lines start with ``#``.  Floats are written with
    ``repr`` so reading the file back reproduces them bit-exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if comment is not None:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for l, p in zip(dist.lengths.tolist(), dist.probs.tolist()):
            fh.write(f"{l}\t{p!r}\n")


def read_distribution(path) -> RunLengthDistribution:
    """Read a run-length pmf written by :func:`write_distribution`.

    Lines are ``l<TAB>prob`` with lengths strictly increasing from 1
    (gaps are filled with zero probability); ``#`` lines and blank lines
    are ignored.  Raises ``ValueError`` naming the offending line number
    on malformed input.  Probabilities must be nonnegative and sum to 1
    within 1e-6 (the stored values are renormalized exactly).
    """
    entries: list[tuple[int, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(
                    f"{path}: line {lineno}: expected 'l<TAB>prob', got {raw!r}"
                )
            try:
                l = int(parts[0])
                p = float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            if p < 0.0 or not math.isfinite(p):
                raise ValueError(f"{path}: line {lineno}: invalid probability {p!r}")
            if entries and l <= entries[-1][0]:
                raise ValueError(
                    f"{path}: line {lineno}: lengths must be strictly increasing"
                )
            if not entries and l != 1:
                raise ValueError(f"{path}: line {lineno}: lengths must start at 1")
            entries.append((l, p))
    if not entries:
        raise ValueError(f"{path}: no distribution entries found")
    L_max = entries[-1][0]
    weights = np.zeros(L_max)
    for l, p in entries:
        weights[l - 1] = p
    total = math.fsum(w for _, w in entries)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(
            f"{path}: probabilities sum to {total!r}, not 1 within 1e-6"
        )
    return RunLengthDistribution.from_weights(weights)
