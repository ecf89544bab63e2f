"""Executable verification checks behind the ``verify`` CLI command.

Each ``check_*`` function runs one self-contained group of numerical
checks — published-value pins, oracle equivalences, formula/simulation
cross-checks — and returns machine-readable :class:`CheckResult` rows.
Suites group them for the command line:

* ``constants`` — series constants and the capacity table,
* ``formulas``  — closed-form identities and second-order pins,
* ``dp``        — embedding-count DP against brute-force enumeration,
* ``lemmas``    — empirical run-statistics properties,
* ``rates``     — Monte Carlo estimators against exact oracles.

The published reference values live here: the series constants and
printed estimates below, and the published capacity bounds, read from the
bundled ``data/table1_bounds.csv`` by :class:`BoundsTable` (which the
``table`` and ``plot-data`` commands use too).

Every check reports its measured value, target, and tolerance; nothing
is clamped or retried.  One pin is expected to fail: the published
rounding 0.904 for the combination ``A2 - A2' + c4`` is inconsistent
with the defining series, whose value is 0.790197 — the check reports
that discrepancy honestly rather than adjusting either side.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from importlib import resources

import numpy as np

from delchan.analytics import (
    hatD_entropy_formula,
    hy_given_x_formula,
    k_entropy_formula,
    optimal_markov_param,
)
from delchan.channel import modified_mask, run_lengths, transmit
from delchan.constants import capacity_estimate, compute_constants
from delchan.estimation import estimate_h_cond, estimate_rate
from delchan.likelihood import (
    IMPOSSIBLE,
    _all_words,
    _band_counts,
    _embedding_sums,
    _weighted_totals,
    exact_block_information,
)
from delchan.runstats import (
    empirical_run_distribution,
    empirical_super_run_distribution,
)
from delchan.sources import (
    DEFAULT_SEED,
    SourceSpec,
    _as_seed_sequence,
    _rng_from,
    dagger_distribution,
    geometric_half,
    sample_sequence,
)

__all__ = [
    "BoundsTable",
    "CheckResult",
    "DEFAULT_D_GRID",
    "SuiteReport",
    "SUITES",
    "run_suite",
    "check_series_constants",
    "check_capacity_table",
    "check_markov_analytics",
    "check_dp_oracle",
    "check_small_block_oracle",
    "check_formula_pins",
    "check_formula_vs_simulation",
    "check_end_to_end_rate",
    "check_run_statistics",
    "check_determinism",
]

#: Published 8-decimal reference values for the series constants.
PUBLISHED_CONSTANTS = {
    "c2": 1.78628364,
    "A1": 1.15416377,
    "A2": 1.67814594,
    "c3": -0.88636960,
    "c4": 0.69001321,
    "c5": 0.60409609,
    "A2_prime": 1.57796256,
}

#: Published capacity estimates (printed column of Table 1, four decimals);
#: the published bounds are in ``data/table1_bounds.csv``.
PUBLISHED_ESTIMATES = {
    0.05: 0.7304,
    0.10: 0.5692,
    0.15: 0.4541,
    0.20: 0.3719,
    0.25: 0.3163,
    0.30: 0.2837,
    0.35: 0.2715,
    0.40: 0.2781,
    0.45: 0.3020,
    0.50: 0.3425,
}

#: d-grid of the estimate-only table, used when a bounds table has no rows.
DEFAULT_D_GRID = tuple(PUBLISHED_ESTIMATES)

_BOUNDS_HEADER = "d,lower,upper"


def _check_bounds_row(prev_d: float, d: float, lower: float, upper: float) -> None:
    """Raise ``ValueError`` unless ``prev_d < d < 1`` (``capacity_estimate``
    needs ``0 <= d < 1``) and ``0 <= lower <= upper <= 1``."""
    if d <= prev_d:
        raise ValueError("d values must be strictly increasing")
    if not 0.0 <= d < 1.0:
        raise ValueError("d must satisfy 0 <= d < 1")
    if not 0.0 <= lower <= upper <= 1.0:
        raise ValueError("bounds must satisfy 0 <= lower <= upper <= 1")


@dataclass(frozen=True)
class BoundsTable:
    """Published capacity bounds: rows of (d, lower, upper) in bits."""

    rows: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        prev_d = -math.inf
        for d, lower, upper in self.rows:
            _check_bounds_row(prev_d, d, lower, upper)
            prev_d = d

    @classmethod
    def parse(cls, path) -> "BoundsTable":
        """Parse a ``d,lower,upper`` CSV; empty files give an empty table.

        Raises ``ValueError`` naming the offending line on malformed
        input or invariant violations.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()

        rows: list[tuple[float, float, float]] = []
        header_seen = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != _BOUNDS_HEADER:
                    raise ValueError(
                        f"{path}: line {lineno}: expected header "
                        f"{_BOUNDS_HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 comma-separated "
                    f"values, got {len(parts)}"
                )
            try:
                d, lower, upper = (float(p) for p in parts)
                _check_bounds_row(rows[-1][0] if rows else -math.inf, d, lower, upper)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            rows.append((d, lower, upper))
        return cls(rows=tuple(rows))

    @classmethod
    def bundled(cls) -> "BoundsTable":
        """The bounds table shipped with the package."""
        ref = resources.files("delchan").joinpath("data/table1_bounds.csv")
        with resources.as_file(ref) as path:
            return cls.parse(path)


@dataclass(frozen=True)
class CheckResult:
    """One verified quantity: measured value vs target within tol."""

    name: str
    passed: bool
    value: float
    target: float
    tol: float

    def as_dict(self) -> dict:
        return asdict(self)


def _pin(name: str, value: float, target: float, tol: float) -> CheckResult:
    return CheckResult(
        name=name,
        passed=bool(abs(value - target) <= tol),
        value=float(value),
        target=float(target),
        tol=float(tol),
    )


def _worst(values) -> float:
    """The largest of ``values``, NaN if any is NaN: the builtin ``max``
    keeps a NaN only when it comes first, so it could pass a pin."""
    return float(np.max(list(values)))


def _flag(name: str, passed: bool, value: float = 0.0) -> CheckResult:
    """A yes/no check; ``value`` carries the measured magnitude."""
    return CheckResult(
        name=name, passed=bool(passed), value=float(value), target=0.0, tol=0.0
    )


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: list[CheckResult]
    underpowered: bool = False
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "passed": self.passed,
                "underpowered": self.underpowered,
                "notes": self.notes,
                "checks": [c.as_dict() for c in self.checks],
            },
            indent=2,
        )


# --------------------------------------------------------------------------
# criterion checks
# --------------------------------------------------------------------------


def check_series_constants() -> list[CheckResult]:
    """Series constants vs published 8-decimal values; closed-form identity."""
    consts = compute_constants()
    out = [
        _pin(f"constant {name}", getattr(consts, name), target, 1e-7)
        for name, target in PUBLISHED_CONSTANTS.items()
    ]
    identity = math.log2(2.0 * math.e) - consts.c2 / (2.0 * math.log(2.0))
    out.append(_pin("identity A1 = log2(2e) - c2/(2 ln 2)", consts.A1, identity, 1e-12))
    return out


def check_capacity_table() -> list[CheckResult]:
    """Capacity estimates vs the printed 4-decimal column, and against the
    bundled upper bounds (the estimate crosses them from d = 0.40 on)."""
    rows = BoundsTable.bundled().rows
    est = {d: capacity_estimate(d) for d, _, _ in rows}
    worst = _worst(abs(est[d] - printed) for d, printed in PUBLISHED_ESTIMATES.items())
    out = [_pin("capacity table max |C_est - printed|", worst, 0.0, 5e-5)]
    for d, _, upper in rows:
        expect_above = d >= 0.40
        out.append(
            _flag(
                f"estimate {'exceeds' if expect_above else 'respects'} "
                f"upper bound at d={d:.2f}",
                (est[d] > upper) == expect_above,
                est[d] - upper,
            )
        )
    return out


def check_markov_analytics() -> list[CheckResult]:
    """Second-order Markov quantities vs their published roundings."""
    consts = compute_constants()
    gap = consts.A2 - consts.A2_prime
    return [
        _pin("A2 - A2'", gap, 0.10018339, 1e-7),
        _pin("optimal Markov parameter at d=0.05",
             optimal_markov_param(0.05), 0.530204804, 1e-8),
        # the published rounding 0.904 disagrees with the defining
        # series (A2 - A2' + c4 = 0.790197); reported as-is
        _pin("printed second-order gap A2 - A2' + c4",
             gap + consts.c4, 0.904, 0.005),
    ]


def check_formula_pins() -> list[CheckResult]:
    """Entropy formulas reduce to their series coefficients on p*."""
    consts = compute_constants()
    p_star = geometric_half()
    s1 = math.fsum(
        p * l * math.log2(l)
        for l, p in zip(p_star.lengths.tolist(), p_star.probs.tolist())
        if l > 1
    )
    out = []
    for d in (1e-2, 1e-3):
        resid = hatD_entropy_formula(p_star, d) - (d / 2.0) * s1 - consts.c3 * d * d
        gate = 5.0 * d**3 * math.log2(1.0 / d)
        out.append(_pin(f"modified-deletion entropy residual at d={d:g}",
                        resid, 0.0, gate))
    d = 1e-3
    out.append(_pin("segmentation-count entropy coefficient at d=1e-3",
                    k_entropy_formula(p_star, d), consts.c4 * d * d, 1e-3 * d * d))
    return out


@functools.lru_cache(maxsize=128)
def _kept_weights(n: int, m: int) -> np.ndarray:
    """``(n, C(n, m))`` matrix whose column j weighs the j-th set of m kept
    positions by ``2^(m-1), .., 1`` in order and every other position by 0,
    so that ``x @ W[:, j]`` is the code (MSB first) of the bits x keeps."""
    kept = np.array(list(itertools.combinations(range(n), m)), dtype=np.intp)
    # float64: every code is below 2^12, so exact, and BLAS multiplies it
    # faster than numpy's integer loop does int32
    weights = np.zeros((n, len(kept)))
    weights[kept.T, np.arange(len(kept))] = 2 ** np.arange(m - 1, -1, -1)[:, None]
    weights.setflags(write=False)  # cached: one matrix for every caller
    return weights


def _brute_counts(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Kept-position sets spelling ``ys[r]`` in ``xs[r]`` (one n, one m): the
    code of the bits each set keeps from ``xs[r]`` against the code of
    ``ys[r]``, every code below ``2^12`` and so exact."""
    n, m = xs.shape[1], ys.shape[1]
    return (xs @ _kept_weights(n, m) == ys @ _kept_weights(m, m)).sum(axis=1)


def _check_group(xs: np.ndarray, ys: np.ndarray) -> tuple[bool, float]:
    """One kernel call on the pairs of one (n, m) vs brute force: impossible
    pairs must give exactly ``IMPOSSIBLE``, the rest log2 N within 1e-12."""
    brute = _brute_counts(xs, ys)
    top, scale = _band_counts(xs, ys, np.full(len(xs), ys.shape[1]))
    with np.errstate(divide="ignore"):
        got = np.log2(top) + scale
    possible = brute > 0
    err = np.abs(got[possible] - np.log2(brute[possible]))
    ok = bool((got[~possible] == IMPOSSIBLE).all() and (err <= 1e-12).all())
    return ok, float(err.max(initial=0.0))


def check_dp_oracle(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Embedding-count DP vs brute-force enumeration + normalization.

    Pairs are checked one (n, m) group at a time, each in one kernel
    call against ``_brute_counts``, which still enumerates every set of
    kept positions but compares integer codes of the kept bits.  The
    normalization draws one batch of 100 inputs per n and runs the d-free
    kernel pass once on it: every sum over the outputs of one length m
    must equal ``C(n, m)`` exactly, and the same sums weighed at each d
    give the ``max |sum - 1|`` pin.
    """
    rng = _rng_from(seed)
    out = []

    def compare(groups) -> tuple[int, bool, float]:
        results = [(len(xs), *_check_group(xs, ys)) for xs, ys in groups]
        counts, oks, worsts = zip(*results)
        return sum(counts), all(oks), _worst(worsts)

    # exhaustive over every (x, y) pair up to n = 6
    pairs, ok, worst = compare(
        (np.repeat(_all_words(n), 2**m, axis=0), np.tile(_all_words(m), (2**n, 1)))
        for n in range(1, 7)
        for m in range(n + 1)
    )
    out.append(_flag(f"exhaustive DP equivalence ({pairs} pairs, n <= 6)", ok, worst))

    # random pairs up to n = 12, drawn in bulk: lengths, then 12-bit rows
    # of which pair r reads its first n and m bits
    ns = rng.integers(1, 13, size=10_000)
    ms = rng.integers(0, ns + 1)
    xbits, ybits = rng.integers(0, 2, size=(2, 10_000, 12), dtype=np.uint8)
    _, ok, worst = compare(
        (xbits[rows, :n], ybits[rows, :m])
        for n in range(1, 13)
        for m in range(n + 1)
        if (rows := (ns == n) & (ms == m)).any()
    )
    out.append(_flag("random-pair DP equivalence (10000 pairs, n <= 12)", ok, worst))

    # each input has C(n, m) deletion masks onto the outputs of length m, so
    # sum_y N(x, y) over them is C(n, m) exactly and needs no d; weighed at
    # any d the sums give the likelihood's sum over all outputs, 1.  The
    # identity also catches a miscount that a weight below 1e-12 would hide.
    exact, errors = True, []
    for n in range(4, 13):
        sums = _embedding_sums(rng.integers(0, 2, size=(100, n), dtype=np.uint8))
        exact &= bool((sums == [math.comb(n, m) for m in range(n + 1)]).all())
        errors += [abs(_weighted_totals(sums, d) - 1.0).max() for d in (0.1, 0.5, 0.9)]
    norm = _pin("likelihood normalization max |sum - 1| (n=4..12)",
                _worst(errors), 0.0, 1e-12)
    out.append(replace(norm, passed=norm.passed and exact))
    return out


def check_small_block_oracle(
    samples: int = 100_000, out_bits: int = 1_000_000, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Monte Carlo estimators vs exhaustive enumeration at n = 10."""
    spec = SourceSpec.bernoulli_half()
    n, d = 10, 0.1
    info = exact_block_information(spec, n, d)
    cond_target = info.H_Y_given_X / n

    mean, se = estimate_h_cond(spec, d, n, samples, seed)
    out = [_pin("small-block conditional entropy vs enumeration (4 sigma)",
                mean, cond_target, 4.0 * se)]

    # h_out is the n -> oo limit 1 - d of a uniform input's output entropy
    r = estimate_rate(spec, d, n=n, samples=samples, out_bits=out_bits, seed=seed)
    out.append(_pin("small-block rate vs enumeration (4 sigma)",
                    r.rate, 1.0 - d - cond_target, 4.0 * r.std_err))
    return out


def check_formula_vs_simulation(
    samples: int = 500, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """MC conditional entropy vs the closed-form prediction at d=0.02."""
    d, n = 0.02, 2000
    spec = SourceSpec.dagger(d)

    mean, se = estimate_h_cond(spec, d, n, samples, seed)

    # empirical run law of the same source, on a stream disjoint from
    # the replicas' one stream (entropy [seed, 1], not seed)
    x = sample_sequence(spec, 10**6, np.random.SeedSequence([seed, 1]))
    q_hat = empirical_run_distribution(x).pmf
    predicted = hy_given_x_formula(q_hat, d) - compute_constants().c4 * d * d

    return [_pin("conditional entropy vs second-order formula",
                 mean, predicted, max(4.0 * se, 5e-4))]


def check_end_to_end_rate(
    samples: int = 500, out_bits: int = 10**7, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    """Full rate estimate for the tuned run law at d=0.05 vs the series."""
    d = 0.05
    r = estimate_rate(
        SourceSpec.dagger(d), d, n=2000, samples=samples, out_bits=out_bits,
        seed=seed,
    )
    return [_pin("end-to-end rate at d=0.05 vs capacity estimate",
                 r.rate, PUBLISHED_ESTIMATES[d], 0.005)]


def check_run_statistics(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Empirical run laws, super-run mean, and the reversal-rate bound."""
    out = []
    s_bern, s_dag, s_mask = _as_seed_sequence(seed).spawn(3)

    x = sample_sequence(SourceSpec.bernoulli_half(), 10**6, s_bern)
    stats = empirical_run_distribution(x)
    worst = _worst(abs(stats.pmf.prob(l) - 2.0**-l) for l in range(1, 9))
    out.append(_pin("uniform-input run law max |p_hat(l) - 2^-l|, l <= 8",
                    worst, 0.0, 0.005))

    supers = empirical_super_run_distribution(x)
    out.append(_pin("super-run mean length", supers.mu_hat, 4.0, 0.05))

    q = dagger_distribution(0.1)
    xd = sample_sequence(SourceSpec.renewal(q), 10**6, s_dag)
    sd = empirical_run_distribution(xd)
    worst = _worst(abs(sd.pmf.prob(l) - q.prob(l)) for l in range(1, 9))
    out.append(_pin("tuned run law max |p_hat(l) - q(l)|, l <= 8",
                    worst, 0.0, 0.01))

    d = 0.15
    real = transmit(x, d, s_mask)
    _, z = modified_mask(x, real.mask)
    lengths = run_lengths(x).astype(np.float64)
    bound = 2.0 * d**3 * float(np.mean(lengths**3))
    z_rate = float(z.sum()) / x.size
    out.append(
        _flag(f"reversal rate below 2 d^3 E[L^3] = {bound:.3e}",
              z_rate <= bound, z_rate)
    )
    return out


def check_determinism(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """RateEstimate JSON is bit-identical across thread counts 1, 2, 8."""
    docs = [
        estimate_rate(
            SourceSpec.dagger(0.1), 0.1, n=200, samples=100, out_bits=200_000,
            threads=t, seed=seed,
        ).to_json()
        for t in (1, 2, 8)
    ]
    return [_flag("rate JSON identical for thread counts {1, 2, 8}",
                  docs[0] == docs[1] == docs[2])]


# --------------------------------------------------------------------------
# suite composition
# --------------------------------------------------------------------------

SUITES = ("constants", "dp", "formulas", "lemmas", "rates")

#: Budgets below these thresholds mark the rates suite "underpowered".
FULL_RATES_SAMPLES = 500
FULL_RATES_OUT_BITS = 10**7


def run_suite(
    suite: str,
    *,
    samples: "int | None" = None,
    out_bits: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> SuiteReport:
    """Run one verification suite and return its report.

    ``samples`` and ``out_bits`` override the Monte Carlo budgets of the
    ``rates`` suite only; budgets below the full defaults mark the
    report ``underpowered`` (the stated tolerances assume the full
    budget, so an underpowered run is advisory rather than a failure).
    """
    if suite == "constants":
        return SuiteReport(suite, check_series_constants() + check_capacity_table())
    if suite == "dp":
        return SuiteReport(suite, check_dp_oracle(seed))
    if suite == "formulas":
        report = SuiteReport(
            suite,
            check_markov_analytics() + check_formula_pins(),
            notes=[
                "the printed gap value 0.904 is inconsistent with the "
                "defining series, which gives 0.790197; the pin is "
                "reported without adjustment"
            ],
        )
        return report
    if suite == "lemmas":
        return SuiteReport(suite, check_run_statistics(seed))
    if suite == "rates":
        samples = FULL_RATES_SAMPLES if samples is None else samples
        out_bits = FULL_RATES_OUT_BITS if out_bits is None else out_bits
        underpowered = samples < FULL_RATES_SAMPLES or out_bits < FULL_RATES_OUT_BITS
        checks = (
            check_small_block_oracle(
                samples=min(samples * 200, 200_000),
                out_bits=max(50_000, out_bits // 10),
                seed=seed,
            )
            + check_formula_vs_simulation(samples=samples, seed=seed)
            + check_end_to_end_rate(samples=samples, out_bits=out_bits, seed=seed)
            + check_determinism(seed)
        )
        notes = []
        if underpowered:
            notes.append(
                "budget below the full verification sizes; tolerances are "
                "not guaranteed at this sample count"
            )
        return SuiteReport(suite, checks, underpowered=underpowered, notes=notes)
    raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
