"""Structural tests for the verification module.

The expensive suites run at full budget in the acceptance tests; here
we check report shapes, suite composition, and the cheap check groups.
"""

import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from delchan import cli, likelihood, verify
from delchan.constants import capacity_estimate
from delchan.estimation import estimate_h_cond
from delchan.likelihood import _all_words, _band_counts, _band_dp, embedding_count
from delchan.sources import DEFAULT_SEED, SourceSpec
from delchan.verify import (
    SUITES,
    BoundsTable,
    CheckResult,
    SuiteReport,
    _brute_counts,
    _check_group,
    check_capacity_table,
    check_dp_oracle,
    check_formula_vs_simulation,
    check_markov_analytics,
    check_series_constants,
    run_suite,
)


class TestReportTypes:
    def test_check_result_dict_shape(self):
        c = CheckResult(name="x", passed=True, value=1.0, target=1.0, tol=0.1)
        assert c.as_dict() == {
            "name": "x", "passed": True, "value": 1.0, "target": 1.0,
            "tol": 0.1,
        }

    def test_suite_report_passed_and_json(self):
        good = CheckResult("a", True, 1.0, 1.0, 0.0)
        bad = CheckResult("b", False, 2.0, 1.0, 0.5)
        report = SuiteReport("demo", [good, bad], notes=["why"])
        assert report.passed is False
        doc = json.loads(report.to_json())
        assert list(doc) == ["suite", "passed", "underpowered", "notes",
                             "checks"]
        assert doc["passed"] is False
        assert doc["notes"] == ["why"]
        assert len(doc["checks"]) == 2
        assert SuiteReport("demo", [good]).passed is True

    def test_suite_names(self):
        assert SUITES == ("constants", "dp", "formulas", "lemmas", "rates")

    def test_unknown_suite_raises(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("bogus")


class TestCheapChecks:
    def test_series_constants_all_pass(self):
        checks = check_series_constants()
        assert len(checks) == 8  # seven published pins + one identity
        assert all(c.passed for c in checks)

    def test_markov_analytics_documents_inconsistent_printed_gap(self):
        checks = check_markov_analytics()
        failed = [c for c in checks if not c.passed]
        # the combination A2 - A2' + c4 evaluates to 0.790197, not the
        # printed 0.904; the check must report the true value unadjusted
        assert len(failed) == 1
        assert abs(failed[0].value - 0.790196600895829) <= 1e-9
        assert failed[0].target == 0.904

    def test_constants_suite_report(self):
        report = run_suite("constants")
        assert report.suite == "constants"
        assert report.passed is True
        assert report.underpowered is False

    def test_capacity_table_reads_the_bundled_bounds(self, monkeypatch):
        rows = BoundsTable.bundled().rows
        flags = check_capacity_table()[1:]
        assert [c.name[-4:] for c in flags] == [f"{d:.2f}" for d, _, _ in rows]
        assert [c.value for c in flags] == [
            capacity_estimate(d) - upper for d, _, upper in rows
        ]
        # a loosened bundled table moves the flags with it
        loose = BoundsTable(rows=tuple((d, lower, 1.0) for d, lower, _ in rows))
        monkeypatch.setattr(BoundsTable, "bundled", classmethod(lambda cls: loose))
        flags = check_capacity_table()[1:]
        assert [c.value for c in flags] == [capacity_estimate(d) - 1.0 for d, _, _ in rows]
        assert [c.passed for c in flags] == [d < 0.40 for d, _, _ in rows]

    def test_nan_estimate_fails_the_capacity_pin(self, monkeypatch):
        # d = 0.10 is not the first estimate, where max() would drop a NaN
        monkeypatch.setattr(
            verify, "capacity_estimate",
            lambda d: math.nan if d == 0.10 else capacity_estimate(d),
        )
        pin = check_capacity_table()[0]
        assert not pin.passed and math.isnan(pin.value)

    def test_nan_run_probability_fails_the_run_law_pins(self, monkeypatch):
        def nan_at_length_3(x, empirical=verify.empirical_run_distribution):
            prob = empirical(x).pmf.prob
            return SimpleNamespace(pmf=SimpleNamespace(
                prob=lambda l: math.nan if l == 3 else prob(l)
            ))

        monkeypatch.setattr(verify, "empirical_run_distribution", nan_at_length_3)
        checks = verify.check_run_statistics()
        assert [c.passed for c in checks] == [False, True, False, True]
        assert math.isnan(checks[0].value) and math.isnan(checks[2].value)

    def test_cli_reads_the_bounds_table_from_here(self):
        assert cli.BoundsTable is BoundsTable
        assert cli.DEFAULT_D_GRID is verify.DEFAULT_D_GRID


def exhaustive_group(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (x, y) pair with |x| = n and |y| = m, as two matrices."""
    return np.repeat(_all_words(n), 2**m, axis=0), np.tile(_all_words(m), (2**n, 1))


def plain_count(x: np.ndarray, y: np.ndarray) -> int:
    """Sets of kept positions of ``x`` that spell ``y``, one at a time."""
    return sum(
        tuple(x[list(keep)]) == tuple(y)
        for keep in itertools.combinations(range(len(x)), len(y))
    )


class TestBruteForceReference:
    def test_matches_itertools_enumeration_n_le_6(self):
        # the grouped reference of check_dp_oracle against the plain
        # enumeration of kept positions, on every pair with n <= 6
        for n in range(1, 7):
            for m in range(n + 1):
                xs, ys = exhaustive_group(n, m)
                expected = [plain_count(x, y) for x, y in zip(xs, ys)]
                assert _brute_counts(xs, ys).tolist() == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_itertools_enumeration_random_pairs(self, n):
        # per (n, m) group: random pairs, outputs of x itself (possible),
        # and an all-zero input against outputs holding a one (impossible)
        rng = np.random.default_rng(1000 + n)
        for m in sorted({0, 1, n // 2, int(rng.integers(0, n + 1)), n - 1, n}):
            xs = rng.integers(0, 2, size=(6, n), dtype=np.uint8)
            ys = rng.integers(0, 2, size=(6, m), dtype=np.uint8)
            for r in range(2):
                keep = np.sort(rng.choice(n, size=m, replace=False))
                ys[r] = xs[r, keep]
            if m:
                xs[5] = 0
                ys[5, rng.integers(0, m)] = 1
            expected = [plain_count(x, y) for x, y in zip(xs, ys)]
            assert _brute_counts(xs, ys).tolist() == expected
            assert min(expected[:2]) >= 1 and (m == 0 or expected[5] == 0)

    def test_kept_weights_code_the_kept_bits_msb_first(self):
        # column j of the weights gives the j-th kept-position set of
        # itertools.combinations the place values 2^(m-1), .., 1 in order
        for n, m in [(0, 0), (3, 0), (4, 4), (7, 3), (12, 6)]:
            weights = verify._kept_weights(n, m)
            assert weights is verify._kept_weights(n, m)
            assert not weights.flags.writeable
            sets = list(itertools.combinations(range(n), m))
            assert weights.shape == (n, len(sets))
            for j, keep in enumerate(sets):
                want = np.zeros(n)
                want[list(keep)] = 2.0 ** np.arange(m - 1, -1, -1)
                np.testing.assert_array_equal(weights[:, j], want)


def fault_first_normalization_call(monkeypatch, m: int, extra: float) -> None:
    """Add ``extra`` to the first pair's count in the kernel's first call on
    all outputs of length m (m >= 6) of n = 12 inputs.  Those calls hold
    over 1000 pairs; a random-pair group of one (n, m) holds about 64."""
    faulted = []

    def faulty(xt, ypad, k):
        top, scale = _band_dp(xt, ypad, k)
        if len(xt) == 12 and k[0] == 12 - m and ypad.shape[1] > 1000 and not faulted:
            top[0] += extra
            faulted.append(True)
        return top, scale

    monkeypatch.setattr(likelihood, "_band_dp", faulty)


class TestGroupedOracle:
    def test_clean_groups_pass(self):
        for n, m in [(1, 0), (4, 2), (6, 3), (6, 6)]:
            assert _check_group(*exhaustive_group(n, m)) == (True, 0.0)

    def test_count_off_by_one_fails(self, monkeypatch):
        def off_by_one(x, y, m):
            top, scale = _band_counts(x, y, m)
            top[np.flatnonzero(top)[0]] += 1.0
            return top, scale

        monkeypatch.setattr(verify, "_band_counts", off_by_one)
        ok, worst = _check_group(*exhaustive_group(4, 2))
        assert not ok and worst > 1e-12

    def test_finite_value_on_impossible_pair_fails(self, monkeypatch):
        def finite_impossible(x, y, m):
            top, scale = _band_counts(x, y, m)
            top[np.flatnonzero(top == 0.0)[0]] = 1.0
            return top, scale

        monkeypatch.setattr(verify, "_band_counts", finite_impossible)
        ok, worst = _check_group(*exhaustive_group(4, 2))
        assert not ok and worst == 0.0

    def test_failing_group_fails_its_check(self, monkeypatch):
        def faulty_at_n5_m2(x, y, m):
            top, scale = _band_counts(x, y, m)
            if x.shape[1] == 5 and m[0] == 2:
                top[0] += 1.0
            return top, scale

        monkeypatch.setattr(verify, "_band_counts", faulty_at_n5_m2)
        passed = [c.passed for c in check_dp_oracle(DEFAULT_SEED)]
        assert passed == [False, False, True]

    @pytest.mark.parametrize("extra", [1.0, 2.0**-40], ids=["one", "2^-40"])
    def test_normalization_miscount_fails_its_check(self, monkeypatch, extra):
        # one output of one n = 12 input over-counted: at 2^-40 every
        # weighted sum stays within 1e-12 of 1, and only the exact
        # C(n, m) identity fails the row
        fault_first_normalization_call(monkeypatch, 11, extra)
        checks = check_dp_oracle(DEFAULT_SEED)
        assert [c.passed for c in checks] == [True, True, False]
        assert checks[2].value > 0.0 and (extra == 1.0) == (checks[2].value > 1e-12)

    def test_nan_normalization_fails_its_check(self, monkeypatch):
        fault_first_normalization_call(monkeypatch, 6, math.nan)
        checks = check_dp_oracle(DEFAULT_SEED)
        assert [c.passed for c in checks] == [True, True, False]
        assert math.isnan(checks[2].value)

    def test_check_names_and_pair_count(self):
        checks = check_dp_oracle(DEFAULT_SEED)
        assert [c.name for c in checks] == [
            "exhaustive DP equivalence (10794 pairs, n <= 6)",
            "random-pair DP equivalence (10000 pairs, n <= 12)",
            "likelihood normalization max |sum - 1| (n=4..12)",
        ]
        assert all(c.passed for c in checks)


#: ``check_dp_oracle``'s report for every seed while the kernel is right:
#: the pair errors are exact zeros for n <= 12, and sum_y N(x, y) = C(n, m)
#: exactly, so the normalization deviation depends only on (n, d).
DP_ORACLE_JSON = json.dumps([
    {"name": "exhaustive DP equivalence (10794 pairs, n <= 6)",
     "passed": True, "value": 0.0, "target": 0.0, "tol": 0.0},
    {"name": "random-pair DP equivalence (10000 pairs, n <= 12)",
     "passed": True, "value": 0.0, "target": 0.0, "tol": 0.0},
    {"name": "likelihood normalization max |sum - 1| (n=4..12)",
     "passed": True, "value": 4.440892098500626e-16, "target": 0.0,
     "tol": 1e-12},
])


class TestOracleWorkAndOutput:
    def test_kernel_calls_and_groups(self, monkeypatch):
        cells, groups = [], []  # band cells of each kernel call

        def counting_kernel(xt, ypad, k):
            cells.append(ypad.shape[1] * (ypad.shape[0] - xt.shape[0] + 1))
            return _band_dp(xt, ypad, k)

        def recording_group(xs, ys, check=verify._check_group):
            groups.append((xs.shape[1], ys.shape[1], len(xs)))
            return check(xs, ys)

        monkeypatch.setattr(likelihood, "_band_dp", counting_kernel)
        monkeypatch.setattr(verify, "_check_group", recording_group)
        check_dp_oracle(DEFAULT_SEED)
        # 27 exhaustive + 90 random groups, 458 normalization calls (one
        # d-free pass per n = 4..12), at most _MAX_BAND_CELLS band cells each
        assert len(cells) == 575
        assert max(cells[117:]) <= likelihood._MAX_BAND_CELLS
        exhaustive = [(n, m) for n in range(1, 7) for m in range(n + 1)]
        random_ = [(n, m) for n in range(1, 13) for m in range(n + 1)]
        assert [g[:2] for g in groups] == exhaustive + random_
        assert sum(g[2] for g in groups[len(exhaustive):]) == 10_000

    def test_kernel_operands_are_c_contiguous(self, monkeypatch):
        # the DP compares rows of xt with windows of ypad; a strided
        # (transposed) view of either slows every comparison
        seen = {}

        def checking_kernel(xt, ypad, k):
            assert xt.flags.c_contiguous and ypad.flags.c_contiguous
            assert xt.shape[1] == ypad.shape[1] == k.size
            seen[caller] = seen.get(caller, 0) + 1
            return _band_dp(xt, ypad, k)

        monkeypatch.setattr(likelihood, "_band_dp", checking_kernel)
        caller = "check_dp_oracle"
        check_dp_oracle(DEFAULT_SEED)
        caller = "estimate_h_cond"
        estimate_h_cond(SourceSpec.dagger(0.05), 0.05, 200, 130, 1)
        caller = "embedding_count"
        x = np.tile(np.array([0, 1, 1], np.uint8), 40)
        embedding_count(x[::2], x[1::3])  # strided rows
        embedding_count(x, x[::-1][:50])
        assert seen == {"check_dp_oracle": 575, "estimate_h_cond": 2,
                        "embedding_count": 2}

    def test_check_dp_oracle_memory_budget(self):
        # warm run first (the kept-weight and word caches); with int16
        # counts and coded brute force 1.20 MB at a cap of 2^13 band cells
        # and 1.96 MB at 2^14 (int16 counts with the kept-position compare:
        # 1.30 MB at 2^13; float64 counts: 1.30 MB at 2^12, 1.84 MB at 2^13)
        check_dp_oracle(1)
        tracemalloc.start()
        try:
            check_dp_oracle(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6e6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, DEFAULT_SEED])
    def test_report_is_pinned(self, seed):
        checks = check_dp_oracle(seed)
        assert json.dumps([c.as_dict() for c in checks]) == DP_ORACLE_JSON

    def test_dp_suite_reports_the_oracle_rows(self):
        report = run_suite("dp", seed=3)
        assert report.suite == "dp" and report.passed
        assert not report.underpowered and report.notes == []
        rows = [c.as_dict() for c in report.checks]
        assert rows == [c.as_dict() for c in check_dp_oracle(3)]
        assert json.dumps(rows) == DP_ORACLE_JSON


def test_formula_vs_simulation_passes_at_2000_samples():
    # a larger budget only narrows the tolerance; before h_cond carried
    # H(M)/n this check read 2.3e-3 low and failed from 1000 samples on
    (check,) = check_formula_vs_simulation(samples=2000)
    assert check.passed, check
