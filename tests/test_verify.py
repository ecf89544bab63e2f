"""Structural tests for the verification module.

The expensive suites run at full budget in the acceptance tests; here
we check report shapes, suite composition, and the cheap check groups.
"""

import itertools
import json

import numpy as np
import pytest

from delchan import verify
from delchan.likelihood import _all_words, _band_counts
from delchan.sources import DEFAULT_SEED
from delchan.verify import (
    SUITES,
    CheckResult,
    SuiteReport,
    _brute_counts,
    _check_group,
    check_dp_oracle,
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


def exhaustive_group(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (x, y) pair with |x| = n and |y| = m, as two matrices."""
    return np.repeat(_all_words(n), 2**m, axis=0), np.tile(_all_words(m), (2**n, 1))


class TestBruteForceReference:
    def test_matches_itertools_enumeration_n_le_6(self):
        # the grouped reference of check_dp_oracle against the plain
        # enumeration of kept positions, on every pair with n <= 6
        for n in range(1, 7):
            for m in range(n + 1):
                xs, ys = exhaustive_group(n, m)
                expected = [
                    sum(
                        tuple(x[list(keep)]) == tuple(y)
                        for keep in itertools.combinations(range(n), m)
                    )
                    for x, y in zip(xs, ys)
                ]
                assert _brute_counts(xs, ys).tolist() == expected


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

    def test_check_names_and_pair_count(self):
        checks = check_dp_oracle(DEFAULT_SEED)
        assert [c.name for c in checks] == [
            "exhaustive DP equivalence (10794 pairs, n <= 6)",
            "random-pair DP equivalence (10000 pairs, n <= 12)",
            "likelihood normalization max |sum - 1| (n=4..12)",
        ]
        assert all(c.passed for c in checks)
