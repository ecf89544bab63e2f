"""Structural tests for the verification module.

The expensive suites run at full budget in the acceptance tests; here
we check report shapes, suite composition, and the cheap check groups.
"""

import itertools
import json

import numpy as np
import pytest

from delchan.verify import (
    SUITES,
    CheckResult,
    SuiteReport,
    _brute_embedding_count,
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


class TestBruteForceReference:
    def test_matches_itertools_enumeration_n_le_6(self):
        # the vectorized reference of check_dp_oracle against the plain
        # enumeration of kept positions, on every pair with n <= 6
        for n in range(1, 7):
            for xv in itertools.product((0, 1), repeat=n):
                x = np.array(xv, dtype=np.uint8)
                for m in range(n + 1):
                    for yv in itertools.product((0, 1), repeat=m):
                        expected = sum(
                            tuple(x[list(keep)]) == yv
                            for keep in itertools.combinations(range(n), m)
                        )
                        y = np.array(yv, dtype=np.uint8)
                        assert _brute_embedding_count(x, y) == expected
