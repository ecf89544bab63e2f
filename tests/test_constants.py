"""Tests for the series constants and capacity expansion.

Expected values were frozen from an independent 40-digit evaluation of
the defining series (mpmath); where available, published 8-decimal
reference values are pinned at 1e-7.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from delchan.constants import (
    DEFAULT_TOL,
    LN2,
    SeriesConstants,
    _a1_series_sum,
    _c2_sum,
    _c3_sum,
    _c4a_sum,
    _c4b_sum,
    _c5_sum,
    _choose_L,
    _entropy_bits,
    _sa_sum,
    _sb_sum,
    _tail_bound,
    binary_entropy,
    capacity_estimate,
    compute_constants,
)

# Independent oracle values (40-digit series evaluation, rounded to double).
ORACLE = {
    "c2": 1.78628364173958,
    "c3": -0.886369601568123,
    "c4": 0.690013211959616,
    "c5": 0.604096091032814,
    "A1": 1.15416376510957,
    "A2": 1.67814594470483,
    "A2_prime": 1.57796255576862,
}
ORACLE_SA = 12.2997857668519
ORACLE_SB = 7.77523528935001

# Published 8-decimal reference values.
PUBLISHED = {
    "c2": 1.78628364,
    "c3": -0.88636960,
    "c4": 0.69001321,
    "c5": 0.60409609,
    "A1": 1.15416377,
    "A2": 1.67814594,
    "A2_prime": 1.57796256,
}

# Published 4-decimal capacity-estimate column (d -> C_est).
CEST_TABLE = {
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


@pytest.fixture(scope="module")
def consts() -> SeriesConstants:
    return compute_constants(1e-9)


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoint_convention(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_one_third_pin(self):
        assert binary_entropy(1.0 / 3.0) == pytest.approx(0.918295834054, abs=1e-11)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-12])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry_and_range(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


@st.composite
def count_matrices(draw):
    """Integer counts with zeros anywhere, whole rows of them too."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 70)))
    values = st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 10**7))
    return draw(arrays(np.int64, shape, elements=values))


class TestEntropyBits:
    @given(count_matrices())
    def test_rows_match_one_dimensional_calls_bit_for_bit(self, counts):
        totals = np.maximum(counts.sum(axis=1), 1).astype(np.float64)
        p = counts / totals[:, None]
        want = np.array([_entropy_bits(row) for row in p])
        got = _entropy_bits(p)
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_no_positive_entry_gives_positive_zero(self):
        assert math.copysign(1.0, _entropy_bits(np.zeros(3))) == 1.0
        got = _entropy_bits(np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert got.view(np.int64).tolist() == np.array([0.0, 1.0]).view(np.int64).tolist()


class TestComputeConstants:
    def test_matches_independent_oracle(self):
        c = compute_constants(1e-13)
        for name, want in ORACLE.items():
            assert getattr(c, name) == pytest.approx(want, abs=1e-12), name

    def test_published_eight_decimal_pins(self, consts):
        for name, want in PUBLISHED.items():
            assert abs(getattr(consts, name) - want) <= 1e-7, name

    def test_a1_routes_agree(self, consts):
        direct = math.log2(2 * math.e) - consts.c2 / (2 * LN2)
        assert abs(consts.A1 - direct) <= 1e-12

    def test_a1_routes_agree_at_coarse_tolerance(self):
        c = compute_constants(1e-6)
        direct = math.log2(2 * math.e) - c.c2 / (2 * LN2)
        assert abs(c.A1 - direct) <= 1e-12

    def test_a2_gap_pin(self, consts):
        assert abs((consts.A2 - consts.A2_prime) - 0.10018339) <= 1e-7
        assert consts.A2 - consts.A2_prime > 0

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_truncation_bound_below_tolerance(self, tol):
        c = compute_constants(tol)
        assert 0.0 < c.truncation_error_bound <= tol

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            compute_constants(0.0)
        with pytest.raises(ValueError):
            compute_constants(-1e-9)

    def test_cached_per_tolerance(self):
        assert compute_constants(1e-9) is compute_constants(1e-9)

    def test_doubling_index_changes_less_than_bound(self):
        tol = 1e-9
        t = tol / 8.0
        cases = [
            (_c2_sum, 1.0, 1, 1),
            (_a1_series_sum, 1.0 / (2 * LN2), 1, 1),
            (_c3_sum, 8.0 / LN2, 2, 1),
            (_c4a_sum, 4.0, 2, 0),
            (_c4b_sum, 1.0, 3, 0),
            (_sa_sum, 1.0, 2, 2),
            (_sb_sum, 1.0, 2, 1),
            (_c5_sum, 1.0 / LN2, 2, 1),
        ]
        for fn, kappa, a, b in cases:
            L = _choose_L(t, kappa, a, b)
            bound = _tail_bound(L, kappa, a, b)
            assert abs(fn(2 * L) - fn(L)) <= bound, fn.__name__

    def test_auxiliary_sums_match_oracle(self):
        assert _sa_sum(200) == pytest.approx(ORACLE_SA, abs=1e-12)
        assert _sb_sum(200) == pytest.approx(ORACLE_SB, abs=1e-12)


class TestCapacityEstimate:
    def test_perfect_channel(self):
        assert capacity_estimate(0.0) == 1.0

    def test_published_table_column(self):
        for d, want in CEST_TABLE.items():
            assert abs(capacity_estimate(d) - want) <= 5e-5, d

    def test_monotone_decreasing_on_small_d(self):
        grid = [i * 1e-3 for i in range(0, 301)]
        values = [capacity_estimate(d) for d in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        for bad in (-0.01, 1.0, 1.5):
            with pytest.raises(ValueError):
                capacity_estimate(bad)

    def test_default_constants_used_when_omitted(self):
        assert compute_constants() is compute_constants(DEFAULT_TOL)
