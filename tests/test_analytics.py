"""Closed-form entropy/rate formula evaluators against independent sums."""

from __future__ import annotations

import math

import numpy as np
import pytest

from delchan.analytics import (
    hatD_entropy_formula,
    hy_given_x_formula,
    k_entropy_formula,
    markov_rate_bound,
    optimal_markov_param,
    output_formula_cutoff,
)
from delchan.constants import LN2, capacity_estimate, compute_constants
from delchan.sources import dagger_distribution, geometric_half, point_mass


@pytest.fixture(scope="module")
def consts():
    return compute_constants()


def s1_bits() -> float:
    """Independent direct evaluation of sum 2^-l l log2 l."""
    return math.fsum(2.0**-l * l * math.log2(l) for l in range(1, 65))


class TestHatDEntropyFormula:
    def test_d_zero(self):
        assert hatD_entropy_formula(geometric_half(64), 0.0) == 0.0

    @pytest.mark.parametrize("d", [1e-2, 1e-3])
    def test_reduction_for_geometric(self, consts, d):
        # for the 2^-l law the four sum blocks collapse to
        # (d/2) sum 2^-l l log2 l + c3 d^2; the error-term window of the
        # supporting estimate scales as d^3 log(1/d)
        value = hatD_entropy_formula(geometric_half(64), d)
        target = (d / 2.0) * s1_bits() + consts.c3 * d * d
        assert abs(value - target) <= 5.0 * d**3 * math.log2(1.0 / d)

    def test_leading_order_scaling(self):
        # value(d)/d -> (1/mu) sum p(l) l log2 l as d -> 0
        p = geometric_half(64)
        limit = s1_bits() / 2.0
        for d in (1e-4, 1e-5):
            ratio = hatD_entropy_formula(p, d) / d / limit
            assert abs(ratio - 1.0) <= 1e-3

    def test_nonnegative(self):
        for p in (geometric_half(64), dagger_distribution(0.1), point_mass(3)):
            for d in (0.01, 0.1, 0.3):
                assert hatD_entropy_formula(p, d) >= 0.0

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            hatD_entropy_formula(geometric_half(8), -0.1)

    def test_support_extension_invariance(self):
        v64 = hatD_entropy_formula(dagger_distribution(0.1, L_max=64), 0.1)
        v128 = hatD_entropy_formula(dagger_distribution(0.1, L_max=128), 0.1)
        assert abs(v128 - v64) <= 1e-9 * abs(v64)


class TestKEntropyFormula:
    def test_d_zero(self):
        assert k_entropy_formula(geometric_half(64), 0.0) == 0.0

    @pytest.mark.parametrize("d", [1e-2, 1e-3])
    def test_c4_reduction(self, consts, d):
        value = k_entropy_formula(geometric_half(64), d)
        assert abs(value - consts.c4 * d * d) <= 1e-3 * d * d

    def test_lmax_halving_negligible(self):
        d = 1e-3
        v64 = k_entropy_formula(geometric_half(64), d)
        v32 = k_entropy_formula(geometric_half(32), d)
        assert abs(v64 - v32) < 1e-6 * d * d

    def test_nonnegative(self):
        for p in (geometric_half(64), dagger_distribution(0.05), point_mass(2)):
            for d in (0.01, 0.2):
                assert k_entropy_formula(p, d) >= 0.0

    def test_no_length_one_runs_gives_zero(self):
        # both sums require intervening length-1 runs
        assert k_entropy_formula(point_mass(4), 0.1) == 0.0

    def test_support_extension_invariance(self):
        v64 = k_entropy_formula(dagger_distribution(0.1, L_max=64), 0.1)
        v128 = k_entropy_formula(dagger_distribution(0.1, L_max=128), 0.1)
        assert abs(v128 - v64) <= 1e-9 * abs(v64)


class TestHyGivenXFormula:
    def test_d_zero(self):
        assert hy_given_x_formula(geometric_half(64), 0.0) == 0.0

    def test_cutoff(self):
        assert output_formula_cutoff(0.02) == 22
        assert output_formula_cutoff(0.5) == 4
        assert output_formula_cutoff(1e-9, L_max=64) == 64
        with pytest.raises(ValueError):
            output_formula_cutoff(0.0)

    @pytest.mark.parametrize("d", [1e-3, 1e-4])
    def test_geometric_cancellation(self, consts, d):
        # the two q-sums cancel for q = 2^-l, leaving the explicit
        # d log2(1/d) + (d/ln2)(1 - c2/2) block plus the quadratic term
        value = hy_given_x_formula(geometric_half(64), d)
        diff = value - d * math.log2(1.0 / d) - (d / LN2) * (1.0 - consts.c2 / 2.0)
        quad = (-consts.c3 - 1.0 / (2.0 * LN2)) * d * d
        assert diff == pytest.approx(quad, rel=1e-6)

    def test_monotone_in_d(self):
        q = geometric_half(64)
        grid = np.geomspace(1e-4, 0.05, 40)
        values = [hy_given_x_formula(q, float(d)) for d in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_regression_pin_geometric_d002(self):
        # frozen after first computation; cross-validated against Monte
        # Carlo in the acceptance suite
        value = hy_given_x_formula(geometric_half(64), 0.02)
        assert value == pytest.approx(HY_PIN_GEOM_D002, abs=1e-12)


class TestRateBounds:
    def test_markov_d_zero(self):
        assert markov_rate_bound(0.0) == 1.0

    def test_markov_d01_value(self):
        assert markov_rate_bound(0.1) == pytest.approx(0.5682, abs=1e-4)

    def test_gap_identity(self, consts):
        gap_coeff = consts.A2 - consts.A2_prime
        for d in (0.05, 0.1, 0.25):
            gap = capacity_estimate(d) - markov_rate_bound(d)
            assert gap == pytest.approx(gap_coeff * d * d, abs=1e-12)

    def test_jigsaw_gap_coefficient_true_value(self, consts):
        # the leading-order capacity loss of jigsaw decoding; the series
        # evaluate to 0.7902, pinned against the 40-digit oracle (a
        # published rounding of 0.904 for this combination is
        # inconsistent with the defining series — see the verification
        # suite, which reports that discrepancy honestly)
        gap = consts.A2 - consts.A2_prime + consts.c4
        assert gap == pytest.approx(0.790196600895829, abs=1e-9)

    def test_bound_ordering(self):
        for d in np.linspace(0.01, 0.3, 15):
            c = capacity_estimate(float(d))
            m = markov_rate_bound(float(d))
            assert c >= m


class TestOptimalMarkovParam:
    def test_d_zero(self):
        assert optimal_markov_param(0.0) == 0.5

    def test_published_value(self):
        assert optimal_markov_param(0.05) == pytest.approx(
            0.530204804, abs=1e-8
        )

    def test_oracle_value(self):
        assert optimal_markov_param(0.05) == pytest.approx(
            0.530204804552, abs=1e-9
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            optimal_markov_param(0.9)
        with pytest.raises(ValueError):
            optimal_markov_param(-0.01)


HY_PIN_GEOM_D002 = 0.11602659669146685
