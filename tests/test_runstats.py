"""Empirical run statistics: pmfs, super-runs, entropies, JSON export."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delchan.channel import SuperRunType, segment_super_runs, transmit
from delchan.runstats import (
    _L_CAP,
    EmpiricalRunStats,
    _capped_counts,
    empirical_run_distribution,
    empirical_super_run_distribution,
    stats_to_json,
)
from delchan.sources import (
    RunLengthDistribution,
    SourceSpec,
    dagger_distribution,
    geometric_half,
    point_mass,
    sample_sequence,
)

# Σ 2^-l (l ln l)^2 and Σ 2^-l l^2 ln l, entering the quadratic expansion
# of D(p-dagger || 2^-l); frozen from an independent high-precision sum.
TAYLOR_BRACKET = 3.19722403193  # (3/2) c2^2 + S_a - c2 S_b

REFERENCE = "1001000110100"


def json_entropy_and_divergence(p: RunLengthDistribution) -> tuple[float, float]:
    """The ``H_L`` and ``D`` that ``stats_to_json`` reports for the pmf ``p``."""
    doc = json.loads(stats_to_json(EmpiricalRunStats(pmf=p, mu_hat=p.mean, n_runs=1)))
    return doc["H_L"], doc["D"]


class TestEmpiricalRunDistribution:
    def test_boundary_only_is_error(self):
        with pytest.raises(ValueError, match="too few runs"):
            empirical_run_distribution("00111")

    def test_single_interior_run(self):
        stats = empirical_run_distribution("0011100")
        assert stats.pmf.prob(3) == 1.0
        assert stats.mu_hat == 3.0
        assert stats.n_runs == 1

    def test_bernoulli_sample_matches_geometric(self):
        x = sample_sequence(SourceSpec.bernoulli_half(), 10**6, seed=5)
        stats = empirical_run_distribution(x)
        errs = [abs(stats.pmf.prob(l) - 2.0**-l) for l in range(1, 9)]
        assert max(errs) <= 0.005

    def test_overflow_bucket(self):
        # interior runs: 5, 1, 7 with l_cap=4 -> only the 1 stays
        x = "1" + "00000" + "1" + "0000000" + "11"
        stats = empirical_run_distribution(x, l_cap=4)
        assert stats.n_runs == 3
        assert stats.pmf.prob(1) == 1.0
        assert stats.pmf.discarded_mass == pytest.approx(2.0 / 3.0)
        # mu_hat still averages ALL interior runs, overflow included
        assert stats.mu_hat == pytest.approx((5 + 1 + 7) / 3.0)

    def test_all_overflow_is_error(self):
        with pytest.raises(ValueError, match="exceed l_cap"):
            empirical_run_distribution("1000001", l_cap=2)


@pytest.mark.parametrize("cap", [1, 4, _L_CAP])
def test_capped_counts_leave_longer_runs_out(cap):
    drawn = np.random.default_rng(cap).integers(1, 3 * _L_CAP, size=4000)
    # lengths of exactly cap and cap + 1 sit on either side of the cut
    drawn = np.concatenate((drawn, [cap, cap + 1, cap + 1]))
    assert (drawn > cap).any()
    for dtype in (np.int64, np.int32):  # int32: the output stream's lengths
        lengths = drawn.astype(dtype)
        counts = _capped_counts(lengths, cap)
        assert counts.shape == (cap,)
        want = np.bincount(lengths[lengths <= cap], minlength=cap + 1)[1:]
        assert (counts == want).all()
        assert counts[cap - 1] == (drawn == cap).sum()


def dict_loop_super_run_pmf(x) -> list[tuple[SuperRunType, float]]:
    """The type pmf as the per-super-run dict loop built it, items in order."""
    interior = segment_super_runs(x)[1:-1]
    n = len(interior)
    pmf: dict[SuperRunType, float] = {}
    for t in interior:
        pmf[t] = pmf.get(t, 0.0) + 1.0 / n
    return list(pmf.items())


class TestEmpiricalSuperRuns:
    @pytest.mark.parametrize(
        "spec",
        [SourceSpec.bernoulli_half(), SourceSpec.markov(0.8), SourceSpec.dagger(0.1)],
        ids=["bernoulli_half", "markov", "dagger"],
    )
    @pytest.mark.parametrize("n,seed", [(40, 1), (1000, 2), (200_000, 3)])
    def test_type_pmf_matches_dict_loop(self, spec, n, seed):
        x = sample_sequence(spec, n, seed=seed)
        got = list(empirical_super_run_distribution(x).super_run_pmf.items())
        assert got == dict_loop_super_run_pmf(x)  # keys, key order and values
        assert all(type(v) is int for t, _ in got for v in t)

    def test_pure_alternation_is_error(self):
        with pytest.raises(ValueError, match="too few super-runs"):
            empirical_super_run_distribution("010101")

    def test_reference_interior_types(self):
        stats = empirical_super_run_distribution(REFERENCE)
        assert stats.super_run_pmf is not None
        assert set(stats.super_run_pmf) == {
            SuperRunType(2, 1),
            SuperRunType(3, 0),
            SuperRunType(2, 2),
        }
        assert stats.n_runs == 3
        assert stats.mu_hat == pytest.approx((3 + 3 + 4) / 3.0)
        assert stats.pmf.prob(3) == pytest.approx(2.0 / 3.0)
        assert stats.pmf.prob(4) == pytest.approx(1.0 / 3.0)

    def test_bernoulli_mean_super_run_length_near_4(self):
        x = sample_sequence(SourceSpec.bernoulli_half(), 10**6, seed=21)
        stats = empirical_super_run_distribution(x)
        assert abs(stats.mu_hat - 4.0) <= 0.05

    def test_bernoulli_type_pmf_product_form(self):
        # P(type = (l1, l2)) = 2^-(l1+l2) for the uniform source
        x = sample_sequence(SourceSpec.bernoulli_half(), 10**6, seed=22)
        stats = empirical_super_run_distribution(x)
        for l1 in (2, 3):
            for l2 in (0, 1, 2):
                got = stats.super_run_pmf.get(SuperRunType(l1, l2), 0.0)
                assert got == pytest.approx(2.0 ** -(l1 + l2), abs=0.01)


class TestDistributionStats:
    def test_geometric(self):
        H_L, D = json_entropy_and_divergence(geometric_half(64))
        assert H_L == pytest.approx(2.0, abs=1e-12)
        assert D == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_one(self):
        H_L, D = json_entropy_and_divergence(point_mass(1))
        assert H_L == 0.0
        assert D == pytest.approx(1.0)

    def test_dagger_divergence_exact_value(self):
        # independent 40-digit evaluation of the untruncated series
        # KL(p-dagger(0.1) || 2^-l); the quadratic approximation below is
        # 19% high at d = 0.1, so the exact value is pinned instead
        _, D = json_entropy_and_divergence(dagger_distribution(0.1))
        assert D == pytest.approx(0.019314966332, abs=1e-9)

    @pytest.mark.parametrize("d", [0.05, 0.02])
    def test_dagger_divergence_taylor(self, d):
        _, D = json_entropy_and_divergence(dagger_distribution(d))
        expected = d**2 / (2.0 * math.log(2.0)) * TAYLOR_BRACKET
        assert D == pytest.approx(expected, rel=0.10)

    def test_dagger_divergence_taylor_convergence(self):
        # quadratic approximation becomes exact as d -> 0
        ratios = []
        for d in (0.04, 0.02, 0.01):
            _, D = json_entropy_and_divergence(dagger_distribution(d))
            quad = d**2 / (2.0 * math.log(2.0)) * TAYLOR_BRACKET
            ratios.append(D / quad)
        assert all(r1 < r2 < 1.0 for r1, r2 in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 0.03

    @given(
        weights=st.lists(
            st.floats(0.01, 10.0, allow_nan=False), min_size=1, max_size=24
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_entropy_identity(self, weights):
        p = RunLengthDistribution.from_weights(weights)
        H_L, D = json_entropy_and_divergence(p)
        assert H_L == pytest.approx(p.mean - D, abs=1e-10)


class TestDualRouteRunLaws:
    @pytest.mark.parametrize("d", [0.05, 0.1])
    def test_dagger_sample_tv(self, d):
        target = dagger_distribution(d)
        x = sample_sequence(SourceSpec.renewal(target), 10**6, seed=31)
        stats = empirical_run_distribution(x)
        tv = 0.5 * sum(
            abs(stats.pmf.prob(l) - target.prob(l)) for l in range(1, 65)
        )
        assert tv <= 0.01

    def test_output_vs_input_run_pmf(self):
        d = 0.1
        x = sample_sequence(SourceSpec.renewal(dagger_distribution(d)), 10**6, seed=33)
        y = transmit(x, d, seed=34).y
        p_hat = empirical_run_distribution(x)
        q_hat = empirical_run_distribution(y)
        errs = [
            abs(p_hat.pmf.prob(l) - q_hat.pmf.prob(l)) for l in range(1, 9)
        ]
        assert max(errs) <= 0.01


class TestJsonExport:
    def test_schema(self):
        stats = empirical_run_distribution(REFERENCE)
        doc = json.loads(stats_to_json(stats))
        assert list(doc) == ["pmf", "mu", "H_L", "D", "n_runs"]
        assert doc["n_runs"] == 6
        assert doc["mu"] == pytest.approx(10.0 / 6.0)
        pairs = {l: p for l, p in doc["pmf"]}
        assert pairs[1] == pytest.approx(3.0 / 6.0)
        assert pairs[2] == pytest.approx(2.0 / 6.0)
        assert pairs[3] == pytest.approx(1.0 / 6.0)
        pmf = [3.0 / 6.0, 2.0 / 6.0, 1.0 / 6.0]
        assert doc["H_L"] == pytest.approx(-sum(p * math.log2(p) for p in pmf))
        assert doc["D"] == pytest.approx(
            sum(p * (math.log2(p) + l) for l, p in enumerate(pmf, start=1))
        )
