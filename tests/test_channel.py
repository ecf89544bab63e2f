"""Channel application, run/super-run segmentation, mask variants, parents."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delchan.channel import (
    SuperRunType,
    _output_run_lengths,
    apply_mask,
    modified_mask,
    parent_segmentation,
    perturbed_mask,
    run_lengths,
    segment_runs,
    segment_super_runs,
    transmit,
)
from delchan.sources import (
    _BLOCK,
    SourceSpec,
    _rng_from,
    as_bits,
    bits_to_str,
    geometric_half,
    point_mass,
    sample_sequence,
)

bit_strings = st.text(alphabet="01", min_size=0, max_size=64)
nonempty_bits = st.text(alphabet="01", min_size=1, max_size=64)

# A reference string whose run lengths are 1,2,1,3,2,1,1,2 and whose
# interior super-runs are (2,1),(3,0),(2,2); used across segmentation tests.
REFERENCE = "1001000110100"


def reconstruct_input(realization) -> np.ndarray:
    """Interleave ``y`` with the deleted bits per ``mask`` to rebuild ``x``,
    which checks that output extraction is order-preserving."""
    x = np.empty(realization.mask.size, dtype=np.uint8)
    keep = realization.mask == 0
    x[keep] = realization.y
    x[~keep] = realization.x[~keep]
    return x


class TestTransmit:
    def test_d_zero_identity(self):
        r = transmit("0110100", 0.0, seed=1)
        assert bits_to_str(r.y) == "0110100"
        assert not r.mask.any()

    def test_d_one_erases(self):
        r = transmit("0110100", 1.0, seed=1)
        assert r.y.size == 0
        assert r.mask.all()

    def test_mask_rate_binomial(self):
        n, d = 10**6, 0.1
        r = transmit(np.zeros(n, dtype=np.uint8), d, seed=7)
        rate = r.mask.sum() / n
        assert abs(rate - d) <= 4.0 * math.sqrt(d * (1 - d) / n)

    def test_y_matches_mask(self):
        r = transmit("01101001", 0.4, seed=3)
        np.testing.assert_array_equal(r.y, r.x[r.mask == 0])

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            transmit("01", -0.1, seed=0)
        with pytest.raises(ValueError):
            transmit("01", 1.5, seed=0)

    def test_reproducible(self):
        a = transmit("0101110", 0.3, seed=42)
        b = transmit("0101110", 0.3, seed=42)
        np.testing.assert_array_equal(a.mask, b.mask)

    @pytest.mark.parametrize("d", [0.0, 0.05, 0.5, 1.0])
    def test_matches_scalar_reference(self, d):
        for seed in range(50):
            x = sample_sequence(SourceSpec.bernoulli_half(), 200, seed)
            rng = _rng_from(seed)
            if d in (0.0, 1.0):
                mask = np.full(x.size, d, dtype=np.uint8)
            else:
                mask = (rng.random(x.size) < d).astype(np.uint8)
            r = transmit(x, d, seed)
            assert r.mask.dtype == np.uint8
            np.testing.assert_array_equal(r.mask, mask)
            np.testing.assert_array_equal(r.y, x[mask == 0])

    @given(bits=nonempty_bits, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_reconstruction_roundtrip(self, bits, seed):
        r = transmit(bits, 0.35, seed=seed)
        np.testing.assert_array_equal(reconstruct_input(r), r.x)


class ScriptedUniforms:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=np.float64)
        self.used = 0

    def random(self, shape, out=None):
        size = int(np.prod(shape))
        draw = self.uniforms[self.used : self.used + size].reshape(shape)
        self.used += size
        if out is None:
            return draw.copy()
        out[...] = draw
        return out


class TestOutputRunLengths:
    """The blocked stream path against the whole-array ``transmit``."""

    @pytest.mark.parametrize(
        "spec",
        [
            SourceSpec.bernoulli_half(),
            SourceSpec.markov(0.3),
            SourceSpec.markov(0.9),
            SourceSpec.dagger(0.05),
            SourceSpec.renewal(geometric_half(16)),
            SourceSpec.renewal(point_mass(3)),
        ],
        ids=lambda s: s.kind,
    )
    @pytest.mark.parametrize("d", [0.0, 0.05, 0.5, 0.99])
    def test_matches_transmit_run_lengths(self, spec, d):
        for n in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
            x = sample_sequence(spec, n, n)
            a = _rng_from(n + 1)
            b = _rng_from(n + 1)
            got = _output_run_lengths(x, d, a)
            want = run_lengths(transmit(x, d, b).y)
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            assert a.random() == b.random()  # same number of draws

    def test_all_deleted(self):
        x = sample_sequence(SourceSpec.bernoulli_half(), 2 * _BLOCK + 3, 1)
        for d in (1.0, 1.0 - 2.0**-53):
            a = _rng_from(2)
            b = _rng_from(2)
            got = _output_run_lengths(x, d, a)
            assert got.size == 0 and got.dtype == np.int64
            assert transmit(x, d, b).y.size == 0
            assert a.random() == b.random()
        assert _output_run_lengths(x[:0], 0.5, _rng_from(2)).size == 0

    @pytest.mark.parametrize(
        "values,keep,want",
        [
            # a run that crosses two block boundaries
            ((0, 0, 0), (1, 1, 1), [3 * _BLOCK]),
            # each block starts a new run exactly at its first output bit
            ((0, 1, 0), (1, 1, 1), [_BLOCK] * 3),
            # a block with no survivors between two blocks of equal value
            ((1, 0, 1), (1, 0, 1), [2 * _BLOCK]),
            # ... and between two blocks of different values
            ((1, 1, 0), (1, 0, 1), [_BLOCK, _BLOCK]),
            # an empty first block, and an empty last block
            ((0, 1, 1), (0, 1, 0), [_BLOCK]),
        ],
    )
    def test_block_boundaries(self, values, keep, want):
        x = np.repeat(np.array(values, dtype=np.uint8), _BLOCK)
        uniforms = np.repeat([0.75 if k else 0.25 for k in keep], _BLOCK)
        rng = ScriptedUniforms(uniforms)
        got = _output_run_lengths(x, 0.5, rng)
        assert rng.used == x.size
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, run_lengths(x[uniforms >= 0.5]))


class TestSegmentation:
    def test_runs_basic(self):
        assert segment_runs("00111") == [(0, 2), (1, 3)]

    def test_runs_empty(self):
        assert segment_runs("") == []

    def test_runs_reference_lengths(self):
        assert [l for _, l in segment_runs(REFERENCE)] == [1, 2, 1, 3, 2, 1, 1, 2]

    @given(bits=bit_strings)
    @settings(max_examples=100, deadline=None)
    def test_runs_concatenation(self, bits):
        segs = segment_runs(bits)
        assert "".join(str(v) * l for v, l in segs) == bits
        assert all(l >= 1 for _, l in segs)
        # maximality: adjacent runs alternate in value
        assert all(a[0] != b[0] for a, b in zip(segs, segs[1:]))

    def test_super_runs_single_run(self):
        assert segment_super_runs("0000") == [SuperRunType(4, 0)]

    def test_super_runs_pure_alternation(self):
        assert segment_super_runs("0101") == [SuperRunType(1, 3)]

    def test_super_runs_reference(self):
        srs = segment_super_runs(REFERENCE)
        assert srs == [
            SuperRunType(1, 0),
            SuperRunType(2, 1),
            SuperRunType(3, 0),
            SuperRunType(2, 2),
            SuperRunType(2, 0),
        ]
        assert srs[1:-1] == [SuperRunType(2, 1), SuperRunType(3, 0), SuperRunType(2, 2)]

    @given(bits=bit_strings)
    @settings(max_examples=100, deadline=None)
    def test_super_run_lengths_partition(self, bits):
        srs = segment_super_runs(bits)
        assert sum(t.l_rep + t.l_alt for t in srs) == len(bits)
        # only the leading super-run may have l_rep = 1
        assert all(t.l_rep >= 2 for t in srs[1:])


class TestModifiedMask:
    def test_three_deletions_reversed(self):
        mask_hat, z = modified_mask("00000", "11100")
        assert bits_to_str(mask_hat) == "00000"
        assert bits_to_str(z) == "11100"

    def test_two_deletions_kept(self):
        mask_hat, z = modified_mask("00000", "11000")
        assert bits_to_str(mask_hat) == "11000"
        assert bits_to_str(z) == "00000"

    def test_per_run_rule(self):
        mask_hat, z = modified_mask("000111", "110110")
        assert bits_to_str(mask_hat) == "110110"
        assert bits_to_str(z) == "000000"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            modified_mask("000", "01")

    @given(bits=nonempty_bits, seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_at_most_two_deletions_per_run(self, bits, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        mask = (rng.random(len(bits)) < 0.5).astype(np.uint8)
        mask_hat, z = modified_mask(bits, mask)
        x = as_bits(bits)
        # z only where mask is 1; weight decreases
        assert not np.any(z & ~mask)
        assert mask_hat.sum() <= mask.sum()
        np.testing.assert_array_equal(mask_hat ^ z, mask)
        run_id = np.repeat(np.arange(run_lengths(x).size), run_lengths(x))
        per_run = np.bincount(run_id, weights=mask_hat)
        assert per_run.max(initial=0) <= 2


class TestPerturbedMask:
    def test_single_super_run_reversed(self):
        mask_breve, z = perturbed_mask("0000", "1110")
        assert bits_to_str(mask_breve) == "0000"
        assert bits_to_str(z) == "1110"

    def test_three_super_runs_one_deletion_each(self):
        # super-runs: "001" (bits 0-2), "000" (3-5), "11" (6-7)
        x = "00100011"
        mask = "10001010"  # one deletion inside each super-run
        mask_breve, z = perturbed_mask(x, mask)
        # window(S1) = 3 deletions -> reverse S1's; windows of S2, S3 have
        # 2 and 1 deletions on the ORIGINAL mask -> kept
        assert bits_to_str(z) == "10000000"
        assert bits_to_str(mask_breve) == "00001010"

    def test_zero_mask_unchanged(self):
        mask_breve, z = perturbed_mask(REFERENCE, "0" * len(REFERENCE))
        assert not mask_breve.any()
        assert not z.any()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            perturbed_mask("000", "0100")

    @given(bits=nonempty_bits, seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_z_subset_of_mask(self, bits, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        mask = (rng.random(len(bits)) < 0.4).astype(np.uint8)
        mask_breve, z = perturbed_mask(bits, mask)
        assert not np.any(z & ~mask)
        np.testing.assert_array_equal(mask_breve ^ z, mask)


class TestParentSegmentation:
    def test_no_deletion_two_runs(self):
        seg = parent_segmentation("0011", "0000")
        assert seg.x_blocks == ["00", "11"]
        assert seg.y_blocks == ["00", "11"]
        assert seg.K == (2,)

    def test_fused_middle_run(self):
        seg = parent_segmentation("00100", "00100")
        assert seg.x_blocks == ["00100"]
        assert seg.y_blocks == ["0000"]
        assert seg.K == ()

    def test_single_run_all_deleted(self):
        seg = parent_segmentation("000", "111")
        assert len(seg.x_blocks) == 1
        assert "".join(seg.x_blocks) == "000"
        assert "".join(seg.y_blocks) == ""
        assert seg.K == ()

    def test_deletion_free_recovers_runs(self):
        x = REFERENCE
        seg = parent_segmentation(x, "0" * len(x))
        assert seg.y_blocks == seg.x_blocks
        lengths = [l for _, l in segment_runs(x)]
        assert seg.x_blocks == [
            str(v) * l for v, l in segment_runs(x)
        ]
        assert seg.K == tuple(lengths[:-1])

    @given(bits=nonempty_bits, seed=st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_concatenation_invariants(self, bits, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        mask = (rng.random(len(bits)) < 0.45).astype(np.uint8)
        seg = parent_segmentation(bits, mask)
        x = as_bits(bits)
        y = apply_mask(x, mask)
        assert "".join(seg.x_blocks) == bits
        assert "".join(seg.y_blocks) == bits_to_str(y)
        assert seg.K == tuple(len(b) for b in seg.x_blocks[:-1])
        # each nonempty y-block after the first is a single run
        for j, block in enumerate(seg.y_blocks):
            if block and j > 0:
                assert len(set(block)) == 1


class TestReversalRate:
    def test_empirical_reversal_rate_bound(self):
        # i.i.d. masks on a renewal source with bounded runs: the
        # modified-mask reversal fraction is at most 2 d^3 E_hat[L^3]
        d = 0.15
        x = sample_sequence(SourceSpec.bernoulli_half(), 10**6, seed=11)
        real = transmit(x, d, seed=12)
        _, z = modified_mask(x, real.mask)
        lengths = run_lengths(x)
        e_l3 = float(np.mean(lengths.astype(np.float64) ** 3))
        assert z.sum() / x.size <= 2.0 * d**3 * e_l3
