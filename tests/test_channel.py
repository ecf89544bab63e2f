"""Channel application, run/super-run segmentation, the modified mask."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delchan import channel
from delchan.channel import (
    SuperRunType,
    _output_run_lengths,
    _run_dtype,
    apply_mask,
    modified_mask,
    run_lengths,
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
            assert got.dtype == np.int32 and want.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            assert a.random() == b.random()  # same number of draws

    def test_all_deleted(self):
        x = sample_sequence(SourceSpec.bernoulli_half(), 2 * _BLOCK + 3, 1)
        for d in (1.0, 1.0 - 2.0**-53):
            a = _rng_from(2)
            b = _rng_from(2)
            got = _output_run_lengths(x, d, a)
            assert got.size == 0 and got.dtype == np.int32
            assert transmit(x, d, b).y.size == 0
            assert a.random() == b.random()
        assert _output_run_lengths(x[:0], 0.5, _rng_from(2)).size == 0

    def test_run_dtype_holds_the_longest_run(self):
        # no run is longer than the input, so int32 holds sizes below 2^31
        assert _run_dtype(2**31 - 1) is np.int32
        assert _run_dtype(2**31) is np.int64

    def test_one_run_as_long_as_the_input(self):
        x = np.ones(3 * _BLOCK + 7, dtype=np.uint8)
        a = _rng_from(4)
        b = _rng_from(4)
        got = _output_run_lengths(x, 0.0, a)
        assert got.dtype == np.int32
        assert got.tolist() == [x.size]
        np.testing.assert_array_equal(got, run_lengths(transmit(x, 0.0, b).y))
        assert a.random() == b.random()

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

    @given(
        bits=bit_strings,
        block=st.sampled_from([1, 3, 7]),
        d=st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_tiny_blocks_match_transmit_run_lengths(self, bits, block, d, seed):
        # runs span many blocks, and blocks with no survivors come in a row
        x = as_bits(bits)
        a = _rng_from(seed)
        b = _rng_from(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(channel, "_BLOCK", block)
            got = _output_run_lengths(x, d, a)
        want = run_lengths(transmit(x, d, b).y)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)
        assert a.random() == b.random()  # same number of draws


    @pytest.mark.parametrize(
        "spec", [SourceSpec.dagger(0.1), SourceSpec.markov(0.56)], ids=lambda s: s.kind
    )
    def test_memory_budget(self, spec):
        # one int32 per input bit for the run buffer, and block buffers
        n = 1 << 22
        x = sample_sequence(spec, n, 1)
        tracemalloc.start()
        try:
            _output_run_lengths(x, 0.1, _rng_from(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n + 1.5e6


class TestSegmentation:
    def test_runs_basic(self):
        assert run_lengths(as_bits("00111")).tolist() == [2, 3]

    def test_runs_empty(self):
        assert run_lengths(as_bits("")).size == 0

    def test_runs_reference_lengths(self):
        assert run_lengths(as_bits(REFERENCE)).tolist() == [1, 2, 1, 3, 2, 1, 1, 2]

    @given(bits=bit_strings)
    @settings(max_examples=100, deadline=None)
    def test_runs_concatenation(self, bits):
        lengths = run_lengths(as_bits(bits)).tolist()
        assert all(l >= 1 for l in lengths)
        # maximality: adjacent runs alternate in value, starting at bit 0
        first = int(bits[0]) if bits else 0
        assert "".join(str(first ^ (j & 1)) * l for j, l in enumerate(lengths)) == bits

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

    @given(bits=bit_strings)
    @settings(max_examples=200, deadline=None)
    def test_super_runs_match_a_per_run_loop(self, bits):
        want = []
        for j, l in enumerate(run_lengths(as_bits(bits)).tolist()):
            if j == 0 or l >= 2:
                want.append([l, 0])
            else:
                want[-1][1] += 1
        got = segment_super_runs(bits)
        assert got == [SuperRunType(*t) for t in want]
        assert all(type(v) is int for t in got for v in t)


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

    def test_empty_input(self):
        mask_hat, z = modified_mask("", "")
        assert mask_hat.size == z.size == 0
        assert mask_hat.dtype == z.dtype == np.uint8

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
