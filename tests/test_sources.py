"""Tests for run-length distributions and source sampling.

Numeric pins were frozen from an independent 40-digit evaluation of the
defining formulas.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delchan import sources
from delchan.sources import (
    _BLOCK,
    _GUIDE_CELLS,
    RunLengthDistribution,
    SourceSpec,
    _inverse_cdf,
    _rng_from,
    _sample_lengths,
    _sample_rows,
    as_bits,
    bits_to_str,
    dagger_distribution,
    dagger_mass,
    geometric_half,
    point_mass,
    read_distribution,
    sample_sequence,
    write_distribution,
)
from test_channel import ScriptedUniforms

# Independent oracle values.
DAGGER1_AT_01 = 0.455342908957  # 2^-1 * (1 - 0.1 * c2 / 2)
DAGGER2_AT_01 = 0.240000267985  # 2^-2 * (1 + 0.1 * (2 ln 2 - c2))


def reference_sample_sequence(spec, n, seed):
    """``sample_sequence`` as one scalar-draw loop with ``rng.choice``; the
    batched sampler must reproduce it bit for bit."""
    rng = _rng_from(seed)
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    if spec.kind == "bernoulli_half":
        return rng.integers(0, 2, size=n, dtype=np.uint8)
    if spec.kind == "markov":
        first = rng.integers(0, 2, dtype=np.uint8)
        if n == 1:
            return np.array([first], dtype=np.uint8)
        flips = (rng.random(n - 1) >= spec.p_same).astype(np.int64)
        bits = np.empty(n, dtype=np.uint8)
        bits[0] = first
        bits[1:] = (int(first) + np.cumsum(flips)) % 2
        return bits
    dist = spec.dist
    value = int(rng.integers(0, 2))
    chunks, total = [], 0
    batch = max(16, int(n / dist.mean * 1.25) + 16)
    while total < n:
        lengths = rng.choice(dist.lengths, size=batch, p=dist.probs, replace=True)
        values = np.empty(batch, dtype=np.uint8)
        values[0::2] = value
        values[1::2] = value ^ 1
        chunk = np.repeat(values, lengths)
        value = int(values[-1]) ^ 1
        chunks.append(chunk)
        total += chunk.size
    return np.concatenate(chunks)[:n]


def whole_array_sample_rows(spec, n, rows, rng):
    """``_sample_rows`` as it was before long rows were built in blocks:
    every draw and every expansion as one whole array.  The blocked
    sampler must reproduce it bit for bit and leave ``rng`` in the same
    state."""
    if spec.kind == "bernoulli_half":
        return rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
    if spec.kind == "markov":
        first = rng.integers(0, 2, size=(rows, 1), dtype=np.uint8)
        flips = (rng.random((rows, n - 1)) >= spec.p_same).view(np.uint8)
        steps = np.concatenate((first, flips), axis=1)
        return np.bitwise_xor.accumulate(steps, axis=1)
    dist = spec.dist
    value = rng.integers(0, 2, size=(rows, 1))
    parts = []
    total = np.zeros(rows, dtype=np.int64)
    batch = max(16, int(n / dist.mean * 1.25) + 16)
    while total.min() < n:
        parts.append(_sample_lengths(rng, dist._cdf, (rows, batch)))
        total += parts[-1].sum(axis=1)
    parts[-1][:, -1] += total.max() - total
    lengths = np.concatenate(parts, axis=1)
    values = np.empty(lengths.shape, dtype=np.uint8)
    values[:, 0::2] = value
    values[:, 1::2] = value ^ 1
    bits = np.repeat(values.ravel(), lengths.ravel())
    return bits.reshape(rows, -1)[:, :n]


#: Mostly 1s with rare 64s: a batch sized by the mean often falls short,
#: so rows need a second batch.
HEAVY_TAIL = RunLengthDistribution.from_weights([0.9] + [0.0] * 62 + [0.1])

ALL_KINDS = [
    SourceSpec.bernoulli_half(),
    SourceSpec.markov(0.3),
    SourceSpec.dagger(0.05),
    SourceSpec.renewal(geometric_half(16)),
    SourceSpec.renewal(point_mass(3)),
]


def palm_id(spec):
    """Test id of a Palm-start sampling test.  The ``False-`` prefix is kept
    from when the sampler also offered a stationary start (``False`` was the
    Palm start, the only start left), so the test names stay stable."""
    return f"False-{spec.kind}"


#: Row lengths around the block boundaries of the one-row sampler.
BLOCK_LENGTHS = (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)


class TestBitHelpers:
    def test_roundtrip(self):
        assert bits_to_str(as_bits("0110")) == "0110"
        assert as_bits("").size == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            as_bits("012")
        with pytest.raises(ValueError):
            as_bits([0, 2])

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 256, 1]),  # wraps to 0 as uint8
            np.array([1.7, 0.0]),  # truncates to 1
            np.array([-1, 0]),
            np.array([np.nan]),
            [1.5, 0],
            [256],  # overflows uint8
            [0, -1],
        ],
        ids=["wraps", "truncates", "negative", "nan", "fraction-list",
             "overflow-list", "negative-list"],
    )
    def test_every_element_is_checked_before_the_cast(self, bad):
        with pytest.raises(ValueError, match="may contain only 0s and 1s"):
            as_bits(bad)

    def test_arrays_and_sequences_of_bits(self):
        bits = np.array([1, 0, 1], dtype=np.uint8)
        assert as_bits(bits) is bits  # no copy
        for x in ([1, 0, 1], (1, 0, 1), [1.0, 0.0, 1.0], np.array([True, False, True]),
                  np.array([1, 0, 1], dtype=np.int64)):
            got = as_bits(x)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, bits)
        assert as_bits([]).dtype == np.uint8 and as_bits([]).size == 0

    @given(st.text(alphabet="01", max_size=64))
    def test_any_binary_string(self, s):
        arr = as_bits(s)
        assert arr.dtype == np.uint8
        assert bits_to_str(arr) == s


class TestDistributions:
    def test_geometric_forced_by_normalization(self):
        d = geometric_half(1)
        assert d.probs.tolist() == [1.0]

    def test_geometric_mean_and_sum(self):
        d = geometric_half(64)
        assert abs(d.mean - 2.0) <= 1e-12
        assert abs(math.fsum(d.probs.tolist()) - 1.0) <= 1e-15
        d.validate()

    def test_point_mass(self):
        d = point_mass(1)
        assert d.probs.tolist() == [1.0]
        assert point_mass(5).mean == 5.0

    def test_dagger_mass_pins(self):
        assert dagger_mass(1, 0.1) == pytest.approx(DAGGER1_AT_01, abs=1e-12)
        assert dagger_mass(2, 0.1) == pytest.approx(DAGGER2_AT_01, abs=1e-12)

    def test_dagger_reduces_to_geometric_at_zero(self):
        d = dagger_distribution(0.0, L_max=40)
        g = geometric_half(40)
        np.testing.assert_allclose(d.probs, g.probs, atol=1e-15)

    def test_dagger_probs_near_raw_mass(self):
        # the discarded tail beyond 64 is ~2^-60, so renormalization is tiny
        d = dagger_distribution(0.1)
        assert d.prob(1) == pytest.approx(DAGGER1_AT_01, abs=1e-12)
        assert d.prob(2) == pytest.approx(DAGGER2_AT_01, abs=1e-12)
        # discarded tail beyond 64 is ~2^-60 but the estimate inherits
        # the certified 1e-12 accuracy of the series constant inside
        assert abs(d.discarded_mass) < 1e-12

    def test_dagger_distribution_reads_the_constants_once(self, monkeypatch):
        calls = []
        real = sources.compute_constants

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sources, "compute_constants", counting)
        for L_max in (1, 22, 64):
            calls.clear()
            dagger_distribution(0.05, L_max)
            assert len(calls) == 1

    def test_dagger_distribution_renormalizes_dagger_mass(self):
        # the distribution's one constants read gives the same weights, bit
        # for bit, as the public per-length dagger_mass
        for d in (0.0, 0.05, 0.1, 0.5, 1.0):
            for L_max in (1, 22, 64):
                weights = [dagger_mass(l, d) for l in range(1, L_max + 1)]
                expected = RunLengthDistribution.from_weights(
                    weights, discarded_mass=1.0 - math.fsum(weights)
                )
                got = dagger_distribution(d, L_max)
                assert got.probs.tolist() == expected.probs.tolist()
                assert got.discarded_mass == expected.discarded_mass

    def test_dagger_rejects_d_above_one(self):
        # the closed rule runs first; inside [0, 1] every mass is positive
        with pytest.raises(
            ValueError, match=re.escape("must be in [0, 1], got 2.0")
        ):
            dagger_distribution(2.0)

    def test_dagger_rejects_negative_d(self):
        with pytest.raises(ValueError):
            dagger_distribution(-0.1)

    def test_log2_variant_breaks_normalization(self):
        # with natural log the pre-truncation masses sum to 1 (+ tail);
        # a base-2 log would leave them off by Theta(d).
        d = 0.1
        s_ln = math.fsum(dagger_mass(l, d) for l in range(1, 65))
        assert abs(s_ln - 1.0) < 1e-10

    def test_validate_rejects_bad_probabilities(self):
        with pytest.raises(ValueError, match="negative probability"):
            RunLengthDistribution(np.array([1.5, -0.5])).validate()
        with pytest.raises(ValueError, match="do not sum to 1"):
            RunLengthDistribution(np.array([0.5, 0.4])).validate()
        # a renewal source validates its law
        with pytest.raises(ValueError, match="do not sum to 1"):
            SourceSpec.renewal(RunLengthDistribution(np.array([0.5, 0.4])))

    def test_from_weights_rejects_bad_input(self):
        with pytest.raises(ValueError):
            RunLengthDistribution.from_weights([])
        with pytest.raises(ValueError, match="l=2"):
            RunLengthDistribution.from_weights([0.5, -0.1])
        with pytest.raises(ValueError):
            RunLengthDistribution.from_weights([0.0, 0.0])


class TestSourceSpec:
    def test_constructors(self):
        SourceSpec.bernoulli_half()
        SourceSpec.markov(0.53)
        SourceSpec.renewal(geometric_half(8))
        SourceSpec.dagger(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceSpec.markov(0.0)
        with pytest.raises(ValueError):
            SourceSpec.markov(1.0)
        with pytest.raises(ValueError):
            SourceSpec(kind="renewal")
        with pytest.raises(ValueError):
            SourceSpec(kind="mystery")
        with pytest.raises(ValueError, match="takes no parameters"):
            SourceSpec("bernoulli_half", p_same=0.5)

    def test_renewal_like(self):
        assert SourceSpec.bernoulli_half().is_renewal_like
        assert SourceSpec.dagger(0.1).is_renewal_like
        assert not SourceSpec.markov(0.6).is_renewal_like


class TestSampling:
    def test_forced_alternation(self):
        spec = SourceSpec.renewal(point_mass(1))
        s = bits_to_str(sample_sequence(spec, 6, seed=7))
        assert s in ("010101", "101010")

    def test_reproducible(self):
        spec = SourceSpec.dagger(0.1)
        a = sample_sequence(spec, 5000, seed=42)
        b = sample_sequence(spec, 5000, seed=42)
        np.testing.assert_array_equal(a, b)
        c = sample_sequence(spec, 5000, seed=43)
        assert not np.array_equal(a, c)

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=300),
    )
    def test_reproducible_property(self, seed, n):
        spec = SourceSpec.renewal(geometric_half(16))
        a = sample_sequence(spec, n, seed)
        b = sample_sequence(spec, n, seed)
        assert a.size == n
        np.testing.assert_array_equal(a, b)

    def test_bernoulli_mean_concentrates(self):
        n = 10**6
        x = sample_sequence(SourceSpec.bernoulli_half(), n, seed=1)
        assert abs(float(x.mean()) - 0.5) <= 4 * 0.5 / math.sqrt(n)

    def test_markov_same_probability(self):
        n = 10**6
        x = sample_sequence(SourceSpec.markov(0.7), n, seed=2)
        same = float(np.mean(x[1:] == x[:-1]))
        assert abs(same - 0.7) <= 4 * math.sqrt(0.7 * 0.3 / n)

    def test_markov_half_equals_bernoulli_in_law(self):
        n = 200_000
        a = sample_sequence(SourceSpec.markov(0.5), n, seed=3)
        b = sample_sequence(SourceSpec.bernoulli_half(), n, seed=4)
        # compare empirical run-length pmfs up to l = 6
        from delchan.runstats import empirical_run_distribution

        pa = empirical_run_distribution(a).pmf
        pb = empirical_run_distribution(b).pmf
        for l in range(1, 7):
            assert abs(pa.prob(l) - pb.prob(l)) <= 0.01

    def test_renewal_empirical_tv_small(self):
        n = 10**6
        for dist in (dagger_distribution(0.1, L_max=32), geometric_half(32)):
            x = sample_sequence(SourceSpec.renewal(dist), n, seed=5)
            from delchan.runstats import empirical_run_distribution

            stats = empirical_run_distribution(x, l_cap=32)
            tv = 0.5 * sum(
                abs(stats.pmf.prob(l) - dist.prob(l)) for l in range(1, 33)
            )
            assert tv <= 0.01

    def test_dagger_first_length_frequency(self):
        n = 10**6
        x = sample_sequence(SourceSpec.dagger(0.1), n, seed=6)
        from delchan.runstats import empirical_run_distribution

        stats = empirical_run_distribution(x)
        p1 = stats.pmf.prob(1)
        n_runs = stats.n_runs
        se = math.sqrt(DAGGER1_AT_01 * (1 - DAGGER1_AT_01) / n_runs)
        assert abs(p1 - DAGGER1_AT_01) <= 4 * se

    def test_palm_start_begins_at_boundary(self):
        # point mass at l=3, Palm start: first run always complete (length 3)
        spec = SourceSpec.renewal(point_mass(3))
        for seed in range(50):
            x = sample_sequence(spec, 7, seed)
            assert x[0] == x[1] == x[2]
            assert x[3] != x[2]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            sample_sequence(SourceSpec.bernoulli_half(), -1, seed=0)

    def test_inverse_cdf_draws_match_choice(self):
        for dist in (dagger_distribution(0.05, 22), point_mass(3)):
            cdf = _inverse_cdf(dist.probs)
            for seed in range(200):
                a = np.random.Generator(np.random.Philox(seed))
                b = np.random.Generator(np.random.Philox(seed))
                expected = a.choice(dist.lengths, size=50, p=dist.probs)
                np.testing.assert_array_equal(_sample_lengths(b, cdf, 50), expected)
                assert a.random() == b.random()  # same number of draws

    @pytest.mark.parametrize("spec", ALL_KINDS, ids=palm_id)
    def test_matches_scalar_reference(self, spec):
        for seed in range(50):
            for n in (0, 1, 7, 300):
                a = np.random.Generator(np.random.Philox(seed))
                b = np.random.Generator(np.random.Philox(seed))
                got = sample_sequence(spec, n, a)
                want = reference_sample_sequence(spec, n, b)
                assert got.dtype == want.dtype == np.uint8
                np.testing.assert_array_equal(got, want)
                assert a.random() == b.random()  # same number of draws

    @pytest.mark.parametrize(
        "spec", ALL_KINDS + [SourceSpec.renewal(HEAVY_TAIL)], ids=palm_id
    )
    def test_blocked_row_matches_whole_array(self, spec):
        # at 10^6 bits the row is covered blocks before its batch ends, and
        # the rest of the batch must still be drawn
        for n in BLOCK_LENGTHS + (10**6,):
            for seed in (0, 1):
                a = _rng_from(seed)
                b = _rng_from(seed)
                got = sample_sequence(spec, n, a)
                want = whole_array_sample_rows(spec, n, 1, b)[0]
                assert got.dtype == np.uint8
                np.testing.assert_array_equal(got, want)
                assert a.random() == b.random()  # same number of draws

    def test_short_rows_need_second_batches(self):
        # the one-row loop over batches, not only over blocks, matches
        spec = SourceSpec.renewal(HEAVY_TAIL)
        second = 0
        for seed in range(40):
            a = _rng_from(seed)
            b = _rng_from(seed)
            got = sample_sequence(spec, 200, a)
            np.testing.assert_array_equal(
                got, whole_array_sample_rows(spec, 200, 1, b)[0]
            )
            assert a.random() == b.random()
            probe = _rng_from(seed)
            probe.integers(0, 2, size=(1, 1))
            batch = max(16, int(200 / HEAVY_TAIL.mean * 1.25) + 16)
            second += _sample_lengths(probe, HEAVY_TAIL._cdf, batch).sum() < 200
        assert second > 0

    @pytest.mark.parametrize(
        "spec", ALL_KINDS + [SourceSpec.renewal(HEAVY_TAIL)], ids=palm_id
    )
    def test_batched_rows_match_whole_array(self, spec):
        for rows, n in ((64, 1), (64, 10), (64, 200), (64, 2000), (3, _BLOCK + 5)):
            a = _rng_from(rows + n)
            b = _rng_from(rows + n)
            got = _sample_rows(spec, n, rows, a)
            want = whole_array_sample_rows(spec, n, rows, b)
            assert got.shape == (rows, n) and got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
            assert a.random() == b.random()

    @given(
        spec=st.sampled_from(ALL_KINDS + [SourceSpec.renewal(HEAVY_TAIL)]),
        block=st.sampled_from([1, 3, 7]),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiny_blocks_match_whole_array(self, spec, block, n, seed):
        # runs span many blocks, and a row is covered mid-batch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sources, "_BLOCK", block)
            a = _rng_from(seed)
            b = _rng_from(seed)
            got = _sample_rows(spec, n, 1, a)
        np.testing.assert_array_equal(got, whole_array_sample_rows(spec, n, 1, b))
        assert a.random() == b.random()  # same number of draws

    @pytest.mark.parametrize(
        "spec", [SourceSpec.renewal(point_mass(2))], ids=["False"]
    )
    def test_batched_rows_keep_the_run_law(self, spec):
        # point mass at l=2: every row, whatever the other rows drew, is a
        # window of ...0011 0011...; a Palm start begins with a whole run
        rows = _sample_rows(spec, 9, 64, _rng_from(5))
        assert rows.shape == (64, 9)
        np.testing.assert_array_equal(rows[:, 2:], rows[:, :-2] ^ 1)
        assert np.all(rows[:, 0] == rows[:, 1])
        assert np.all(rows[:, 1] != rows[:, 2])


#: Laws whose cdf points sit where the guide table can go wrong.
GUIDE_LAWS = ("dagger", "geometric", "point-mass", "gaps", "heavy-tail")


def guide_law(name, tmp_path) -> RunLengthDistribution:
    if name == "dagger":
        return dagger_distribution(0.05)
    if name == "geometric":  # cdf points 1/2, 3/4, ... on cell edges
        return geometric_half(64)
    if name == "point-mass":  # leading zero-mass lengths: cdf starts 0, 0
        return point_mass(3)
    if name == "gaps":  # interior zero-mass lengths, filled in on reading
        path = tmp_path / "gaps.tsv"
        path.write_text("1\t0.3\n4\t0.2\n5\t0.1\n9\t0.4\n", encoding="utf-8")
        return read_distribution(path)
    # many cdf points crowd the last cell [1 - 2^-12, 1)
    return RunLengthDistribution.from_weights(np.arange(1, 257) ** -3.0)


def reference_cdf(dist) -> np.ndarray:
    cdf = np.cumsum(dist.probs)
    cdf /= cdf[-1]
    return cdf


class TestGuideTable:
    """Run lengths through the guide table are the plain cdf search's."""

    @pytest.mark.parametrize("name", GUIDE_LAWS)
    def test_edge_uniforms_match_searchsorted(self, name, tmp_path):
        dist = guide_law(name, tmp_path)
        cdf = reference_cdf(dist)
        points = cdf[cdf < 1.0]
        edges = np.arange(_GUIDE_CELLS) / _GUIDE_CELLS
        u = np.concatenate(
            (
                points,
                np.nextafter(points, 0.0),
                edges,
                np.nextafter(edges[1:], 0.0),
                [0.0, 1.0 - 2.0**-53],
            )
        )
        u = np.resize(u, 8 * -(-u.size // 8))  # repeats a few, for 8 rows
        want = np.searchsorted(cdf, u, side="right") + 1
        for shape in (u.size, (8, u.size // 8)):
            for out in (None, np.empty(shape)):
                rng = ScriptedUniforms(u)
                got = _sample_lengths(rng, dist._cdf, shape, out)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want.reshape(shape))
                assert rng.used == u.size

    @pytest.mark.parametrize("name", GUIDE_LAWS)
    def test_cell_is_searched_only_when_a_cdf_point_splits_it(self, name, tmp_path):
        dist = guide_law(name, tmp_path)
        cdf = reference_cdf(dist)
        lo = np.arange(_GUIDE_CELLS)[:, None] / _GUIDE_CELLS
        hi = np.arange(1, _GUIDE_CELLS + 1)[:, None] / _GUIDE_CELLS
        split = ((lo < cdf) & (cdf < hi)).any(axis=1)
        guide = dist._cdf.guide
        np.testing.assert_array_equal(guide == 0, split)
        whole = ~split
        np.testing.assert_array_equal(
            guide[whole], np.searchsorted(cdf, lo[whole, 0], side="right") + 1
        )
        np.testing.assert_array_equal(dist._cdf.cdf, cdf)

    def test_split_cell_counts(self, tmp_path):
        assert np.count_nonzero(guide_law("dagger", tmp_path)._cdf.guide == 0) == 14
        geometric = guide_law("geometric", tmp_path)
        np.testing.assert_array_equal(
            reference_cdf(geometric)[:12], 1.0 - 0.5 ** np.arange(1, 13)
        )
        # only the last cell, which holds 1 - 2^-13 and beyond, is split
        split = np.flatnonzero(geometric._cdf.guide == 0)
        np.testing.assert_array_equal(split, [_GUIDE_CELLS - 1])
        heavy = reference_cdf(guide_law("heavy-tail", tmp_path))
        assert np.count_nonzero((heavy >= 1.0 - 2.0**-12) & (heavy < 1.0)) > 40


class TestDistributionIO:
    def test_roundtrip_exact(self, tmp_path):
        d = dagger_distribution(0.07, L_max=20)
        path = tmp_path / "dist.tsv"
        write_distribution(path, d, comment="capacity-achieving law\nd=0.07")
        back = read_distribution(path)
        assert back.L_max == d.L_max
        np.testing.assert_array_equal(back.probs, d.probs)

    def test_gap_fill(self, tmp_path):
        path = tmp_path / "gap.tsv"
        path.write_text("1\t0.5\n3\t0.5\n", encoding="utf-8")
        d = read_distribution(path)
        assert d.prob(2) == 0.0
        assert d.prob(3) == 0.5

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("1\t0.5\nnot a line\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            read_distribution(path)

    @pytest.mark.parametrize(
        "line,msg",
        [
            ("2\tabc", "could not convert"),
            ("2\t-0.5", "invalid probability -0.5"),
            ("2\tinf", "invalid probability inf"),
        ],
        ids=["non-numeric", "negative", "inf"],
    )
    def test_bad_probability_names_line(self, tmp_path, line, msg):
        path = tmp_path / "bad.tsv"
        path.write_text(f"1\t0.5\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 2: {msg}"):
            read_distribution(path)

    def test_decreasing_lengths_rejected(self, tmp_path):
        path = tmp_path / "dec.tsv"
        path.write_text("1\t0.5\n2\t0.25\n2\t0.25\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            read_distribution(path)

    def test_must_start_at_one(self, tmp_path):
        path = tmp_path / "start.tsv"
        path.write_text("2\t1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="start at 1"):
            read_distribution(path)

    def test_sum_tolerance(self, tmp_path):
        path = tmp_path / "sum.tsv"
        path.write_text("1\t0.5\n2\t0.4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="sum"):
            read_distribution(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_distribution(path)
