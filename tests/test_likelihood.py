"""Embedding-count DP, exact likelihoods, and the exhaustive oracle."""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from delchan.constants import binary_entropy
from delchan.channel import _keep_mask, run_lengths
from delchan import likelihood
from delchan.likelihood import (
    IMPOSSIBLE,
    BlockInformation,
    _all_words,
    _band_counts,
    _band_dp,
    _group_codes,
    _input_probs,
    _key_maps,
    _log2_binomials,
    _total_probabilities,
    binomial_length_entropy,
    embedding_count,
    exact_block_information,
    log2_binomial,
    log_likelihood,
    total_probability,
)
from delchan.sources import (
    RunLengthDistribution,
    SourceSpec,
    _rng_from,
    _sample_rows,
    as_bits,
    geometric_half,
    point_mass,
)


def brute_force_count(x: str, y: str) -> int:
    """Count deletion masks mapping x to y by full enumeration."""
    n, m = len(x), len(y)
    count = 0
    for kept in itertools.combinations(range(n), m):
        if "".join(x[i] for i in kept) == y:
            count += 1
    return count


def big_int_count(x, y) -> int:
    """Exact embedding count: the DP ``f[i][j] = f[i-1][j] + [x_i = y_j]
    f[i-1][j-1]`` in Python integers, one row updated right to left."""
    xs, ys = as_bits(x).tolist(), as_bits(y).tolist()
    n, m = len(xs), len(ys)
    row = [1] + [0] * m
    for i, xi in enumerate(xs, start=1):
        lo = max(1, m - (n - i))
        for j in range(min(i, m), lo - 1, -1):
            if xi == ys[j - 1]:
                row[j] += row[j - 1]
    return row[m]


def kernel_log2(x, y, m) -> list[float]:
    """``log2 N`` of each pair of one ``_band_counts`` call."""
    top, scale = _band_counts(x, y, m)
    return [math.log2(t) + s if t else IMPOSSIBLE
            for t, s in zip(top.tolist(), scale.tolist())]


@st.composite
def channel_pairs(draw, max_n: int = 130):
    """(x, y): y is x after deletions, with up to two bits then flipped."""
    n = draw(st.integers(1, max_n))
    x = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 dtype=np.uint8)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    y = x[np.array(keep)].copy()
    if y.size:
        y[draw(st.lists(st.integers(0, y.size - 1), max_size=2))] ^= 1
    return x, y


class TestEmbeddingCount:
    def test_two_positions(self):
        assert embedding_count("11", "1") == pytest.approx(1.0)

    def test_three_embeddings(self):
        assert embedding_count("0101", "01") == pytest.approx(math.log2(3))

    def test_identity(self):
        assert embedding_count("011010", "011010") == 0.0

    def test_empty_output(self):
        assert embedding_count("0110", "") == 0.0

    @pytest.mark.parametrize("y", ["", "0", "11", "010"])
    def test_returns_a_python_float(self, y):
        assert type(embedding_count("0110", y)) is float
        for d in (0.0, 0.5):
            ll = log_likelihood("0110", y, d)
            assert type(ll.log_embedding_count) is type(ll.log_prob) is float

    def test_impossible(self):
        assert embedding_count("0000", "1") == IMPOSSIBLE

    def test_output_longer_rejected(self):
        with pytest.raises(ValueError):
            embedding_count("01", "011")

    def test_exhaustive_n_le_6(self):
        for n in range(1, 7):
            for xbits in itertools.product("01", repeat=n):
                x = "".join(xbits)
                for m in range(0, n + 1):
                    for ybits in itertools.product("01", repeat=m):
                        y = "".join(ybits)
                        expected = brute_force_count(x, y)
                        got = embedding_count(x, y)
                        if expected == 0:
                            assert got == IMPOSSIBLE
                        else:
                            assert got == pytest.approx(math.log2(expected))

    def test_random_pairs_n_le_12(self):
        rng = np.random.Generator(np.random.Philox(1234))
        for _ in range(10**4):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(0, n + 1))
            x = "".join("01"[b] for b in rng.integers(0, 2, n))
            y = "".join("01"[b] for b in rng.integers(0, 2, m))
            expected = brute_force_count(x, y)
            got = embedding_count(x, y)
            if expected == 0:
                assert got == IMPOSSIBLE
            else:
                assert got == pytest.approx(math.log2(expected), abs=1e-12)

    def test_scaled_matches_exact(self):
        rng = np.random.Generator(np.random.Philox(99))
        for _ in range(200):
            n = int(rng.integers(1, 65))
            x = rng.integers(0, 2, n).astype(np.uint8)
            keep = rng.random(n) >= 0.3
            y = x[keep]
            exact = math.log2(big_int_count(x, y))
            assert embedding_count(x, y) == pytest.approx(exact, rel=1e-10)

    def test_scaled_path_large_n(self):
        # all-equal bits give the closed form N = C(n, m)
        n, m = 200, 120
        got = embedding_count("1" * n, "1" * m)
        assert got == pytest.approx(log2_binomial(n, m), rel=1e-12)

    @given(st.text(alphabet="01", min_size=1, max_size=9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, x, data):
        m = data.draw(st.integers(0, len(x)))
        y = data.draw(st.text(alphabet="01", min_size=m, max_size=m))
        expected = brute_force_count(x, y)
        got = embedding_count(x, y)
        if expected == 0:
            assert got == IMPOSSIBLE
        else:
            assert got == pytest.approx(math.log2(expected))


class TestBandKernel:
    """The band kernel against the big-integer DP: int16 counts up to
    n = 17, where every count fits, and float64 counts from n = 18."""

    def test_big_int_oracle_matches_brute_force(self):
        rng = np.random.Generator(np.random.Philox(4))
        for _ in range(300):
            n = int(rng.integers(1, 10))
            m = int(rng.integers(0, n + 1))
            x = "".join("01"[b] for b in rng.integers(0, 2, n))
            y = "".join("01"[b] for b in rng.integers(0, 2, m))
            assert big_int_count(x, y) == brute_force_count(x, y)

    @given(channel_pairs())
    @example((np.ones(17, np.uint8), np.ones(8, np.uint8)))
    @example((np.ones(18, np.uint8), np.ones(9, np.uint8)))
    @example((np.ones(56, np.uint8), np.ones(28, np.uint8)))
    @example((np.ones(57, np.uint8), np.ones(28, np.uint8)))
    @example((np.ones(64, np.uint8), np.ones(32, np.uint8)))
    @example((np.ones(65, np.uint8), np.ones(32, np.uint8)))
    @settings(max_examples=200, deadline=None)
    def test_matches_big_int_dp(self, pair):
        # n runs from 1 past 64; for n <= 56 every count is below
        # C(56, 28) < 2^53, so int16 (n <= 17) and float64 counts must
        # both reproduce it exactly
        x, y = pair
        count = big_int_count(x, y)
        got = embedding_count(x, y)
        if count == 0 or x.size <= 56:
            assert got == (math.log2(count) if count else IMPOSSIBLE)
        else:
            assert got == pytest.approx(math.log2(count), abs=1e-12)

    def test_int16_regime_bound(self):
        # a band value is at most C(n, n // 2): int16 holds every count up
        # to the switch, and the largest count one bit later overflows it
        top, limit = likelihood._INT_MAX_N, np.iinfo(likelihood._INT_COUNTS).max
        assert math.comb(top, top // 2) <= limit < math.comb(top + 1, (top + 1) // 2)
        assert (likelihood._INT_COUNTS, top) == (np.int16, 17)

    @pytest.mark.parametrize("n", [16, 17, 18, 19])
    def test_mixed_m_batch_at_the_int16_switch(self, n):
        # all ones with m = n // 2 reaches the largest count C(n, n // 2),
        # past int16 from n = 18 on; random pairs, an impossible pair and
        # m = 0 share the batch
        rng = np.random.Generator(np.random.Philox(n))
        ones = np.ones(n, np.uint8)
        xs = [ones] * 4 + [rng.integers(0, 2, n, np.uint8) for _ in range(4)]
        ys = [ones[: n // 2], ones[: (n + 1) // 2], ones[: n - 2], ones[:0]]
        ys += [x[rng.random(n) >= d] for x, d in zip(xs[4:], (0.1, 0.3, 0.5, 0.7))]
        xs.append(np.tile(np.array([0, 1], np.uint8), n)[:n])
        ys.append(ones[: n // 2 + 1])  # more ones than x has
        y = np.zeros((len(ys), n), np.uint8)
        for r, yr in enumerate(ys):
            y[r, : yr.size] = yr
        top, scale = _band_counts(np.array(xs), y, [yr.size for yr in ys])
        assert top.dtype == np.float64 and not scale.any()
        assert top[0] == math.comb(n, n // 2) and top[-1] == 0.0
        assert top.tolist() == [big_int_count(x, yr) for x, yr in zip(xs, ys)]

    @pytest.mark.parametrize("n", [10, 2000])
    def test_counts_are_float64_either_side_of_the_switch(self, n):
        x = np.random.Generator(np.random.Philox(n)).integers(0, 2, n, np.uint8)
        top, scale = _band_counts(x[None, :], x[None, ::2], [x[::2].size])
        assert top.dtype == np.float64 and scale.dtype == np.int64

    def test_renormalizing_all_ones(self):
        # C(2000, 1000) ~ 2^1994 overflows float64 without rescaling
        got = embedding_count("1" * 2000, "1" * 1000)
        assert got == pytest.approx(log2_binomial(2000, 1000), rel=1e-12)

    def test_padding_never_matches(self):
        # N = 1, but 4000 bits unlike y could extend y by thousands of bits:
        # if the padding matched them, those counts (~2^3994) would drive
        # the rescaling and flush the answer to zero
        for b, c in ("01", "10"):
            for x in (c * 4000 + b * 100, b * 100 + c * 4000):
                assert embedding_count(x, b * 100) == 0.0

    def test_impossible_and_boundary_lengths(self):
        x = np.array([0, 1, 1, 0, 1, 0, 0, 1] * 10, dtype=np.uint8)
        assert embedding_count(x, np.ones(41, np.uint8)) == IMPOSSIBLE
        assert embedding_count(x, x[::-1]) == IMPOSSIBLE
        assert embedding_count(x, []) == 0.0
        assert embedding_count(x, x) == 0.0
        top, scale = _band_counts(
            np.tile(x, (2, 1)), np.zeros((2, 0), np.uint8), [0, 0]
        )
        assert top.tolist() == [1.0, 1.0] and scale.tolist() == [0, 0]

    @pytest.mark.parametrize("n", [959, 960, 961, 992, 993, 1100])
    def test_rescale_boundary_all_ones(self, n):
        # peak checks start after bit 960; C(1100, 550) ~ 2^1095 overflows
        # float64 unless a check fires after it
        m = n // 2
        got = kernel_log2(np.ones((1, n), np.uint8), np.ones((1, m), np.uint8), [m])
        assert got[0] == pytest.approx(log2_binomial(n, m), rel=1e-12)

    @pytest.mark.parametrize("n", [959, 960, 961, 992, 993, 1100])
    def test_rescale_boundary_batch_bit_identical_to_single_rows(self, n):
        rng = np.random.Generator(np.random.Philox(n))
        ones = np.ones(n, np.uint8)
        late = ones.copy()
        late[-8:] = 0  # read first: its counts grow later than all-ones
        noisy = rng.integers(0, 2, n).astype(np.uint8)
        xs = [ones, ones, late, noisy, np.zeros(n, np.uint8), ones]
        ys = [ones[: n // 2], ones[: n - 3], ones[: n // 2],
              noisy[rng.random(n) >= 0.05], ones[:5], ones[:0]]
        y = np.zeros((len(ys), n), np.uint8)
        for r, yr in enumerate(ys):
            y[r, : yr.size] = yr
        m = [yr.size for yr in ys]
        top, scale = _band_counts(np.array(xs), y, m)
        assert top[4] == 0.0 and top[5] == 1.0  # impossible, and m = 0
        for r in range(len(ys)):
            alone = _band_counts(xs[r][None, :], ys[r][None, :], [m[r]])
            assert (alone[0][0], alone[1][0]) == (top[r], scale[r])

    @staticmethod
    def _mixed_batch():
        """Pairs at one n = 1100 with mixed m; the all-ones rows rescale."""
        rng = np.random.Generator(np.random.Philox(11))
        n = 1100
        xs, ys = [], []
        for d in (0.0, 0.02, 0.05, 0.1, 0.3, 1.0):
            x = rng.integers(0, 2, n).astype(np.uint8)
            xs.append(x)
            ys.append(x[rng.random(n) >= d])
        for m in (550, 1000):  # C(1100, 550) ~ 2^1095
            xs.append(np.ones(n, np.uint8))
            ys.append(np.ones(m, np.uint8))
        for z in (4, 8):
            # z zeros at either end delay the growth: these rows rescale
            # at the same check as the all-ones rows, by other exponents
            x = np.ones(n, np.uint8)
            x[:z] = 0
            xs += [x, x[::-1].copy()]
            ys += [np.ones(550, np.uint8)] * 2
        xs.append(np.zeros(n, np.uint8))
        ys.append(rng.integers(0, 2, 900).astype(np.uint8))  # impossible
        y = np.zeros((len(ys), n), np.uint8)
        for r, yr in enumerate(ys):
            y[r, : yr.size] = yr
        return np.array(xs), y, np.array([yr.size for yr in ys]), ys

    def test_mixed_m_batch_matches_big_int_dp(self):
        xs, y, m, ys = self._mixed_batch()
        got = kernel_log2(xs, y, m)
        assert got[-1] == IMPOSSIBLE
        for x, yr, value in zip(xs, ys, got):
            count = big_int_count(x, yr)
            if count == 0:
                assert value == IMPOSSIBLE
            else:
                assert value == pytest.approx(math.log2(count), abs=1e-12)

    def test_batch_bit_identical_to_single_rows(self):
        xs, y, m, ys = self._mixed_batch()
        top, scale = _band_counts(xs, y, m)
        assert scale.max() > 0  # the batch exercises rescaling
        for r in range(m.size):
            alone = _band_counts(xs[r : r + 1], ys[r][None, :], [m[r]])
            assert (alone[0][0], alone[1][0]) == (top[r], scale[r])
            assert kernel_log2(xs[r : r + 1], ys[r][None, :], [m[r]])[0] == (
                embedding_count(xs[r], ys[r]))


def sampled_log2_counts(spec, n, d, rows, seed):
    """``log2 N(x, y)`` of ``rows`` replicas drawn as ``estimate_h_cond``
    draws them, with the run-structure count of each: the sum over input
    runs of ``log2 C(L_i, k_i)``, ``k_i`` the deleted bits of run i, and
    whether every input run keeps a bit."""
    rng = _rng_from(seed)
    xs = _sample_rows(spec, n, rows, rng)
    keep = _keep_mask((rows, n), d, rng)
    ms = keep.sum(axis=1)
    ys = np.zeros_like(xs)
    ys[np.arange(n) < ms[:, None]] = xs[keep]
    top, scale = _band_counts(xs, ys, ms)
    # runs of all rows in row-major order; every row starts a run
    starts = np.ones((rows, n), dtype=bool)
    np.not_equal(xs[:, 1:], xs[:, :-1], out=starts[:, 1:])
    run = np.cumsum(starts.ravel()) - 1
    L = np.bincount(run)
    k = np.bincount(run, weights=~keep.ravel()).astype(np.int64)
    lgamma = np.array([math.lgamma(l + 1) for l in range(n + 1)])
    log2_c = (lgamma[L] - lgamma[k] - lgamma[L - k]) / math.log(2.0)
    row = np.flatnonzero(starts.ravel()) // n
    runs_count = np.bincount(row, weights=log2_c, minlength=rows)
    kept = np.bincount(row, weights=k == L, minlength=rows) == 0
    return np.log2(top) + scale, scale, runs_count, kept


class TestRunStructureOracle:
    """Deleting k_i bits anywhere in input run i gives the same output, so
    ``N(x, y) >= prod C(L_i, k_i)``; when every run keeps a bit, y has the
    runs of x and each of its runs embeds only in its own, so the two are
    equal.  Checks sampled pairs at the lengths ``estimate_h_cond`` runs."""

    @pytest.mark.parametrize(
        "spec",
        [SourceSpec.dagger(0.05), SourceSpec.markov(0.56), SourceSpec.bernoulli_half()],
        ids=["dagger", "markov", "bernoulli"],
    )
    def test_sampled_pairs_at_production_n(self, spec):
        equal_rows = 0
        for n in (1100, 2000, 4000):
            for d in (0.005, 0.05):
                log_n, _, runs_count, kept = sampled_log2_counts(spec, n, d, 128, n)
                assert np.all(log_n >= runs_count * (1 - 1e-12))
                np.testing.assert_allclose(
                    log_n[kept], runs_count[kept], rtol=1e-12, atol=0.0
                )
                equal_rows += int(kept.sum())
        assert equal_rows > 0

    def test_long_runs_rescale_and_stay_exact(self):
        # runs of 16..32 bits all keep a bit at d = 0.2, and N ~ 2^2300-2^2430
        # passes the 2^960 rescale threshold several times per pair
        spec = SourceSpec.renewal(
            RunLengthDistribution.from_weights([0.0] * 15 + [1.0] * 17)
        )
        log_n, scale, runs_count, kept = sampled_log2_counts(spec, 4000, 0.2, 16, 3)
        assert kept.all() and scale.min() > 960
        np.testing.assert_allclose(log_n, runs_count, rtol=1e-12, atol=0.0)


class TestLogLikelihood:
    def test_single_kept_bit(self):
        ll = log_likelihood("01", "0", 0.5)
        assert ll.log_embedding_count == pytest.approx(0.0)
        assert 2.0**ll.log_prob == pytest.approx(0.25)

    def test_all_deleted(self):
        d = 0.3
        ll = log_likelihood("0110", "", d)
        assert ll.log_prob == pytest.approx(4 * math.log2(d))
        assert ll.log_embedding_count == 0.0

    def test_impossible_is_value(self):
        ll = log_likelihood("0000", "1", 0.5)
        assert ll.impossible
        assert ll.log_prob == IMPOSSIBLE

    def test_d_zero(self):
        assert log_likelihood("010", "010", 0.0).log_prob == 0.0
        assert log_likelihood("010", "01", 0.0).impossible

    def test_d_one(self):
        assert log_likelihood("010", "", 1.0).log_prob == 0.0
        assert log_likelihood("010", "0", 1.0).impossible

    @pytest.mark.parametrize(
        "x, y, d", [("0110", "011", 0.0), ("0110", "01", 1.0), ("010", "010", 0.0)]
    )
    def test_degenerate_d_keeps_the_embedding_count(self, x, y, d):
        # the channel decides log_prob only; N(x, y) is the same at every d
        ll = log_likelihood(x, y, d)
        assert ll.log_embedding_count == embedding_count(x, y) > IMPOSSIBLE
        assert ll.impossible == (len(y) != (len(x) if d == 0.0 else 0))

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            log_likelihood("01", "0", 1.2)

    def test_normalization_small_instances(self):
        rng = np.random.Generator(np.random.Philox(7))
        for n in range(4, 13):
            for d in (0.1, 0.5, 0.9):
                for _ in range(12):
                    x = rng.integers(0, 2, n).astype(np.uint8)
                    assert total_probability(x, d) == pytest.approx(
                        1.0, abs=1e-12
                    )

    def test_total_probability_refuses_13_bits(self):
        with pytest.raises(ValueError, match="n <= 12, got 13"):
            total_probability("0" * 13, 0.1)

    def test_total_probability_matches_scalar_sum(self):
        # cross-check the batched enumeration against per-y likelihoods
        x = "010011"
        d = 0.3
        total = 0.0
        for m in range(len(x) + 1):
            for ybits in itertools.product("01", repeat=m):
                ll = log_likelihood(x, "".join(ybits), d)
                if not ll.impossible:
                    total += 2.0**ll.log_prob
        assert total == pytest.approx(1.0, abs=1e-12)
        assert total_probability(x, d) == pytest.approx(total, abs=1e-12)


def loop_total_probability(x, ds) -> list[float]:
    """``total_probability`` of one input at each d of ``ds``, one kernel
    call per output length: the loop that ``_total_probabilities`` batches."""
    x = as_bits(x)
    n = x.size
    sums = []
    for m in range(n + 1):
        codes = np.arange(2**m, dtype=np.int64)
        ys = ((codes[:, None] >> (m - 1 - np.arange(m))) & 1).astype(np.uint8)
        xs = np.tile(x, (codes.size, 1))
        top, scale = _band_counts(xs, ys, np.full(codes.size, m))
        sums.append(float(np.ldexp(top, scale).sum()))
    return [
        math.fsum(s * (d ** (n - m) * (1.0 - d) ** m) for m, s in enumerate(sums))
        for d in ds
    ]


def whole_matrix_block_information(spec: SourceSpec, n: int, d: float):
    """``exact_block_information`` with the whole ``(orbits, 2^n)`` key
    matrix built at once: the loop that the chunked keys reproduce."""
    bits = _all_words(n)

    p_x = _input_probs(spec, bits)

    orbit = _group_codes(n)
    reps = np.flatnonzero(orbit.min(axis=0) == orbit[0])
    orbit = orbit[:, reps]
    weights = p_x[orbit] / (orbit == reps).sum(axis=0)
    p_orbit = weights.sum(axis=0)
    live = p_orbit > 0.0
    reps, weights, p_orbit = reps[live], weights[:, live], p_orbit[live]

    mask_bits = bits.astype(np.int64)
    weights_mask = d ** mask_bits.sum(axis=1) * (1.0 - d) ** (
        n - mask_bits.sum(axis=1)
    )

    keep = 1 - mask_bits
    suffix_keep = np.cumsum(keep[:, ::-1], axis=1)[:, ::-1] - keep
    place = (keep * (2**suffix_keep)).astype(np.float32)
    keys = (bits[reps].astype(np.float32) @ place.T).astype(np.int32)
    keys += (2 ** keep.sum(axis=1) - 1).astype(np.int32)
    n_keys = 2 ** (n + 1) - 1

    acc = np.zeros((4, n_keys))
    h_terms = []
    for i in range(reps.size):
        q = np.bincount(keys[i], weights=weights_mask, minlength=n_keys)
        acc += weights[:, i, None] * q
        qnz = q[q > 0.0]
        h_terms.append(p_orbit[i] * float(-np.sum(qnz * np.log2(qnz))))
    p_y = np.take_along_axis(acc, _key_maps(n), axis=1).sum(axis=0)
    nz = p_y > 0.0
    H_Y = float(-np.sum(p_y[nz] * np.log2(p_y[nz])))
    H_Y_given_X = math.fsum(h_terms)

    return BlockInformation(
        H_Y=H_Y,
        H_Y_given_X=H_Y_given_X,
        I_n_per_bit=(H_Y - H_Y_given_X) / n,
    )


class TestTotalProbabilities:
    def test_bit_identical_to_length_loop_n_le_10(self):
        for n in range(1, 11):
            xs = all_inputs(n)
            ds = (0.1, 0.5, 0.9)
            expected = np.array([loop_total_probability(x, ds) for x in xs])
            for i, d in enumerate(ds):
                assert _total_probabilities(xs, d).tolist() == expected[:, i].tolist()

    @pytest.mark.parametrize("n", [11, 12])
    def test_bit_identical_to_length_loop_sampled_n_11_12(self, n, monkeypatch):
        # 9 rows: short outputs take all 9 inputs in one call, longer ones
        # split them with a ragged last group (8 + 1, 5 + 4, 4 + 4 + 1,
        # 2 + 2 + 2 + 2 + 1, ...), and a group of one input is repeated
        # like any other
        xs = np.random.Generator(np.random.Philox(n)).integers(
            0, 2, (9, n), dtype=np.uint8
        )
        ds = (0.1, 0.5, 0.9)
        groups = {}  # output length -> inputs of each call, at the first d

        def recording(xt, ypad, k):
            m = n - int(k[0])
            inputs = ypad.shape[1] // 2**m
            assert xt.shape == (n, ypad.shape[1])
            groups.setdefault(m, []).append(inputs)
            return _band_dp(xt, ypad, k)

        monkeypatch.setattr(likelihood, "_band_dp", recording)
        got = [_total_probabilities(xs, d).tolist() for d in ds]
        monkeypatch.undo()
        calls = {m: g[: len(g) // len(ds)] for m, g in groups.items()}
        assert calls[0] == [9] and calls[n][-1] == 1  # one input at m = n
        assert any(len(set(c)) > 1 and c[-1] < c[0] for c in calls.values())
        expected = np.array([loop_total_probability(x, ds) for x in xs])
        for i in range(len(ds)):
            assert got[i] == expected[:, i].tolist()

    def test_split_batch_equals_one_row_calls(self, monkeypatch):
        # at n = 12 the long outputs fill a call with one input, so the
        # 100 rows split across many calls per length
        xs = np.random.Generator(np.random.Philox(5)).integers(
            0, 2, (100, 12), dtype=np.uint8
        )
        cells = []

        def counting(xt, ypad, k):
            # pairs x band width (K + 1), K = n - m
            cells.append(ypad.shape[1] * (ypad.shape[0] - xt.shape[0] + 1))
            return _band_dp(xt, ypad, k)

        monkeypatch.setattr(likelihood, "_band_dp", counting)
        got = _total_probabilities(xs, 0.3)
        monkeypatch.undo()
        assert len(cells) > 13  # more than one call per output length
        assert max(cells) <= likelihood._MAX_BAND_CELLS
        for x, total in zip(xs, got.tolist()):
            assert total == total_probability(x, 0.3)
            assert [total] == loop_total_probability(x, [0.3])


class TestBinomialLengthEntropy:
    def test_degenerate(self):
        assert binomial_length_entropy(10, 0.0) == 0.0
        assert binomial_length_entropy(10, 1.0) == 0.0
        assert binomial_length_entropy(0, 0.3) == 0.0

    @pytest.mark.parametrize("d", [0.0, 0.1, 1.0])
    def test_negative_n_raises(self, d):
        with pytest.raises(ValueError, match="n must be >= 0"):
            binomial_length_entropy(-5, d)

    def test_log2_binomial_out_of_range(self):
        for n, k in ((3, 4), (3, -1)):
            with pytest.raises(ValueError, match=rf"C\({n},{k}\) out of range"):
                log2_binomial(n, k)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 200, 2000, 4000])
    def test_log2_binomials_match_scalar_bit_for_bit(self, n):
        # the one table of log2 C(n, m) that the entropy of M and every
        # h_cond replica read
        got = _log2_binomials(n)
        assert got.shape == (n + 1,) and not got.flags.writeable
        want = [log2_binomial(n, m).hex() for m in range(n + 1)]
        assert [v.hex() for v in got.tolist()] == want

    def test_single_trial(self):
        assert binomial_length_entropy(1, 0.2) == pytest.approx(
            binary_entropy(0.2), abs=1e-12
        )

    def test_against_direct_sum(self):
        n, d = 30, 0.35
        probs = [
            math.comb(n, m) * (1 - d) ** m * d ** (n - m) for m in range(n + 1)
        ]
        expected = -sum(p * math.log2(p) for p in probs if p > 0)
        assert binomial_length_entropy(n, d) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 10, 57, 200, 2000, 4000])
    @pytest.mark.parametrize("d", [0.001, 0.02, 0.05, 0.1, 0.5, 0.9])
    def test_matches_per_term_loop(self, n, d):
        # the array form takes 2^lp by exp2, not by pow: each kept term may
        # move by an ulp, and the exactly rounded sum by a few
        want = per_term_binomial_length_entropy(n, d)
        assert binomial_length_entropy(n, d) == pytest.approx(want, rel=1e-15)


def per_term_binomial_length_entropy(n: int, d: float) -> float:
    """``binomial_length_entropy`` one length at a time (the reference)."""
    terms = []
    for m in range(n + 1):
        lp = log2_binomial(n, m) + m * math.log2(1.0 - d) + (n - m) * math.log2(d)
        p = 2.0**lp
        if p > 0.0:
            terms.append(-p * lp)
    return math.fsum(terms)


def all_inputs(n: int) -> np.ndarray:
    """Every bit string of length n, MSB first, one per row."""
    return ((np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1).astype(np.uint8)


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_all_words_are_cached_and_read_only(n):
    # one matrix per n for the oracles, the normalization check and the
    # DP oracle's exhaustive pairs
    words = _all_words(n)
    assert words is _all_words(n)
    assert not words.flags.writeable and words.dtype == np.uint8
    np.testing.assert_array_equal(words, all_inputs(n))


def loop_input_probs(spec: SourceSpec, bits_matrix: np.ndarray) -> np.ndarray:
    """Palm-start renewal law of every row, one run at a time."""
    dist = spec.dist
    tail = np.concatenate((np.cumsum(dist.probs[::-1])[::-1], [0.0]))
    probs = np.empty(bits_matrix.shape[0])
    for r, row in enumerate(bits_matrix):
        lens = run_lengths(row)
        p = 0.5
        for l in lens[:-1].tolist():
            p *= dist.prob(int(l))
        last = int(lens[-1])
        p *= tail[last - 1] if last <= dist.L_max else 0.0
        probs[r] = p
    return probs


def two_pass_block_information(spec: SourceSpec, n: int, d: float):
    """The enumeration oracle as a (mask, x) key matrix read twice: p(y)
    mask by mask, then H(Y|X) input by input."""
    size = 2**n
    bits = all_inputs(n)
    p_x = _input_probs(spec, bits)
    mask_bits = bits.astype(np.int64)
    weights_mask = d ** mask_bits.sum(axis=1) * (1.0 - d) ** (
        n - mask_bits.sum(axis=1)
    )
    keep = 1 - mask_bits
    suffix_keep = np.cumsum(keep[:, ::-1], axis=1)[:, ::-1] - keep
    place = keep * (2**suffix_keep)
    y_codes = np.rint(
        place.astype(np.float64) @ bits.T.astype(np.float64)
    ).astype(np.int32)
    keys = y_codes + ((2 ** keep.sum(axis=1)) - 1)[:, None]
    n_keys = 2 ** (n + 1) - 1
    p_y = np.zeros(n_keys)
    for mk in range(size):
        if weights_mask[mk] != 0.0:
            p_y += weights_mask[mk] * np.bincount(
                keys[mk], weights=p_x, minlength=n_keys
            )
    nz = p_y > 0.0
    H_Y = float(-np.sum(p_y[nz] * np.log2(p_y[nz])))
    h_terms = []
    for xi in range(size):
        if p_x[xi] != 0.0:
            q = np.bincount(keys[:, xi], weights=weights_mask, minlength=n_keys)
            qnz = q[q > 0.0]
            h_terms.append(p_x[xi] * float(-np.sum(qnz * np.log2(qnz))))
    H_Y_given_X = math.fsum(h_terms)
    return H_Y, H_Y_given_X, (H_Y - H_Y_given_X) / n


def output_key_counts(n: int) -> np.ndarray:
    """Masks mapping each n-bit input (row, MSB first) to each output key
    ``2^m - 1 + code(y)``, one deleted-position pattern at a time."""
    bits = all_inputs(n).astype(np.int64)
    counts = np.zeros((2**n, 2 ** (n + 1) - 1), dtype=np.int64)
    for mask in itertools.product((False, True), repeat=n):
        kept = bits[:, ~np.array(mask, dtype=bool)]
        m = kept.shape[1]
        keys = 2**m - 1 + kept @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
        counts[np.arange(2**n), keys] += 1
    return counts


def word_code(bits: np.ndarray) -> np.ndarray:
    """MSB-first code of each row of a bit matrix."""
    n = bits.shape[1]
    return bits.astype(np.int64) @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))


#: (input law, block lengths, deletion probabilities) checked against the
#: two-pass enumeration; the renewal laws are not reversal-symmetric, and the
#: last case is the benchmark's n = 12 call and its neighbour.
TWO_PASS_CASES = [
    pytest.param(SourceSpec.bernoulli_half(), range(1, 11), (0.0, 0.05, 0.5, 1.0),
                 id="bernoulli_half"),
    pytest.param(SourceSpec.markov(0.7), range(1, 11), (0.0, 0.05, 0.5, 1.0),
                 id="markov"),
    pytest.param(SourceSpec.dagger(0.05), range(1, 11), (0.0, 0.05, 0.5, 1.0),
                 id="renewal"),
    pytest.param(SourceSpec.renewal(geometric_half(16)), range(1, 11),
                 (0.0, 0.05, 0.5, 1.0), id="geometric"),
    pytest.param(SourceSpec.renewal(point_mass(3)), range(1, 11),
                 (0.0, 0.05, 0.5, 1.0), id="point3"),
    pytest.param(SourceSpec.dagger(0.05), (11, 12), (0.05,), id="dagger-n11-12"),
]


#: The five laws of ``TWO_PASS_CASES`` on a finer d grid, and the
#: benchmark's n = 12 call and its neighbour, checked bit for bit against
#: the whole-matrix loop.
WHOLE_MATRIX_CASES = [
    pytest.param(case.values[0], range(1, 11), (0.0, 0.05, 0.3, 0.5, 1.0),
                 id=case.id)
    for case in TWO_PASS_CASES[:5]
] + [TWO_PASS_CASES[5]]


#: ``exact_block_information(SourceSpec.dagger(0.05), 12, 0.05)``, the
#: tiny-block benchmark's call.
DAGGER_N12_PIN = (12.838573548814082, 2.714428977151501, 0.8436787143052151)


class TestExactBlockInformation:
    @pytest.mark.parametrize("spec, ns, ds", TWO_PASS_CASES)
    def test_matches_two_pass_enumeration(self, spec, ns, ds):
        for n in ns:
            for d in ds:
                got = exact_block_information(spec, n, d)
                want = two_pass_block_information(spec, n, d)
                for g, w in zip(got, want):
                    assert g == pytest.approx(w, abs=1e-12), (n, d)

    # chunks of the default size, of one representative, and of seven
    # (the 1056 orbits at n = 12 leave a ragged last chunk of six)
    @pytest.mark.parametrize(
        "chunk_reps", [None, 1, 7], ids=["chunk-default", "chunk-1", "chunk-7"]
    )
    @pytest.mark.parametrize("spec, ns, ds", WHOLE_MATRIX_CASES)
    def test_bit_identical_to_whole_matrix_loop(
        self, spec, ns, ds, chunk_reps, monkeypatch, request
    ):
        if chunk_reps is not None:  # build and drop tables of the patched size
            likelihood._orbit_outputs.cache_clear()
            request.addfinalizer(likelihood._orbit_outputs.cache_clear)
        for n in ns:
            if chunk_reps is not None:
                monkeypatch.setattr(
                    likelihood, "_KEY_CHUNK_CELLS", chunk_reps * 2**n
                )
            for d in ds:
                got = exact_block_information(spec, n, d)
                assert got == whole_matrix_block_information(spec, n, d), (n, d)

    def test_memory_budget(self):
        # the whole key matrix at n = 12 is a 1056 x 4096 float32 product
        # plus its int32 copy (~36 MB peak); the table is built and read one
        # chunk of representatives at a time (3.7 MB cold, with the 1.15 MB
        # table it keeps, and 1.4 MB warm)
        likelihood._orbit_outputs.cache_clear()
        for state in ("cold", "warm"):
            tracemalloc.start()
            try:
                exact_block_information(SourceSpec.dagger(0.05), 12, 0.05)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 10**6, state

    def test_cold_and_warm_calls_agree(self):
        likelihood._orbit_outputs.cache_clear()
        spec = SourceSpec.dagger(0.05)
        cold = exact_block_information(spec, 12, 0.05)
        warm = exact_block_information(spec, 12, 0.05)
        assert cold == warm == DAGGER_N12_PIN
        assert json.dumps(cold._asdict()) == json.dumps(warm._asdict())

    def test_count_table_matches_brute_force(self):
        for n in range(1, 9):
            table = likelihood._orbit_outputs(n)
            brute = output_key_counts(n)[table.orbit[0]]
            length = np.repeat(np.arange(n + 1), 2 ** np.arange(n + 1))
            binomials = [math.comb(n, m) for m in range(n + 1)]
            assert table.bounds[0] == 0 and table.bounds[-1] == table.keys.size
            for i, row in enumerate(brute):
                lo, hi = table.bounds[i], table.bounds[i + 1]
                keys, counts = table.keys[lo:hi], table.counts[lo:hi]
                np.testing.assert_array_equal(keys, np.flatnonzero(row))
                np.testing.assert_array_equal(counts, row[row > 0])
                assert (np.diff(keys) > 0).all()
                per_length = np.bincount(length[keys], counts, minlength=n + 1)
                assert per_length.tolist() == binomials, (n, i)

    def test_count_table_is_read_only(self):
        table = likelihood._orbit_outputs(5)
        for array in table:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_d_one_gives_positive_zeros(self, n):
        # every output is empty: no entropy and no information, each +0.0
        info = exact_block_information(SourceSpec.bernoulli_half(), n, 1.0)
        assert info == (0.0, 0.0, 0.0)
        assert [math.copysign(1.0, v) for v in info] == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize(
        "spec, n, d, want",
        [
            (SourceSpec.dagger(0.05), 12, 0.05, DAGGER_N12_PIN),
            # criterion 5 and ``delchan verify rates``
            (SourceSpec.bernoulli_half(), 10, 0.1,
             (10.843630606489219, 3.618864879855087, 0.7224765726634133)),
        ],
        ids=["dagger-n12", "bernoulli-n10"],
    )
    def test_golden_pins(self, spec, n, d, want):
        assert exact_block_information(spec, n, d) == want

    @pytest.mark.parametrize("n", [12.0, "12"])
    def test_non_integer_n_raises_type_error(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            exact_block_information(SourceSpec.bernoulli_half(), n, 0.1)

    def test_numpy_integer_n(self):
        info = exact_block_information(SourceSpec.dagger(0.05), np.int64(12), 0.05)
        assert info == DAGGER_N12_PIN

    @pytest.mark.parametrize(
        "spec",
        [
            SourceSpec.dagger(0.05),
            SourceSpec.renewal(geometric_half(16)),
            SourceSpec.renewal(point_mass(3)),  # final runs beyond L_max
        ],
        ids=["dagger", "geometric", "point3"],
    )
    def test_renewal_input_law_matches_run_loop(self, spec):
        for n in range(1, 11):
            bits = all_inputs(n)
            got = _input_probs(spec, bits)
            np.testing.assert_array_equal(got, loop_input_probs(spec, bits))

    def test_renewal_laws_are_not_reversal_symmetric(self):
        # the orbit weights p(g·c) matter: a Palm start censors only the
        # last run, so reversing an input changes its probability
        bits = all_inputs(7)
        for spec in (SourceSpec.dagger(0.05), SourceSpec.renewal(geometric_half(16)),
                     SourceSpec.renewal(point_mass(3))):
            p = _input_probs(spec, bits)
            assert not np.array_equal(p, p[word_code(bits[:, ::-1])])

    def test_output_law_commutes_with_reversal_and_complement(self):
        # for every input x: the outputs of g·x are the outputs of x with g
        # applied, so count(g·x -> y) = count(x -> g·y) for each g
        for n in range(1, 9):
            counts = output_key_counts(n)
            bits = all_inputs(n)
            images = [bits, bits[:, ::-1], 1 - bits, 1 - bits[:, ::-1]]
            group_codes, key_maps = _group_codes(n), _key_maps(n)
            for g, image in enumerate(images):
                gx = word_code(image)
                np.testing.assert_array_equal(group_codes[g], gx)
                np.testing.assert_array_equal(counts[gx], counts[:, key_maps[g]])

    def test_one_bit_channel(self):
        for d in (0.1, 0.25, 0.5, 0.9):
            info = exact_block_information(SourceSpec.bernoulli_half(), 1, d)
            assert info.I_n_per_bit == pytest.approx(1.0 - d, abs=1e-12)
            assert info.H_Y == pytest.approx(
                binary_entropy(d) + (1.0 - d), abs=1e-12
            )
            assert info.H_Y_given_X == pytest.approx(binary_entropy(d), abs=1e-12)

    def test_d_zero_perfect_channel(self):
        n = 6
        info = exact_block_information(SourceSpec.bernoulli_half(), n, 0.0)
        assert info.I_n_per_bit == pytest.approx(1.0, abs=1e-12)
        # markov source: H(X^n)/n = (1 + (n-1) h(p_same))/n
        p_same = 0.7
        info_m = exact_block_information(SourceSpec.markov(p_same), n, 0.0)
        expected = (1.0 + (n - 1) * binary_entropy(p_same)) / n
        assert info_m.I_n_per_bit == pytest.approx(expected, abs=1e-12)

    def test_refuses_large_n(self):
        with pytest.raises(ValueError, match="n <= 12"):
            exact_block_information(SourceSpec.bernoulli_half(), 13, 0.1)

    def test_refuses_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            exact_block_information(SourceSpec.bernoulli_half(), 0, 0.1)

    def test_point_mass_source_enumeration(self):
        # period-3 renewal source at n=6: only strings with run structure
        # 3+3 (or censored tails) have positive probability
        spec = SourceSpec.renewal(point_mass(3))
        info = exact_block_information(spec, 6, 0.2)
        assert info.H_Y >= info.H_Y_given_X >= 0.0
        # H(X^6) = 1 bit (two equiprobable strings); information cannot
        # exceed the input entropy
        assert 0.0 < info.I_n_per_bit <= 1.0 / 6.0 + 1e-12

    def test_regression_pin_n8_bernoulli(self):
        # frozen output of this exhaustive oracle (n=8, d=0.1); the
        # enumeration is deterministic, so any drift indicates a real
        # change in the DP or the weighting
        info = exact_block_information(SourceSpec.bernoulli_half(), 8, 0.1)
        assert info.I_n_per_bit == pytest.approx(0.7415954696953243, abs=1e-12)

    def test_information_nonnegative_and_bounded(self):
        for d in (0.05, 0.3):
            info = exact_block_information(SourceSpec.markov(0.6), 5, d)
            assert 0.0 <= info.I_n_per_bit <= 1.0
