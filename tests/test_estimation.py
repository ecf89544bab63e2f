"""Tests for the Monte Carlo rate estimators.

The load-bearing checks compare the estimators against the exact
small-block oracle: the replica statistic has expectation
``H(Y|X, M)/n`` exactly, and ``H(M)`` is a Binomial entropy independent
of the input law, so ``h_cond``, which adds the exact ``H(M)/n``, has
``H(Y|X)/n`` from the exhaustive enumeration as an exact target for any
source kind.
"""

import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from delchan import estimation, likelihood
from delchan.analytics import markov_rate_bound, optimal_markov_param
from delchan.channel import _keep_mask, _output_run_lengths, _OutputRuns
from delchan.constants import _entropy_bits
from delchan.estimation import (
    _BOOTSTRAP_RESAMPLES,
    _BURN_IN_RUNS,
    _CHUNK,
    RateEstimate,
    _h_out_from_stream,
    _run_table,
    estimate_h_cond,
    estimate_rate,
)
from delchan.likelihood import (
    _band_counts,
    binomial_length_entropy,
    embedding_count,
    exact_block_information,
    log2_binomial,
)
from delchan.runstats import _L_CAP
from delchan.channel import run_lengths, transmit
from delchan.cli import main
from delchan.sources import (
    DEFAULT_SEED,
    RunLengthDistribution,
    SourceSpec,
    _rng_from,
    _sample_rows,
    geometric_half,
    point_mass,
    sample_sequence,
)
from test_sources import whole_array_sample_rows

#: ``estimate_rate(...).to_json()`` for the arguments of acceptance
#: criterion 8 (the README reference run), recorded when ``h_cond`` moved
#: to one RNG stream per call.
CRITERION_8_JSON = (
    '{"rate": 0.7295846097021574, "h_out": 0.9478684416644345, '
    '"h_cond": 0.21828383196227708, "std_err": 0.0006891053399669285, '
    '"n": 2000, "samples": 500, "d": 0.05, "seed": 901342, '
    '"mode": "exact-renewal"}'
)

#: ``estimate_rate(spec, 0.1, n=200, samples=20, out_bits=10**6,
#: seed=11).to_json()`` at the shape of a benchmark stream op, for a
#: renewal input and a Markov input, recorded when ``h_cond`` moved to one
#: RNG stream per call (``h_out`` as before).
STREAM_OP_JSON = {
    "renewal": (
        '{"rate": 0.5697967610922516, "h_out": 0.8931749427529312, '
        '"h_cond": 0.32337818166067955, "std_err": 0.01047591770577176, '
        '"n": 200, "samples": 20, "d": 0.1, "seed": 11, '
        '"mode": "exact-renewal"}'
    ),
    "markov": (
        '{"rate": 0.5584582220565237, "h_out": 0.89225834604262, '
        '"h_cond": 0.33380012398609626, "std_err": 0.008484973812428657, '
        '"n": 200, "samples": 20, "d": 0.1, "seed": 11, '
        '"mode": "upper-bound"}'
    ),
}


def binary_entropy(p: float) -> float:
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def exact_h_cond_per_bit(spec: SourceSpec, n: int, d: float) -> float:
    """Exact ``H(Y|X)/n`` from the enumeration oracle."""
    return exact_block_information(spec, n, d).H_Y_given_X / n


def one_stream_draws(spec, d, n, samples, seed):
    """The inputs and keep masks ``estimate_h_cond`` draws, one batch per DP
    call (whole 64-row chunks up to 2^15 input bits), all from one stream."""
    rng = _rng_from(seed)
    per_call = _CHUNK * max(1, (1 << 15) // (_CHUNK * n))
    for start in range(0, samples, per_call):
        xs = _sample_rows(spec, n, min(per_call, samples - start), rng)
        yield xs, _keep_mask(xs.shape, d, rng)


def mean_and_std_err(values, samples, h_m):
    """The mean plus ``h_m``, and its standard error, summed in order."""
    mean = math.fsum(values) / samples
    var = math.fsum((v - mean) ** 2 for v in values)
    return mean + h_m, math.sqrt(var / (samples * (samples - 1)))


def replica_loop_h_cond(spec, d, n, samples, seed):
    """``estimate_h_cond`` with its draws evaluated one replica at a time by
    ``embedding_count``; also returns the output lengths."""
    values, ms = [], []
    for xs, keeps in one_stream_draws(spec, d, n, samples, seed):
        for x, keep in zip(xs, keeps):
            y = x[keep]
            values.append((log2_binomial(n, y.size) - embedding_count(x, y)) / n)
            ms.append(y.size)
    h_m = binomial_length_entropy(n, d) / n
    return mean_and_std_err(values, samples, h_m), ms


def per_chunk_h_cond(spec, d, n, samples, seed):
    """``estimate_h_cond`` with one ``_band_counts`` call per 64-replica
    chunk of its draws: the reference for calls that stack whole chunks."""
    ms_parts, log_n_parts = [], []
    for xs, keep in one_stream_draws(spec, d, n, samples, seed):
        for lo in range(0, len(xs), _CHUNK):
            x, k = xs[lo : lo + _CHUNK], keep[lo : lo + _CHUNK]
            ms = k.sum(axis=1)
            ys = np.zeros_like(x)
            ys[np.arange(n) < ms[:, None]] = x[k]
            top, scale = _band_counts(x, ys, ms)
            ms_parts.append(ms)
            log_n_parts.append(np.log2(top) + scale)
    ms_all, log_n_all = np.concatenate(ms_parts), np.concatenate(log_n_parts)
    drawn, which = np.unique(ms_all, return_inverse=True)
    log2_binom = np.array([log2_binomial(n, m) for m in drawn.tolist()])
    values = (log2_binom[which] - log_n_all) / n
    h_m = binomial_length_entropy(n, d) / n
    return mean_and_std_err(values.tolist(), samples, h_m)


class TestBatchedKernelCalls:
    """Whole chunks share one kernel call; every result stays bit-identical."""

    @pytest.mark.parametrize(
        "spec",
        [SourceSpec.bernoulli_half(), SourceSpec.markov(0.56), SourceSpec.dagger(0.1)],
        ids=["bernoulli_half", "markov", "renewal"],
    )
    @pytest.mark.parametrize("d", [0.05, 0.5])
    @pytest.mark.parametrize(
        "n,samples",
        [(1, 130), (2, 130), (10, 130), (10, 3300), (12, 3300), (255, 130),
         (256, 130), (257, 130), (511, 130), (512, 130), (2000, 70)],
    )
    def test_matches_per_chunk_calls(self, spec, d, n, samples):
        got = estimate_h_cond(spec, d, n, samples, 1000 + n)
        want = per_chunk_h_cond(spec, d, n, samples, 1000 + n)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize(
        "n,samples,rows",
        [
            (10, 20_000, [3264] * 6 + [416]),
            (12, 3300, [2688, 612]),
            (256, 130, [128, 2]),
            (257, 130, [64, 64, 2]),
            (2000, 130, [64, 64, 2]),
        ],
    )
    def test_calls_hold_whole_chunks_up_to_2_15_bits(
        self, monkeypatch, n, samples, rows
    ):
        seen, counts = [], estimation._band_counts

        def counting_counts(xs, ys, ms):
            seen.append(len(xs))
            return counts(xs, ys, ms)

        monkeypatch.setattr(estimation, "_band_counts", counting_counts)
        estimate_h_cond(SourceSpec.bernoulli_half(), 0.1, n, samples, 3)
        assert seen == rows
        assert all(r % _CHUNK == 0 for r in seen[:-1])
        assert all(r * n <= 1 << 15 or r <= _CHUNK for r in seen)


class TestEstimateHCond:
    def test_degenerate_d_is_analytic_zero(self):
        for d in (0.0, 1.0):
            assert estimate_h_cond(SourceSpec.bernoulli_half(), d, 20, 5, 1) == (
                0.0,
                0.0,
            )

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            (dict(d=0.1, n=20, samples=1), "samples must be >= 2"),
            (dict(d=0.1, n=0, samples=10), "n must be"),
            (dict(d=-0.1, n=20, samples=10), "deletion probability"),
            (dict(d=1.5, n=20, samples=10), "deletion probability"),
        ],
    )
    def test_validation(self, kwargs, msg):
        with pytest.raises(ValueError, match=msg):
            estimate_h_cond(
                SourceSpec.bernoulli_half(),
                kwargs["d"],
                kwargs["n"],
                kwargs["samples"],
                7,
            )

    def test_matches_exact_oracle_bernoulli(self):
        target = exact_h_cond_per_bit(SourceSpec.bernoulli_half(), 8, 0.1)
        mean, se = estimate_h_cond(SourceSpec.bernoulli_half(), 0.1, 8, 20000, 123)
        assert se > 0.0
        assert abs(mean - target) <= 4.0 * se

    def test_matches_exact_oracle_markov(self):
        spec = SourceSpec.markov(0.7)
        target = exact_h_cond_per_bit(spec, 8, 0.2)
        mean, se = estimate_h_cond(spec, 0.2, 8, 20000, 321)
        assert abs(mean - target) <= 4.0 * se

    def test_matches_exact_oracle_renewal(self):
        spec = SourceSpec.renewal(geometric_half(16))
        target = exact_h_cond_per_bit(spec, 8, 0.15)
        mean, se = estimate_h_cond(spec, 0.15, 8, 20000, 777)
        assert abs(mean - target) <= 4.0 * se

    @pytest.mark.parametrize(
        "spec,n,d,samples",
        [
            (SourceSpec.bernoulli_half(), 10, 0.1, 2000),
            (SourceSpec.dagger(0.3), 12, 0.3, 2000),
            (SourceSpec.markov(0.7), 10, 0.2, 2000),
            # 2688 rows per DP call: three calls
            (SourceSpec.dagger(0.3), 12, 0.3, 6000),
        ],
        ids=["bernoulli", "dagger", "markov", "dagger-3-calls"],
    )
    def test_std_err_has_the_right_size(self, spec, n, d, samples):
        # z = (estimate - exact) / std_err over K seeds: its mean and sd
        # have standard errors about 1/sqrt(K) and 1/sqrt(2K) when the
        # std_err is right; too small or too large a std_err moves sd z
        target = exact_h_cond_per_bit(spec, n, d)
        z = []
        for seed in range(100):
            mean, se = estimate_h_cond(spec, d, n, samples, seed)
            z.append((mean - target) / se)
        K = len(z)
        assert abs(np.mean(z)) <= 4.0 / math.sqrt(K)
        assert abs(np.std(z, ddof=1) - 1.0) <= 4.0 / math.sqrt(2 * K)

    @pytest.mark.parametrize(
        "spec,d,n,want",
        [
            (SourceSpec.bernoulli_half(), 0.5, 10,
             ("0x1.3788486223465p-1", "0x1.7d09a55a27333p-9")),
            (SourceSpec.bernoulli_half(), 0.5, 17,
             ("0x1.1d905c6510668p-1", "0x1.32c8cccbbb593p-9")),
            (SourceSpec.bernoulli_half(), 0.5, 18,
             ("0x1.1be27235b30dap-1", "0x1.29666f0185ad2p-9")),
            (SourceSpec.dagger(0.1), 0.1, 10,
             ("0x1.63cdb53aee848p-2", "0x1.ca1c60b9dc639p-9")),
            (SourceSpec.dagger(0.1), 0.1, 17,
             ("0x1.5ef33f0fc7ad8p-2", "0x1.93ac3caaefc73p-9")),
            (SourceSpec.dagger(0.1), 0.1, 18,
             ("0x1.5aafa33c4a4bep-2", "0x1.84b196ad5512ap-9")),
        ],
        ids=lambda v: getattr(v, "kind", None),
    )
    def test_pinned_either_side_of_the_int16_switch(
        self, monkeypatch, spec, d, n, want
    ):
        # the DP counts in int16 up to n = 17 and in float64 from n = 18;
        # each pin holds as shipped and with float64 counts at every n
        got = estimate_h_cond(spec, d, n, 2000, 7)
        assert tuple(v.hex() for v in got) == want
        monkeypatch.setattr(likelihood, "_INT_MAX_N", 0)
        got = estimate_h_cond(spec, d, n, 2000, 7)
        assert tuple(v.hex() for v in got) == want

    def test_long_block_bounded_by_binary_entropy(self):
        # the conditional entropy per bit never exceeds h(d)
        mean, _ = estimate_h_cond(SourceSpec.bernoulli_half(), 0.1, 2000, 50, 5)
        assert 0.0 <= mean <= binary_entropy(0.1)

    @pytest.mark.parametrize(
        "spec,d,n",
        [
            (SourceSpec.bernoulli_half(), 0.7, 4),  # many rows with m = 0
            (SourceSpec.markov(0.6), 0.2, 30),
            (SourceSpec.dagger(0.1), 0.1, 200),
        ],
        ids=["empty-outputs", "markov", "dagger"],
    )
    def test_batched_chunks_match_replica_loop(self, spec, d, n):
        want, ms = replica_loop_h_cond(spec, d, n, 130, 99)
        assert estimate_h_cond(spec, d, n, 130, 99) == want
        if n == 4:
            assert 0 < ms[:_CHUNK].count(0) < _CHUNK

    def test_seed_reproducible_and_sensitive(self):
        args = (SourceSpec.bernoulli_half(), 0.2, 100, 20)
        first = estimate_h_cond(*args, 42)
        assert first == estimate_h_cond(*args, 42)
        assert first != estimate_h_cond(*args, 43)

    def test_seed_sequence_accepted(self):
        args = (SourceSpec.bernoulli_half(), 0.2, 100, 20)
        assert estimate_h_cond(*args, 42) == estimate_h_cond(
            *args, np.random.SeedSequence(42)
        )

    def test_same_seed_sequence_twice_gives_the_same_result(self):
        # the seed sequence is read, not spawned from
        args = (SourceSpec.bernoulli_half(), 0.1, 10, 5000)
        root = np.random.SeedSequence(42)
        first = estimate_h_cond(*args, root)
        assert estimate_h_cond(*args, root) == first == estimate_h_cond(*args, 42)
        assert root.n_children_spawned == 0

    def test_one_generator_per_call(self, monkeypatch):
        built, rng_from = [], estimation._rng_from

        def counting_rng_from(seed):
            built.append(seed)
            return rng_from(seed)

        monkeypatch.setattr(estimation, "_rng_from", counting_rng_from)
        estimate_h_cond(SourceSpec.bernoulli_half(), 0.1, 10, 20_000, 3)
        assert len(built) == 1

    def test_n_doubling_at_fixed_bit_budget(self):
        # fixed total bits: halving samples while doubling n moves the
        # estimate by less than twice the combined standard error (the
        # blocks must be long enough that O(1/n) edge effects sit well
        # inside the noise, hence n = 1000 rather than a toy size)
        spec = SourceSpec.bernoulli_half()
        m1, s1 = estimate_h_cond(spec, 0.1, 1000, 100, 42)
        m2, s2 = estimate_h_cond(spec, 0.1, 2000, 50, 42)
        assert abs(m1 - m2) <= 2.0 * math.hypot(s1, s2)


#: Runs of 1 and of 300 bits, equally likely: at d = 0.01 about half the
#: output runs are longer than a byte, among them the first runs of blocks.
ONES_AND_300 = RunLengthDistribution.from_weights([1.0] + [0.0] * 298 + [1.0])


def whole_array_interior_runs(spec, d, out_bits, sample_seed):
    """The output run lengths of the whole-array stream, burn-in cut."""
    n_in = int(out_bits / (1.0 - d) * 1.02) + 1024
    rng = _rng_from(sample_seed)
    x = whole_array_sample_rows(spec, n_in, 1, rng)[0]
    lengths = run_lengths(transmit(x, d, rng).y)
    burn = _BURN_IN_RUNS if lengths.size >= 2 * _BURN_IN_RUNS + 16 else 1
    return lengths[burn:-burn]


def whole_array_h_out(spec, d, out_bits, seed, replicate_counts=None):
    """``_h_out_from_stream`` as it was before the stream ran in blocks:
    the whole input, mask and output as arrays, one ``run_lengths`` and
    one capped copy of the run lengths, and each bootstrap replicate
    summed alone.  Each replicate's length counts are appended to the
    list ``replicate_counts`` when one is given."""

    def h_over_mu(counts, total_runs, length_sum):
        return _entropy_bits(counts / total_runs) / (length_sum / total_runs)

    sample_seed, boot_seed = np.random.SeedSequence(seed).spawn(2)
    interior = whole_array_interior_runs(spec, d, out_bits, sample_seed)
    n_runs = interior.size
    capped = np.minimum(interior, _L_CAP + 1)
    counts = np.bincount(capped, minlength=_L_CAP + 2).astype(np.float64)
    h_out = (1.0 - d) * h_over_mu(
        counts[1 : _L_CAP + 1], float(n_runs), float(interior.sum())
    )
    n_blocks = max(8, min(64, n_runs // 200))
    edges = np.linspace(0, n_runs, n_blocks + 1).astype(np.int64)
    blocks = [
        (capped[lo:hi], interior[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])
    ]
    block_counts = np.array(
        [np.bincount(c, minlength=_L_CAP + 2)[1 : _L_CAP + 1] for c, _ in blocks],
        dtype=np.float64,
    )
    block_runs = np.array([c.size for c, _ in blocks], dtype=np.float64)
    block_sums = np.array([l.sum() for _, l in blocks], dtype=np.float64)
    boot_rng = _rng_from(boot_seed)
    replicas = []
    for _ in range(_BOOTSTRAP_RESAMPLES):
        picks = boot_rng.integers(0, n_blocks, n_blocks)
        counts = block_counts[picks].sum(axis=0)
        if replicate_counts is not None:
            replicate_counts.append(counts)
        replicas.append((1.0 - d) * h_over_mu(
            counts, float(block_runs[picks].sum()), float(block_sums[picks].sum()),
        ))
    return h_out, float(np.std(replicas, ddof=1))


class TestBlockedStream:
    """The blocked output stream gives the whole-array stream's numbers."""

    @pytest.mark.parametrize(
        "spec",
        [
            SourceSpec.bernoulli_half(),
            SourceSpec.markov(0.56),
            SourceSpec.dagger(0.1),
            SourceSpec.renewal(point_mass(3)),
        ],
        ids=lambda s: s.kind,
    )
    @pytest.mark.parametrize("d", [0.0, 0.05, 0.1, 0.5])
    def test_matches_whole_array_stream(self, spec, d):
        replicate_counts = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for out_bits in (2000, 65_536, 300_000):
                got = _h_out_from_stream(spec, d, out_bits, 5)
                assert got == whole_array_h_out(spec, d, out_bits, 5, replicate_counts)
        # some replicate has an interior zero: its positive length counts
        # are not a prefix of 1.._L_CAP, so the entropy skips a zero term
        # between positive ones
        positive = np.array(replicate_counts) > 0
        prefix = np.arange(_L_CAP) < positive.sum(axis=1)[:, None]
        assert (positive != prefix).any()

    def test_fewer_interior_runs_than_blocks(self):
        # runs of 300 leave a 1-bit budget a few interior runs, all over
        # the cap: each bootstrap block must still hold a run
        spec = SourceSpec.renewal(point_mass(300))
        for seed in range(4):
            with pytest.warns(UserWarning, match=f"longer than {_L_CAP}"):
                got = _h_out_from_stream(spec, 0.01, 1, seed)
            assert got == (0.0, 0.0)

    def test_criterion_8_json_unchanged(self):
        r = estimate_rate(
            SourceSpec.dagger(0.05), 0.05, n=2000, samples=500,
            out_bits=10**7, seed=DEFAULT_SEED,
        )
        assert r.to_json() == CRITERION_8_JSON

    def test_readme_reference_json_is_the_pin(self):
        # the JSON block under README's "This is the reference run"
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        after = readme.split("This is the reference run", 1)[1]
        block = after.split("```\n", 2)[1]
        assert block == CRITERION_8_JSON + "\n"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_readme_command_prints_the_pin(self, threads):
        args = ["rate", "--d", "0.05", "--source", "dagger", "--n", "2000",
                "--samples", "500", "--out-bits", "10000000", "--threads", threads]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout == CRITERION_8_JSON + "\n"

    @pytest.mark.parametrize(
        "spec", [SourceSpec.dagger(0.1), SourceSpec.markov(0.56)], ids=lambda s: s.kind
    )
    def test_stream_op_json_unchanged(self, spec):
        r = estimate_rate(spec, 0.1, n=200, samples=20, out_bits=10**6, seed=11)
        assert r.to_json() == STREAM_OP_JSON[spec.kind]

    def test_underpowered_warning_points_at_the_caller(self):
        for threads in (1, 2):
            with pytest.warns(UserWarning, match="underpowered") as record:
                estimate_rate(
                    SourceSpec.bernoulli_half(), 0.1, n=20, samples=2,
                    out_bits=3000, threads=threads, seed=2,
                )
            assert len(record) == 1
            assert record[0].filename == __file__

    def test_runs_over_the_cap_are_reported(self):
        # markov(0.9) at d = 0.05 puts about 1e-3 of its output runs over 64
        spec, d, out_bits, seed = SourceSpec.markov(0.9), 0.05, 10**6, 3
        with pytest.warns(UserWarning, match=f"longer than {_L_CAP}") as record:
            got = _h_out_from_stream(spec, d, out_bits, seed)
        assert len(record) == 1
        assert got == whole_array_h_out(spec, d, out_bits, seed)
        sample_seed, _ = np.random.SeedSequence(seed).spawn(2)
        interior = whole_array_interior_runs(spec, d, out_bits, sample_seed)
        over = int(np.count_nonzero(interior > _L_CAP))
        assert over > 0
        assert str(record[0].message).startswith(
            f"{over} of {interior.size} output runs ({over / interior.size:.2e})"
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cap_warning_points_at_the_caller(self, threads):
        with pytest.warns(UserWarning, match="longer than") as record:
            estimate_rate(
                SourceSpec.markov(0.9), 0.05, n=20, samples=2,
                out_bits=10**6, threads=threads, seed=3,
            )
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_no_runs_over_the_cap_for_dagger(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _h_out_from_stream(SourceSpec.dagger(0.05), 0.05, 2 * 10**6, 3)

    @pytest.mark.parametrize(
        "spec,d,saturated",
        [
            (SourceSpec.dagger(0.1), 0.1, "none"),
            (SourceSpec.markov(0.9), 0.05, "none"),
            (SourceSpec.renewal(point_mass(300)), 0.01, "all"),
            (SourceSpec.renewal(ONES_AND_300), 0.01, "block starts"),
        ],
        ids=["dagger", "markov", "point_mass_300", "ones_and_300"],
    )
    def test_table_rows_match_int64_lengths(self, spec, d, saturated):
        # counts, run count and length sum of each block of interior runs,
        # from the untrimmed bytes and saturated runs, against the
        # whole-array int64 run lengths with the burn-in cut
        out_bits, seed = 200_000, 9
        sample_seed, _ = np.random.SeedSequence(seed).spawn(2)
        n_in = int(out_bits / (1.0 - d) * 1.02) + 1024
        rng = _rng_from(sample_seed)
        x = sample_sequence(spec, n_in, rng)
        got = _run_table(_output_run_lengths(x, d, rng))

        lengths = whole_array_interior_runs(spec, d, out_bits, sample_seed)
        edges = np.linspace(0, lengths.size, len(got) + 1).astype(np.int64)
        want = []
        for b in np.split(lengths, edges[1:-1]):
            capped = np.minimum(b, _L_CAP + 1)
            counts = np.bincount(capped, minlength=_L_CAP + 2)[1 : _L_CAP + 1]
            want.append([*counts, b.size, b.sum()])
        np.testing.assert_array_equal(got, np.array(want, np.float64))
        assert len(got) == max(8, min(64, lengths.size // 200))
        # runs of 255 bits or more are the saturated ones: none, every one
        # for runs of 300 at d = 0.01, or some longer than a byte that start
        # a block, and so test which block a saturated run is summed into
        over = lengths > 255
        assert {
            "none": not (lengths >= 255).any(),
            "all": over.all(),
            "block starts": over[edges[:-1]].any() and not over.all(),
        }[saturated]

    def test_memory_budget(self, monkeypatch):
        # one byte per input bit for the input, one byte per input bit
        # reserved for the run lengths, and fixed-size block buffers: about
        # 2.2 bytes per input bit (5 with an int32 run buffer)
        sizes = []

        def sample(spec, n, rng):
            sizes.append(n)
            return sample_sequence(spec, n, rng)

        monkeypatch.setattr(estimation, "sample_sequence", sample)
        tracemalloc.start()
        try:
            _h_out_from_stream(SourceSpec.dagger(0.1), 0.1, 2 * 10**6, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * sizes[0]


class TestEstimateHOutRenewal:
    """The output-entropy half of ``estimate_rate`` on renewal-like inputs."""

    def test_bernoulli_matches_iid_limit(self):
        # i.i.d. uniform input stays i.i.d. uniform after deletions
        h, se = _h_out_from_stream(SourceSpec.bernoulli_half(), 0.1, 200000, 7)
        assert 0.0 < se < 1e-3
        assert abs(h - 0.9) <= max(4.0 * se, 3e-4)

    def test_point_mass_no_deletions_zero_entropy(self):
        # deterministic run lengths at d=0: exactly one length observed
        h, se = _h_out_from_stream(
            SourceSpec.renewal(point_mass(3)), 0.0, 50000, 3
        )
        assert h == 0.0
        assert se == 0.0

    def test_geometric_no_deletions_unit_rate(self):
        h, se = _h_out_from_stream(
            SourceSpec.renewal(geometric_half()), 0.0, 200000, 11
        )
        assert abs(h - 1.0) <= max(4.0 * se, 1e-3)

    def test_underpowered_budget_warns(self):
        with pytest.warns(UserWarning, match="underpowered"):
            _h_out_from_stream(SourceSpec.bernoulli_half(), 0.1, 3000, 2)

    def test_adequate_budget_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _h_out_from_stream(SourceSpec.bernoulli_half(), 0.1, 200000, 7)

    def test_deterministic(self):
        args = (SourceSpec.renewal(geometric_half()), 0.2, 50000, 13)
        # 50000 output bits leave the stream underpowered, and it says so
        with pytest.warns(UserWarning, match="underpowered"):
            first = _h_out_from_stream(*args)
            second = _h_out_from_stream(*args)
        assert first == second

    def test_validation(self):
        # two runs leave no interior run once the boundary runs are dropped
        empty = np.empty(0, np.intp)
        with pytest.raises(ValueError, match="too short: 2 runs"):
            _run_table(_OutputRuns(np.array([5, 3], np.uint8), empty, empty))
        # three runs leave one, a table of one row
        table = _run_table(_OutputRuns(np.array([5, 3, 9], np.uint8), empty, empty))
        np.testing.assert_array_equal(table[:, -2:], [[1, 3]])


@pytest.fixture(scope="module")
def small_run():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return estimate_rate(
            SourceSpec.bernoulli_half(),
            0.1,
            n=50,
            samples=50,
            out_bits=20000,
            seed=99,
        )


class TestEstimateRate:
    def test_json_schema_and_key_order(self, small_run):
        doc = json.loads(small_run.to_json())
        assert list(doc) == [
            "rate",
            "h_out",
            "h_cond",
            "std_err",
            "n",
            "samples",
            "d",
            "seed",
            "mode",
        ]
        assert doc["rate"] == small_run.rate
        assert doc["n"] == 50 and doc["samples"] == 50
        assert doc["d"] == 0.1 and doc["seed"] == 99
        assert doc["mode"] == "exact-renewal"

    def test_rate_decomposition_and_invariants(self, small_run):
        r = small_run
        assert r.rate == r.h_out - r.h_cond
        assert r.std_err > 0.0
        assert 0.0 <= r.rate <= 1.0 + 3.0 * r.std_err

    @staticmethod
    def quiet_rate_json(n, samples, threads):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return estimate_rate(
                SourceSpec.dagger(0.1), 0.1, n=n, samples=samples,
                out_bits=20000, threads=threads, seed=2718,
            ).to_json()

    def test_thread_count_invariance(self):
        assert self.quiet_rate_json(200, 64, 1) == self.quiet_rate_json(200, 64, 4)

    def test_thread_count_invariance_with_partial_chunk(self):
        # 130 = 2 full chunks of 64 + 2 replicas
        results = {self.quiet_rate_json(50, 130, t) for t in (1, 2, 3)}
        assert len(results) == 1

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            pytest.param(dict(threads=0), "threads must be >= 1, got 0", id="threads"),
            pytest.param(
                dict(d=1.5), "deletion probability must be in [0, 1], got 1.5", id="d"
            ),
            pytest.param(dict(samples=1), "samples must be >= 2, got 1", id="samples"),
            pytest.param(dict(n=0), "n must be >= 1, got 0", id="n"),
            pytest.param(dict(out_bits=0), "out_bits must be >= 1, got 0", id="out_bits"),
        ],
    )
    def test_validation(self, kwargs, msg):
        # h_cond's arguments are checked before either half starts, so
        # every thread count raises the same error
        for threads in (1, 2):
            args = dict(d=0.1, n=20, samples=10, out_bits=2000, threads=threads)
            args.update(kwargs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
                    estimate_rate(SourceSpec.bernoulli_half(), **args)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bad_n_is_reported_before_the_stream(self, monkeypatch, threads):
        calls = []

        def stream(*args):
            calls.append(args)
            return 0.0, 0.0

        monkeypatch.setattr("delchan.estimation._h_out_from_stream", stream)
        for kwargs, error, msg in (
            (dict(n=0), ValueError, "n must be >= 1, got 0"),
            (dict(n=2000.0), TypeError, "n must be an integer, got 2000.0"),
            (dict(samples=500.0), TypeError, "samples must be an integer, got 500.0"),
        ):
            args = {**dict(n=20, samples=10, out_bits=2000, threads=threads), **kwargs}
            with pytest.raises(error, match=f"^{re.escape(msg)}$"):
                estimate_rate(SourceSpec.bernoulli_half(), 0.1, **args)
        assert calls == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_bad_out_bits_is_reported_before_h_cond(self, monkeypatch, threads):
        calls = []

        def h_cond(*args):
            calls.append(args)
            return 0.0, 0.0

        monkeypatch.setattr("delchan.estimation.estimate_h_cond", h_cond)
        with pytest.raises(ValueError, match="out_bits must be >= 1, got 0"):
            estimate_rate(
                SourceSpec.bernoulli_half(), 0.1, n=20, samples=10,
                out_bits=0, threads=threads,
            )
        assert calls == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_full_deletion_skips_the_stream(self, threads):
        # the stream refuses d = 1, so a result shows it was not run
        r = estimate_rate(
            SourceSpec.bernoulli_half(), 1.0, n=20, samples=5, out_bits=1000,
            threads=threads, seed=1,
        )
        assert r.h_out == 0.0 and r.h_cond == 0.0 and r.rate == 0.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_underpowered_warning_points_at_the_caller(self, threads):
        with pytest.warns(UserWarning, match="underpowered") as record:
            estimate_rate(
                SourceSpec.bernoulli_half(), 0.1, n=20, samples=10,
                out_bits=3000, threads=threads, seed=2,
            )
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_thread_count_determinism(self):
        docs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for threads in (1, 2, 8):
                docs.append(
                    estimate_rate(
                        SourceSpec.dagger(0.1),
                        0.1,
                        n=64,
                        samples=40,
                        out_bits=20000,
                        threads=threads,
                        seed=4242,
                    ).to_json()
                )
        assert docs[0] == docs[1] == docs[2]

    def test_markov_labeled_upper_bound(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = estimate_rate(
                SourceSpec.markov(0.6), 0.1, n=50, samples=10, out_bits=30000, seed=5
            )
        assert r.mode == "upper-bound"
        assert json.loads(r.to_json())["mode"] == "upper-bound"

    def test_no_deletions_point_mass_rate_zero(self):
        r = estimate_rate(
            SourceSpec.renewal(point_mass(3)),
            0.0,
            n=60,
            samples=5,
            out_bits=50000,
            seed=3,
        )
        assert r.rate == 0.0 and r.h_out == 0.0 and r.h_cond == 0.0

    def test_no_deletions_bernoulli_unit_rate(self):
        r = estimate_rate(
            SourceSpec.bernoulli_half(),
            0.0,
            n=60,
            samples=5,
            out_bits=300000,
            seed=3,
        )
        assert r.h_cond == 0.0
        assert abs(r.rate - 1.0) <= max(4.0 * r.std_err, 1e-3)

    def test_small_block_matches_exact_information(self):
        # the exact oracle fixes h_cond at n = 10
        spec = SourceSpec.bernoulli_half()
        cond_target = exact_h_cond_per_bit(spec, 10, 0.1)

        mean, se = estimate_h_cond(spec, 0.1, 10, 20000, 808)
        assert abs(mean - cond_target) <= 4.0 * se

        # h_out estimates the n -> oo limit, 1 - d for a uniform input
        r = estimate_rate(
            spec, 0.1, n=10, samples=20000, out_bits=200000, seed=808
        )
        assert abs(r.rate - (1.0 - 0.1 - cond_target)) <= 4.0 * r.std_err

    @pytest.mark.parametrize("d", [0.05, 0.1])
    def test_tuned_run_law_beats_uniform_input(self, d):
        # the capacity-achieving run law must not lose to i.i.d. input
        common = dict(n=600, samples=400, out_bits=400000, seed=2024)
        uniform = estimate_rate(SourceSpec.bernoulli_half(), d, **common)
        tuned = estimate_rate(SourceSpec.dagger(d), d, **common)
        margin = 2.0 * math.hypot(uniform.std_err, tuned.std_err)
        assert tuned.rate >= uniform.rate - margin

    def test_markov_upper_bound_near_series_value(self):
        # dual route: simulated optimal-Markov rate vs the d^2 series
        d = 0.1
        spec = SourceSpec.markov(optimal_markov_param(d))
        r = estimate_rate(spec, d, n=600, samples=400, out_bits=400000, seed=31)
        assert r.mode == "upper-bound"
        assert abs(r.rate - markov_rate_bound(d)) <= 0.02

    def test_returns_rate_estimate_type(self, small_run):
        assert isinstance(small_run, RateEstimate)
