"""The public surface: every exported name resolves, removed names and
options stay removed, and every argument rule is applied where it is due."""

import ast
import dataclasses
import functools
import importlib
import math
import pkgutil
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import delchan
from delchan import (
    EmpiricalRunStats,
    RateEstimate,
    RunLengthDistribution,
    SourceSpec,
    SuiteReport,
    binomial_length_entropy,
    capacity_estimate,
    dagger_distribution,
    dagger_mass,
    empirical_run_distribution,
    estimate_h_cond,
    estimate_rate,
    exact_block_information,
    geometric_half,
    hatD_entropy_formula,
    hy_given_x_formula,
    k_entropy_formula,
    log_likelihood,
    markov_rate_bound,
    optimal_markov_param,
    output_formula_cutoff,
    point_mass,
    sample_sequence,
    stats_to_json,
    total_probability,
    transmit,
)
from delchan import verify

SUBMODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(delchan.__path__, "delchan.")
    if info.name != "delchan.__main__"
)

#: Public names with no caller or check, removed from the package.
REMOVED = {
    "delchan.channel": (
        "ParentSegmentation",
        "apply_mask",
        "parent_segmentation",
        "perturbed_mask",
        "segment_runs",
    ),
    "delchan.analytics": ("jigsaw_rate_bound", "optimal_truncated_qstar"),
    "delchan.runstats": ("DistributionStats", "distribution_stats", "tail_mass"),
    "delchan.estimation": ("estimate_h_out_renewal",),
    # the published bounds are read from data/table1_bounds.csv
    "delchan.verify": ("PUBLISHED_TABLE",),
}


def test_package_exports_resolve():
    assert len(set(delchan.__all__)) == len(delchan.__all__)
    for name in delchan.__all__:
        assert hasattr(delchan, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("module", sorted(REMOVED))
def test_removed_names_are_gone(module):
    mod = importlib.import_module(module)
    for name in REMOVED[module]:
        assert not hasattr(delchan, name), name
        assert not hasattr(mod, name), f"{module}.{name}"


def test_removed_keywords_are_rejected():
    spec = SourceSpec.bernoulli_half()
    with pytest.raises(TypeError, match="stationary_start"):
        sample_sequence(spec, 8, 0, stationary_start=True)
    for kwargs in (dict(k=2), dict(overlapping=True)):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            empirical_run_distribution("1001000110100", **kwargs)
    # dagger_distribution(d, L_max) takes the truncation point
    with pytest.raises(TypeError, match="L_max"):
        SourceSpec.dagger(0.1, L_max=32)
    with pytest.raises(TypeError, match="miller_madow"):
        estimate_rate(
            spec, 0.1, n=20, samples=2, out_bits=2000, miller_madow=True
        )
    # the JSON documents have one layout each
    stats = empirical_run_distribution("1001000110100")
    rate = RateEstimate(0.5, 0.6, 0.1, 0.01, 20, 2, 0.1, 0, "exact-renewal")
    for call in (
        lambda: stats_to_json(stats, indent=2),
        lambda: SuiteReport("demo", []).to_json(indent=2),
        lambda: rate.to_json(indent=None),
    ):
        with pytest.raises(TypeError, match="indent"):
            call()


def test_removed_fields_are_gone():
    fields = {f.name for f in dataclasses.fields(EmpiricalRunStats)}
    assert fields == {"pmf", "mu_hat", "n_runs", "super_run_pmf"}
    # L_max is probs.size, not a stored copy
    # neither is mean, a cached property of probs
    fields = {f.name for f in dataclasses.fields(RunLengthDistribution)}
    assert fields == {"probs", "discarded_mass"}


# --------------------------------------------------------------------------
# argument rules
# --------------------------------------------------------------------------

BERNOULLI = SourceSpec.bernoulli_half()
GEOMETRIC = geometric_half(16)
RATE_ARGS = dict(n=20, samples=10, out_bits=2000)

#: The nearest values outside each deletion-probability interval.
OUTSIDE = {
    "[0, 1]": (math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)),
    "[0, 1)": (math.nextafter(0.0, -1.0), 1.0),
    "(0, 1)": (0.0, 1.0),
}

#: Every public function that takes ``d``, called with ``d`` alone varied.
D_CALLS = {
    "[0, 1]": {
        "SourceSpec.dagger": SourceSpec.dagger,
        "dagger_distribution": dagger_distribution,
        "dagger_mass": lambda d: dagger_mass(2, d),
        "transmit": lambda d: transmit("0110", d, 0),
        "log_likelihood": lambda d: log_likelihood("0110", "01", d),
        "binomial_length_entropy": lambda d: binomial_length_entropy(10, d),
        "exact_block_information": lambda d: exact_block_information(
            BERNOULLI, 4, d
        ),
        "estimate_h_cond": lambda d: estimate_h_cond(BERNOULLI, d, 20, 10, 0),
        "estimate_rate": lambda d: estimate_rate(BERNOULLI, d, **RATE_ARGS),
    },
    "[0, 1)": {
        "capacity_estimate": capacity_estimate,
        "markov_rate_bound": markov_rate_bound,
        "optimal_markov_param": optimal_markov_param,
        "hatD_entropy_formula": lambda d: hatD_entropy_formula(GEOMETRIC, d),
        "k_entropy_formula": lambda d: k_entropy_formula(GEOMETRIC, d),
        "hy_given_x_formula": lambda d: hy_given_x_formula(GEOMETRIC, d),
    },
    "(0, 1)": {
        "total_probability": lambda d: total_probability("0110", d),
        "output_formula_cutoff": output_formula_cutoff,
    },
}

#: Every integer size parameter, called with that argument alone varied.
SIZE_CALLS = {
    ("estimate_rate", "n"): lambda v: estimate_rate(
        BERNOULLI, 0.1, **{**RATE_ARGS, "n": v}
    ),
    ("estimate_rate", "samples"): lambda v: estimate_rate(
        BERNOULLI, 0.1, **{**RATE_ARGS, "samples": v}
    ),
    ("estimate_rate", "out_bits"): lambda v: estimate_rate(
        BERNOULLI, 0.1, **{**RATE_ARGS, "out_bits": v}
    ),
    ("estimate_rate", "threads"): lambda v: estimate_rate(
        BERNOULLI, 0.1, **RATE_ARGS, threads=v
    ),
    ("estimate_h_cond", "n"): lambda v: estimate_h_cond(BERNOULLI, 0.1, v, 10, 0),
    ("estimate_h_cond", "samples"): lambda v: estimate_h_cond(BERNOULLI, 0.1, 20, v, 0),
    ("exact_block_information", "n"): lambda v: exact_block_information(
        BERNOULLI, v, 0.1
    ),
    ("binomial_length_entropy", "n"): lambda v: binomial_length_entropy(v, 0.1),
    ("sample_sequence", "n"): lambda v: sample_sequence(BERNOULLI, v, 0),
    ("geometric_half", "L_max"): geometric_half,
    ("dagger_distribution", "L_max"): lambda v: dagger_distribution(0.1, v),
    ("point_mass", "l"): point_mass,
    ("dagger_mass", "l"): lambda v: dagger_mass(v, 0.1),
    ("output_formula_cutoff", "L_max"): lambda v: output_formula_cutoff(0.1, v),
    ("RunLengthDistribution.prob", "l"): GEOMETRIC.prob,
    ("empirical_run_distribution", "l_cap"): lambda v: empirical_run_distribution(
        "1001000110100", l_cap=v
    ),
}

#: Every seed parameter, called with the seed alone varied.
SEED_CALLS = {
    "sample_sequence": lambda s: sample_sequence(BERNOULLI, 8, s),
    "transmit": lambda s: transmit("0110", 0.1, s),
    "estimate_h_cond": lambda s: estimate_h_cond(BERNOULLI, 0.1, 20, 10, s),
    "estimate_rate": lambda s: estimate_rate(BERNOULLI, 0.1, **RATE_ARGS, seed=s),
    "check_dp_oracle": verify.check_dp_oracle,
    "check_small_block_oracle": lambda s: verify.check_small_block_oracle(seed=s),
    "check_formula_vs_simulation": lambda s: verify.check_formula_vs_simulation(seed=s),
    "check_end_to_end_rate": lambda s: verify.check_end_to_end_rate(seed=s),
    "check_run_statistics": verify.check_run_statistics,
    "check_determinism": verify.check_determinism,
    "run_suite": lambda s: verify.run_suite("lemmas", seed=s),
}


def _bad_arguments():
    """(callable, bad value, exception, message pattern) for every rule."""
    for interval, calls in D_CALLS.items():
        for name, call in calls.items():
            for bad in (math.nan, *OUTSIDE[interval]):
                msg = f"deletion probability must be in {interval}, got {bad!r}"
                yield pytest.param(
                    call, bad, ValueError, f"^{re.escape(msg)}$", id=f"{name}-d={bad!r}"
                )
    for (name, argument), call in SIZE_CALLS.items():
        msg = f"{argument} must be an integer, got 2.5"
        yield pytest.param(
            call, 2.5, TypeError, f"^{re.escape(msg)}$", id=f"{name}-{argument}=2.5"
        )
    for name, call in SEED_CALLS.items():
        msg = "seed must be an integer, got 2.5"
        yield pytest.param(
            call, 2.5, TypeError, f"^{re.escape(msg)}$", id=f"{name}-seed=2.5"
        )


@pytest.mark.parametrize("call,bad,error,pattern", _bad_arguments())
def test_argument_rule(call, bad, error, pattern):
    with pytest.raises(error, match=pattern):
        call(bad)


@pytest.mark.parametrize(
    "call,bad,message",
    [
        # l = 0 once raised a bare "math domain error" from log(0)
        (lambda v: dagger_mass(v, 0.1), 0, "l must be >= 1, got 0"),
        # L_max = -5 was once returned as the cutoff
        (lambda v: output_formula_cutoff(0.1, v), -5, "L_max must be >= 1, got -5"),
        (GEOMETRIC.prob, -1, "l must be >= 0, got -1"),
    ],
    ids=["dagger_mass", "output_formula_cutoff", "RunLengthDistribution.prob"],
)
def test_size_minimum(call, bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_run_length_prob_takes_any_integer_length():
    assert GEOMETRIC.prob(0) == GEOMETRIC.prob(GEOMETRIC.L_max + 1) == 0.0
    assert GEOMETRIC.prob(np.int64(3)) == GEOMETRIC.prob(3) == GEOMETRIC.probs[2]


@pytest.mark.parametrize(
    "argument,value",
    [("n", 2000.0), ("samples", 500.0), ("out_bits", 1e7), ("threads", 2.0),
     ("seed", 7.9)],
)
def test_estimate_rate_checks_every_argument_before_either_half(
    monkeypatch, argument, value
):
    calls = []

    def half(*args):
        calls.append(args)
        return 0.0, 0.0

    monkeypatch.setattr("delchan.estimation._h_out_from_stream", half)
    monkeypatch.setattr("delchan.estimation.estimate_h_cond", half)
    for threads in (1, 2):
        args = {**RATE_ARGS, "threads": threads, argument: value}
        with pytest.raises(TypeError, match=f"^{argument} must be an integer"):
            estimate_rate(BERNOULLI, 0.1, **args)
    assert calls == []


@pytest.mark.parametrize(
    "call",
    [
        lambda s: estimate_h_cond(BERNOULLI, 0.1, 20, 10, s),
        lambda s: sample_sequence(BERNOULLI, 8, s),
    ],
    ids=["estimate_h_cond", "sample_sequence"],
)
def test_fractional_seed_is_not_truncated(call):
    # 7.9 was once cast to 7; a seed is an integer or a TypeError
    for seed in (7.9, None):
        with pytest.raises(TypeError):
            call(seed)


def test_numpy_integer_arguments_still_serialise():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        plain = estimate_rate(BERNOULLI, 0.1, **RATE_ARGS, seed=7)
        numpy = estimate_rate(
            BERNOULLI, 0.1, n=np.int64(20), samples=np.int32(10),
            out_bits=np.int64(2000), threads=np.int8(1), seed=np.uint32(7),
        )
    assert numpy.to_json() == plain.to_json()
    assert {type(numpy.n), type(numpy.samples), type(numpy.seed)} == {int}
    for d in (0.1, 0.0, 1.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r = estimate_rate(BERNOULLI, d, **RATE_ARGS, seed=7)
        fields = (r.rate, r.h_out, r.h_cond, r.std_err)
        assert {type(v) for v in fields} == {float}, (d, fields)


def test_package_imports_only_declared_dependencies():
    # scipy and friends may be installed where the tests run, so a stray
    # import would pass every other test
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text("utf-8")
    deps = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    declared = set(re.findall(r'"([A-Za-z0-9_]+)', deps))
    allowed = set(sys.stdlib_module_names) | declared | {"delchan"}
    for path in sorted((root / "src" / "delchan").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}: import {name}"


def test_every_cached_array_is_read_only():
    # a cache hands one array to every caller, so one caller's write would
    # reach all later calls; the walk finds every lru_cache and
    # cached_property of the package, so a new cache is not missed
    modules = [importlib.import_module(name) for name in SUBMODULES]
    caches = {
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__
    }
    properties = {
        f"{cls.__qualname__}.{name}"
        for mod in modules
        for cls in vars(mod).values()
        if isinstance(cls, type) and cls.__module__ == mod.__name__
        for name, attr in vars(cls).items()
        if isinstance(attr, functools.cached_property)
    }
    assert caches == {
        "delchan.likelihood._all_words",
        "delchan.likelihood._log2_binomials",
        "delchan.likelihood._orbit_outputs",
        "delchan.verify._kept_weights",
    }
    # ``mean`` is a float
    assert properties == {"RunLengthDistribution._cdf", "RunLengthDistribution.mean"}
    from delchan import likelihood

    arrays = [
        likelihood._all_words(5),
        likelihood._log2_binomials(7),
        *likelihood._orbit_outputs(5),
        verify._kept_weights(6, 3),
        *dagger_distribution(0.1)._cdf,
        *geometric_half()._cdf,
    ]
    for array in arrays:
        # owns its memory: no writable base to write the cache through
        assert not array.flags.writeable and array.base is None
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]
