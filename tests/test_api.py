"""The public surface: every exported name resolves, and removed names and
options stay removed."""

import dataclasses
import importlib
import pkgutil

import pytest

import delchan
from delchan import (
    EmpiricalRunStats,
    RateEstimate,
    RunLengthDistribution,
    SourceSpec,
    SuiteReport,
    empirical_run_distribution,
    estimate_rate,
    sample_sequence,
    stats_to_json,
)

SUBMODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(delchan.__path__, "delchan.")
    if info.name != "delchan.__main__"
)

#: Public names with no caller or check, removed from the package.
REMOVED = {
    "delchan.channel": (
        "ParentSegmentation",
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
