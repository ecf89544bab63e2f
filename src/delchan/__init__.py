"""delchan: small-deletion-probability capacity toolkit for the binary deletion channel.

Computes the series constants and second-order capacity expansion of the
binary deletion channel, samples capacity-achieving input processes,
simulates the deletion channel and its modified deletion mask,
evaluates the closed-form entropy formulas, and estimates achievable
information rates by Monte Carlo against exact small-instance oracles.
"""

from delchan.analytics import (
    hatD_entropy_formula,
    hy_given_x_formula,
    k_entropy_formula,
    markov_rate_bound,
    optimal_markov_param,
    output_formula_cutoff,
)
from delchan.channel import (
    DeletionRealization,
    SuperRunType,
    apply_mask,
    modified_mask,
    run_lengths,
    segment_super_runs,
    transmit,
)
from delchan.constants import (
    DEFAULT_TOL,
    SeriesConstants,
    binary_entropy,
    capacity_estimate,
    compute_constants,
)
from delchan.estimation import (
    RateEstimate,
    estimate_h_cond,
    estimate_rate,
)
from delchan.likelihood import (
    IMPOSSIBLE,
    BlockInformation,
    LogLikelihood,
    binomial_length_entropy,
    embedding_count,
    exact_block_information,
    log2_binomial,
    log_likelihood,
    total_probability,
)
from delchan.runstats import (
    EmpiricalRunStats,
    empirical_run_distribution,
    empirical_super_run_distribution,
    stats_to_json,
)
from delchan.sources import (
    DEFAULT_L_MAX,
    DEFAULT_SEED,
    RunLengthDistribution,
    SourceSpec,
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
from delchan.verify import CheckResult, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BlockInformation",
    "CheckResult",
    "DEFAULT_L_MAX",
    "DEFAULT_SEED",
    "DEFAULT_TOL",
    "DeletionRealization",
    "EmpiricalRunStats",
    "IMPOSSIBLE",
    "LogLikelihood",
    "RateEstimate",
    "RunLengthDistribution",
    "SeriesConstants",
    "SourceSpec",
    "SuiteReport",
    "SuperRunType",
    "apply_mask",
    "as_bits",
    "binary_entropy",
    "binomial_length_entropy",
    "bits_to_str",
    "capacity_estimate",
    "compute_constants",
    "dagger_distribution",
    "dagger_mass",
    "embedding_count",
    "empirical_run_distribution",
    "empirical_super_run_distribution",
    "estimate_h_cond",
    "estimate_rate",
    "exact_block_information",
    "geometric_half",
    "hatD_entropy_formula",
    "hy_given_x_formula",
    "k_entropy_formula",
    "log2_binomial",
    "log_likelihood",
    "markov_rate_bound",
    "modified_mask",
    "optimal_markov_param",
    "output_formula_cutoff",
    "point_mass",
    "read_distribution",
    "run_lengths",
    "run_suite",
    "sample_sequence",
    "segment_super_runs",
    "stats_to_json",
    "total_probability",
    "transmit",
    "write_distribution",
]
