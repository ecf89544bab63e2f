"""Empirical run statistics of binary sequences under the run-boundary view.

Statistics are taken over *interior* runs — the first and last
(boundary) runs of a finite sequence are censored by the observation
window and are always discarded, which keeps the estimators aligned
with the distribution seen from a typical run boundary at O(1/n_runs)
bias.

Provided measurements:

* ``empirical_run_distribution`` — run-length pmf, with lengths above
  ``l_cap`` pooled into an overflow bucket that is excluded from the pmf
  but kept in the mean estimate ``mu_hat``;
* ``empirical_super_run_distribution`` — pmf over super-run types
  ``(l_rep, l_alt)`` and the mean total super-run length;
* ``stats_to_json`` — the JSON stats document, with the entropy ``H(L)``
  of the pmf and its divergence from the ``2^-l`` law computed directly
  as ``sum p(l) (log2 p(l) + l)``, so that ``H = mean - D`` for the
  pmf's mean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from delchan.channel import SuperRunType, _super_run_arrays, run_lengths
from delchan.constants import _check_int
from delchan.sources import RunLengthDistribution, as_bits

__all__ = [
    "EmpiricalRunStats",
    "empirical_run_distribution",
    "empirical_super_run_distribution",
    "stats_to_json",
]

#: Longest run length counted on its own; longer runs are pooled out of the
#: pmf here and out of the output-entropy estimate of ``delchan.estimation``.
_L_CAP = 64


@dataclass(frozen=True)
class EmpiricalRunStats:
    """Estimated run-length law of one sequence.

    ``pmf`` covers lengths ``1..l_cap`` (its ``discarded_mass`` records
    the fraction of interior runs longer than ``l_cap``); ``mu_hat`` is
    the mean over *all* interior runs including overflow, so
    ``mu_hat == pmf.mean`` exactly when the overflow bucket is empty.
    For super-run statistics, ``pmf`` is the law of the total super-run
    length, ``mu_hat`` its mean, and ``super_run_pmf`` the law of the
    ``(l_rep, l_alt)`` type.
    """

    pmf: RunLengthDistribution
    mu_hat: float
    n_runs: int
    super_run_pmf: "dict[SuperRunType, float] | None" = None


def _interior_run_lengths(x) -> np.ndarray:
    lengths = run_lengths(as_bits(x))
    if lengths.size < 3:
        raise ValueError(
            "too few runs: need at least one interior run after discarding "
            f"the two boundary runs (sequence has {lengths.size})"
        )
    return lengths[1:-1]


def _capped_counts(lengths: np.ndarray, cap: int) -> np.ndarray:
    """Counts of the lengths ``1..cap`` (index ``l - 1``); longer runs are left out
    (pooled into a bin ``cap + 1`` that is dropped)."""
    return np.bincount(np.minimum(lengths, cap + 1), minlength=cap + 2)[1 : cap + 1]


def empirical_run_distribution(x, *, l_cap: int = _L_CAP) -> EmpiricalRunStats:
    """Interior run-length pmf of ``x``.

    Boundary (first/last) runs are discarded.  Interior runs longer than
    ``l_cap`` are pooled into an overflow bucket: excluded from ``pmf``
    (reported via its ``discarded_mass``) but included in ``mu_hat``.
    """
    l_cap = _check_int("l_cap", l_cap, 1)
    interior = _interior_run_lengths(x)
    n_runs = int(interior.size)

    counts = _capped_counts(interior, l_cap)
    n_capped = int(counts.sum())
    if n_capped == 0:
        raise ValueError(f"all interior runs exceed l_cap={l_cap}")
    overflow_mass = 1.0 - n_capped / n_runs
    pmf = RunLengthDistribution.from_weights(counts, discarded_mass=overflow_mass)
    mu_hat = float(interior.mean())
    return EmpiricalRunStats(pmf=pmf, mu_hat=mu_hat, n_runs=n_runs)


def empirical_super_run_distribution(x) -> EmpiricalRunStats:
    """Interior super-run statistics of ``x``.

    Super-runs are the greedy decomposition into a leading run followed
    by the maximal stretch of length-1 runs; the first and last
    super-runs are discarded as boundary.  ``super_run_pmf`` is the pmf
    over ``(l_rep, l_alt)`` types, ``pmf`` the law of the total length
    ``l_rep + l_alt``, and ``mu_hat`` its mean.
    """
    l_rep, l_alt = _super_run_arrays(x)
    if l_rep.size < 3:
        raise ValueError(
            "too few super-runs: need at least one interior super-run after "
            f"discarding the two boundary super-runs (sequence has {l_rep.size})"
        )
    l_rep, l_alt = l_rep[1:-1], l_alt[1:-1]
    n = l_rep.size
    totals = l_rep + l_alt

    # one key per type, in order of first occurrence; a type seen c times
    # gets 1/n added c times in sequence, the c-th running sum of a cumsum
    _, first, seen = np.unique(
        l_rep * (int(l_alt.max()) + 1) + l_alt, return_index=True, return_counts=True
    )
    order = np.argsort(first)
    first, seen = first[order], seen[order]
    mass = np.cumsum(np.full(int(seen.max()), 1.0 / n))[seen - 1]
    super_run_pmf = dict(
        zip(
            map(SuperRunType, l_rep[first].tolist(), l_alt[first].tolist()),
            mass.tolist(),
        )
    )

    counts = np.bincount(totals, minlength=int(totals.max()) + 1)[1:]
    pmf = RunLengthDistribution.from_weights(counts.astype(np.float64))
    return EmpiricalRunStats(
        pmf=pmf,
        mu_hat=float(totals.mean()),
        n_runs=n,
        super_run_pmf=super_run_pmf,
    )


def stats_to_json(stats: EmpiricalRunStats) -> str:
    """Serialize empirical stats as the toolkit's JSON stats document.

    Keys: ``pmf`` (list of ``[l, p]`` pairs over the observed support),
    ``mu`` (mean over all interior runs), ``H_L`` and ``D`` (entropy of
    the capped pmf and its divergence from the ``2^-l`` law, in bits),
    and ``n_runs``.  ``D`` is summed directly as
    ``sum_l p(l) (log2 p(l) + l)``, not as ``mean - H_L``, so that
    ``H_L = mean - D`` holds for the pmf's mean to accumulation error.
    """
    pmf, h_terms, d_terms = [], [], []
    for l, pl in enumerate(stats.pmf.probs.tolist(), start=1):
        if pl > 0.0:
            lg = math.log2(pl)
            pmf.append([l, pl])
            h_terms.append(-pl * lg)
            d_terms.append(pl * (lg + l))
    doc = {
        "pmf": pmf,
        "mu": stats.mu_hat,
        "H_L": math.fsum(h_terms),
        "D": math.fsum(d_terms),
        "n_runs": stats.n_runs,
    }
    return json.dumps(doc, indent=2)
