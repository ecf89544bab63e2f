"""Command-line surface: constants report, capacity table and plot data,
rate estimation runs, verification suites, and distribution file I/O.

The published bounds (``BoundsTable``) and the estimate-only d-grid come
from ``delchan.verify``; the ``stats --l-cap`` default from ``delchan.runstats``.

Conventions
-----------
* stdout carries data only; diagnostics and warnings go to stderr.
* Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 I/O error.
* All commands are deterministic given their flags; random seeds
  default to the fixed constant ``DEFAULT_SEED``, never wall-clock.
* Floats in CSV output are written with ``repr`` so that parsing the
  file reproduces the values bit-exactly.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict

import click
import numpy as np

from delchan.channel import transmit
from delchan.constants import DEFAULT_TOL, capacity_estimate, compute_constants
from delchan.estimation import estimate_rate
from delchan.runstats import _L_CAP, empirical_run_distribution, stats_to_json
from delchan.sources import (
    DEFAULT_L_MAX,
    DEFAULT_SEED,
    SourceSpec,
    dagger_distribution,
    geometric_half,
    read_distribution,
    sample_sequence,
    write_distribution,
)
from delchan.verify import DEFAULT_D_GRID, SUITES, BoundsTable, run_suite

__all__ = ["BoundsTable", "main", "run_table", "table_rows"]


def table_rows(bounds: BoundsTable) -> list[dict]:
    """Rows (d, lower, C_est, upper); (d, C_est) over ``DEFAULT_D_GRID`` for
    a table without rows."""
    if not bounds.rows:
        return [{"d": d, "C_est": capacity_estimate(d)} for d in DEFAULT_D_GRID]
    return [
        {"d": d, "lower": lower, "C_est": capacity_estimate(d), "upper": upper}
        for d, lower, upper in bounds.rows
    ]


def _rows_to_csv(rows: list[dict]) -> str:
    """CSV with the first row's keys as columns: strings as they are,
    numbers by ``repr``."""
    lines = [",".join(rows[0])]
    lines.extend(
        ",".join(v if isinstance(v, str) else repr(v) for v in row.values())
        for row in rows
    )
    return "\n".join(lines) + "\n"


def run_table(bounds_file=None, out_format: str = "csv") -> str:
    """Formatted capacity table for a bounds file (default: bundled).

    A bounds file without rows degrades to an estimate-only table over
    the default d-grid.
    """
    bounds = BoundsTable.bundled() if bounds_file is None else BoundsTable.parse(
        bounds_file
    )
    rows = table_rows(bounds)
    if out_format == "json":
        return json.dumps(rows, indent=2)
    return _rows_to_csv(rows)


@contextmanager
def _usage_errors():
    """Report a ``ValueError`` raised inside the block as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@contextmanager
def _io_errors():
    """Report an ``OSError`` or ``ValueError`` in the block as an I/O error."""
    try:
        yield
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@contextmanager
def _echo_warnings():
    """Record the warnings raised in the block and echo them to stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for w in caught:
        click.echo(f"warning: {w.message}", err=True)


def _parse_source(text: str, channel_d: float) -> SourceSpec:
    """Parse ``bernoulli | markov:<p> | dagger[:<d>] | renewal:<file>``."""
    if text == "bernoulli":
        return SourceSpec.bernoulli_half()
    if text == "dagger":
        try:
            return SourceSpec.dagger(channel_d)
        except ValueError as exc:
            raise click.UsageError(
                f"dagger needs a usable deletion probability ({exc}); "
                "pass dagger:<d> to pin one explicitly"
            ) from exc
    kind, _, arg = text.partition(":")
    if kind in ("dagger", "markov") and arg:
        try:
            return getattr(SourceSpec, kind)(float(arg))
        except ValueError as exc:
            raise click.UsageError(f"bad {kind} parameter {arg!r}: {exc}") from exc
    if kind == "renewal" and arg:
        with _io_errors():
            return SourceSpec.renewal(read_distribution(arg))
    raise click.UsageError(
        f"unknown source {text!r}; expected bernoulli, markov:<p>, "
        "dagger[:<d>], or renewal:<file>"
    )


_GNUPLOT_TEMPLATE = """\
set datafile separator ","
set xlabel "deletion probability d"
set ylabel "bits per input bit"
set key top right
set xrange [0:0.55]
set yrange [0:1]
plot "{csv}" using 1:2 with points pt 6 ps 1.2 title "best lower bound", \\
     "{csv}" using 1:3 with lines lw 2 title "second-order estimate", \\
     "{csv}" using 1:4 with points pt 4 ps 1.2 title "best upper bound"
"""


@click.group()
def main() -> None:
    """Deletion-channel capacity toolkit."""


@main.command("constants")
@click.option("--tol", type=click.FloatRange(min=0.0, min_open=True),
              default=DEFAULT_TOL, show_default=True,
              help="Certified absolute accuracy of each series constant.")
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def constants_cmd(tol: float, out_format: str) -> None:
    """Report the capacity-expansion series constants."""
    values = asdict(compute_constants(tol))
    if out_format == "json":
        click.echo(json.dumps(values, indent=2))
    else:
        rows = [{"name": name, "value": value} for name, value in values.items()]
        click.echo(_rows_to_csv(rows), nl=False)


@main.command("table")
@click.option("--bounds-file", type=click.Path(), default=None,
              help="CSV of published bounds (default: bundled table).")
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def table_cmd(bounds_file, out_format: str) -> None:
    """Capacity estimates next to the published bounds."""
    with _io_errors():
        click.echo(run_table(bounds_file, out_format), nl=False)


@main.command("plot-data")
@click.option("--bounds-file", type=click.Path(), default=None,
              help="CSV of published bounds (default: bundled table).")
@click.option("--points", type=click.IntRange(min=2), default=99,
              show_default=True,
              help="Number of grid points for the estimate curve.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the CSV here instead of stdout.")
@click.option("--gnuplot-script", type=click.Path(), default=None,
              help="Also emit a gnuplot script plotting --out.")
def plot_data_cmd(bounds_file, points: int, out_path, gnuplot_script) -> None:
    """Plot data (d, lower, C_est, upper) on a dense d-grid.

    Grid points without published bounds carry ``nan`` in the bounds
    columns, which gnuplot treats as missing.
    """
    if gnuplot_script is not None and out_path is None:
        raise click.UsageError("--gnuplot-script requires --out")
    with _io_errors():
        bounds = (BoundsTable.bundled() if bounds_file is None
                  else BoundsTable.parse(bounds_file))

    known = {round(d, 6): (lower, upper) for d, lower, upper in bounds.rows}
    grid = sorted(
        {round(float(d), 6) for d in np.linspace(0.01, 0.50, points)}
        | set(known)
    )
    rows = []
    for d in grid:
        lower, upper = known.get(d, (math.nan, math.nan))
        rows.append({"d": d, "lower": lower, "C_est": capacity_estimate(d),
                     "upper": upper})
    text = _rows_to_csv(rows)

    with _io_errors():
        if out_path is None:
            click.echo(text, nl=False)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        if gnuplot_script is not None:
            with open(gnuplot_script, "w", encoding="utf-8") as fh:
                fh.write(_GNUPLOT_TEMPLATE.format(csv=out_path))


@main.command("rate")
@click.option("--d", type=float, required=True, help="Deletion probability.")
@click.option("--source", default="bernoulli", show_default=True,
              help="bernoulli | markov:<p> | dagger[:<d>] | renewal:<file>.")
@click.option("--n", type=click.IntRange(min=1), default=1000, show_default=True,
              help="Input block length per replica.")
@click.option("--samples", type=click.IntRange(min=2), default=200,
              show_default=True,
              help="Monte Carlo replicas for the conditional entropy.")
@click.option("--out-bits", type=click.IntRange(min=1), default=1_000_000,
              show_default=True,
              help="Output-stream budget for the output entropy.")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED,
              show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help="2 runs the two halves of the estimate at once; more adds nothing.")
@click.option("--format", "out_format", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def rate_cmd(d, source, n, samples, out_bits, seed, threads, out_format) -> None:
    """Estimate the achievable information rate of a source."""
    spec = _parse_source(source, d)
    with _usage_errors(), _echo_warnings():
        result = estimate_rate(
            spec, d, n=n, samples=samples, out_bits=out_bits,
            threads=threads, seed=seed,
        )
    if out_format == "json":
        click.echo(result.to_json())
    else:
        click.echo(_rows_to_csv([asdict(result)]), nl=False)


@main.command("dist")
@click.argument("kind", type=click.Choice(["dagger", "geometric"]))
@click.argument("out", type=click.Path())
@click.option("--d", type=float, default=None,
              help="Deletion probability (required for dagger).")
@click.option("--l-max", type=click.IntRange(min=1), default=DEFAULT_L_MAX,
              show_default=True)
def dist_cmd(kind, out, d, l_max) -> None:
    """Write a run-length distribution file usable as renewal:<file>."""
    if kind == "dagger":
        if d is None:
            raise click.UsageError("dagger requires --d")
        with _usage_errors():
            dist = dagger_distribution(d, l_max)
        label = f"capacity-achieving run law at d={d!r}, L_max={l_max}"
    else:
        dist = geometric_half(l_max)
        label = f"truncated geometric(1/2) run law, L_max={l_max}"
    with _io_errors():
        write_distribution(out, dist, comment=label)
    click.echo(f"wrote {label} to {out}", err=True)


@main.command("stats")
@click.option("--source", default="bernoulli", show_default=True,
              help="bernoulli | markov:<p> | dagger:<d> | renewal:<file>.")
@click.option("--n", type=click.IntRange(min=0), default=1_000_000,
              show_default=True, help="Bits to sample.")
@click.option("--d", type=float, default=None,
              help="If set, report statistics of the channel output.")
@click.option("--l-cap", type=click.IntRange(min=1), default=_L_CAP,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED,
              show_default=True)
def stats_cmd(source, n, d, l_cap, seed) -> None:
    """Empirical run-length statistics of a source (or channel output)."""
    spec = _parse_source(source, d if d is not None else 0.0)
    root = np.random.SeedSequence(seed)
    sample_seed, channel_seed = root.spawn(2)
    with _usage_errors():
        bits = sample_sequence(spec, n, sample_seed)
        if d is not None:
            bits = transmit(bits, d, channel_seed).y
        stats = empirical_run_distribution(bits, l_cap=l_cap)
    click.echo(stats_to_json(stats))


@main.command("verify")
@click.argument("suite", type=click.Choice(SUITES))
@click.option("--samples", type=click.IntRange(min=2), default=None,
              help="Monte Carlo replicas (rates suite only).")
@click.option("--out-bits", type=click.IntRange(min=1), default=None,
              help="Output-stream budget (rates suite only).")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED,
              show_default=True)
def verify_cmd(suite, samples, out_bits, seed) -> None:
    """Run a verification suite; exit 1 on failure.

    An underpowered rates run (budget below the full verification
    sizes) reports its numbers but exits 0 with a warning.
    """
    with _echo_warnings():
        report = run_suite(suite, samples=samples, out_bits=out_bits, seed=seed)
    click.echo(report.to_json())
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        click.echo(f"[{status}] {check.name}", err=True)
    if report.underpowered:
        click.echo(
            "warning: underpowered budget; results are advisory only",
            err=True,
        )
        return
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
