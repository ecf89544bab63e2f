"""Command-line surface: constants report, capacity table and plot data,
rate estimation runs, verification suites, and distribution file I/O.

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
from dataclasses import dataclass
from importlib import resources

import click
import numpy as np

from delchan.channel import transmit
from delchan.constants import DEFAULT_TOL, capacity_estimate, compute_constants
from delchan.estimation import estimate_rate
from delchan.runstats import empirical_run_distribution, stats_to_json
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
from delchan.verify import SUITES, run_suite

__all__ = ["BoundsTable", "main", "run_table", "table_rows"]

#: d-grid used when no bounds rows are available (degraded mode).
DEFAULT_D_GRID = tuple(round(0.05 * k, 2) for k in range(1, 11))

_BOUNDS_HEADER = "d,lower,upper"


@dataclass(frozen=True)
class BoundsTable:
    """Published capacity bounds: rows of (d, lower, upper) in bits."""

    rows: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        prev_d = -math.inf
        for d, lower, upper in self.rows:
            if d <= prev_d:
                raise ValueError(f"d values must be strictly increasing, got {d}")
            if not 0.0 <= lower <= upper <= 1.0:
                raise ValueError(
                    f"bounds must satisfy 0 <= lower <= upper <= 1 at d={d}"
                )
            prev_d = d

    @classmethod
    def parse(cls, path) -> "BoundsTable":
        """Parse a ``d,lower,upper`` CSV; empty files give an empty table.

        Raises ``ValueError`` naming the offending line on malformed
        input or invariant violations.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()

        rows: list[tuple[float, float, float]] = []
        header_seen = False
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != _BOUNDS_HEADER:
                    raise ValueError(
                        f"{path}: line {lineno}: expected header "
                        f"{_BOUNDS_HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(
                    f"{path}: line {lineno}: expected 3 comma-separated "
                    f"values, got {len(parts)}"
                )
            try:
                d, lower, upper = (float(p) for p in parts)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
            if rows and d <= rows[-1][0]:
                raise ValueError(
                    f"{path}: line {lineno}: d values must be strictly increasing"
                )
            if not 0.0 <= lower <= upper <= 1.0:
                raise ValueError(
                    f"{path}: line {lineno}: bounds must satisfy "
                    f"0 <= lower <= upper <= 1"
                )
            rows.append((d, lower, upper))
        return cls(rows=tuple(rows))

    @classmethod
    def bundled(cls) -> "BoundsTable":
        """The bounds table shipped with the package."""
        ref = resources.files("delchan").joinpath("data/table1_bounds.csv")
        with resources.as_file(ref) as path:
            return cls.parse(path)


def table_rows(bounds: BoundsTable) -> list[dict]:
    """Rows (d, lower, C_est, upper); bounds ``None`` in degraded mode."""
    consts = compute_constants(DEFAULT_TOL)
    if not bounds.rows:
        return [
            {"d": d, "lower": None, "C_est": capacity_estimate(d, consts),
             "upper": None}
            for d in DEFAULT_D_GRID
        ]
    return [
        {"d": d, "lower": lower, "C_est": capacity_estimate(d, consts),
         "upper": upper}
        for d, lower, upper in bounds.rows
    ]


def _csv_cell(value) -> str:
    return "" if value is None else repr(float(value))


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    lines.extend(
        ",".join(_csv_cell(row[col]) for col in columns) for row in rows
    )
    return "\n".join(lines) + "\n"


def _rows_to_json(rows: list[dict]) -> str:
    return json.dumps(rows, indent=2)


def run_table(bounds_file=None, out_format: str = "csv") -> str:
    """Formatted capacity table for a bounds file (default: bundled).

    A bounds file without rows degrades to an estimate-only table over
    the default d-grid.
    """
    bounds = BoundsTable.bundled() if bounds_file is None else BoundsTable.parse(
        bounds_file
    )
    rows = table_rows(bounds)
    if not bounds.rows:
        rows = [{"d": r["d"], "C_est": r["C_est"]} for r in rows]
        columns = ["d", "C_est"]
    else:
        columns = ["d", "lower", "C_est", "upper"]
    if out_format == "json":
        return _rows_to_json(rows)
    return _rows_to_csv(rows, columns)


@contextmanager
def _usage_errors():
    """Report a ``ValueError`` raised inside the block as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


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
    if kind == "dagger" and arg:
        try:
            return SourceSpec.dagger(float(arg))
        except ValueError as exc:
            raise click.UsageError(f"bad dagger parameter {arg!r}: {exc}") from exc
    if kind == "markov" and arg:
        try:
            return SourceSpec.markov(float(arg))
        except ValueError as exc:
            raise click.UsageError(f"bad markov parameter {arg!r}: {exc}") from exc
    if kind == "renewal" and arg:
        try:
            return SourceSpec.renewal(read_distribution(arg))
        except (OSError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
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
    consts = compute_constants(tol)
    values = {
        name: getattr(consts, name)
        for name in ("c2", "c3", "c4", "c5", "A1", "A2", "A2_prime",
                     "truncation_error_bound")
    }
    if out_format == "json":
        click.echo(json.dumps(values, indent=2))
    else:
        click.echo("name,value")
        for name, value in values.items():
            click.echo(f"{name},{value!r}")


@main.command("table")
@click.option("--bounds-file", type=click.Path(), default=None,
              help="CSV of published bounds (default: bundled table).")
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
def table_cmd(bounds_file, out_format: str) -> None:
    """Capacity estimates next to the published bounds."""
    try:
        click.echo(run_table(bounds_file, out_format), nl=False)
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@main.command("plot-data")
@click.option("--bounds-file", type=click.Path(), default=None,
              help="CSV of published bounds (default: bundled table).")
@click.option("--points", type=int, default=99, show_default=True,
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
    if points < 2:
        raise click.UsageError("--points must be >= 2")
    if gnuplot_script is not None and out_path is None:
        raise click.UsageError("--gnuplot-script requires --out")
    try:
        bounds = (BoundsTable.bundled() if bounds_file is None
                  else BoundsTable.parse(bounds_file))
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)

    consts = compute_constants(DEFAULT_TOL)
    known = {round(d, 6): (lower, upper) for d, lower, upper in bounds.rows}
    grid = sorted(
        {round(float(d), 6) for d in np.linspace(0.01, 0.50, points)}
        | set(known)
    )
    rows = []
    for d in grid:
        lower, upper = known.get(d, (math.nan, math.nan))
        rows.append({"d": d, "lower": lower,
                     "C_est": capacity_estimate(d, consts), "upper": upper})
    text = _rows_to_csv(rows, ["d", "lower", "C_est", "upper"])

    try:
        if out_path is None:
            click.echo(text, nl=False)
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        if gnuplot_script is not None:
            with open(gnuplot_script, "w", encoding="utf-8") as fh:
                fh.write(_GNUPLOT_TEMPLATE.format(csv=out_path))
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@main.command("rate")
@click.option("--d", type=float, required=True, help="Deletion probability.")
@click.option("--source", default="bernoulli", show_default=True,
              help="bernoulli | markov:<p> | dagger[:<d>] | renewal:<file>.")
@click.option("--n", type=int, default=1000, show_default=True,
              help="Input block length per replica.")
@click.option("--samples", type=click.IntRange(min=2), default=200,
              show_default=True,
              help="Monte Carlo replicas for the conditional entropy.")
@click.option("--out-bits", type=click.IntRange(min=1), default=1_000_000,
              show_default=True,
              help="Output-stream budget for the output entropy.")
@click.option("--seed", type=click.IntRange(min=0), default=DEFAULT_SEED,
              show_default=True)
@click.option("--threads", type=int, default=1, show_default=True)
@click.option("--format", "out_format", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def rate_cmd(d, source, n, samples, out_bits, seed, threads, out_format) -> None:
    """Estimate the achievable information rate of a source."""
    spec = _parse_source(source, d)
    with _usage_errors(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = estimate_rate(
            spec, d, n=n, samples=samples, out_bits=out_bits,
            threads=threads, seed=seed,
        )
    for w in caught:
        click.echo(f"warning: {w.message}", err=True)
    if out_format == "json":
        click.echo(result.to_json())
    else:
        cols = ["rate", "h_out", "h_cond", "std_err", "n", "samples", "d",
                "seed", "mode"]
        click.echo(",".join(cols))
        doc = json.loads(result.to_json())
        click.echo(",".join(
            doc[c] if c == "mode" else repr(doc[c]) for c in cols
        ))


@main.command("dist")
@click.argument("kind", type=click.Choice(["dagger", "geometric"]))
@click.argument("out", type=click.Path())
@click.option("--d", type=float, default=None,
              help="Deletion probability (required for dagger).")
@click.option("--l-max", type=int, default=DEFAULT_L_MAX, show_default=True)
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
    try:
        write_distribution(out, dist, comment=label)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)
    click.echo(f"wrote {label} to {out}", err=True)


@main.command("stats")
@click.option("--source", default="bernoulli", show_default=True,
              help="bernoulli | markov:<p> | dagger:<d> | renewal:<file>.")
@click.option("--n", type=int, default=1_000_000, show_default=True,
              help="Bits to sample.")
@click.option("--d", type=float, default=None,
              help="If set, report statistics of the channel output.")
@click.option("--l-cap", type=click.IntRange(min=1), default=64, show_default=True)
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
    click.echo(stats_to_json(stats, indent=2))


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_suite(suite, samples=samples, out_bits=out_bits, seed=seed)
    for w in caught:
        click.echo(f"warning: {w.message}", err=True)

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
