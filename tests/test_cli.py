"""Tests for the command-line interface.

Commands are exercised through click's ``CliRunner`` (in-process) so
exit codes, stdout/stderr separation, and file I/O are all observable.
"""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import delchan
from delchan.cli import (
    DEFAULT_D_GRID,
    BoundsTable,
    main,
    run_table,
    table_rows,
)
from delchan.constants import capacity_estimate, compute_constants
from delchan.estimation import estimate_rate
from delchan.sources import SourceSpec, read_distribution, dagger_distribution

# several commands run deliberately tiny Monte Carlo budgets
pytestmark = pytest.mark.filterwarnings(
    "ignore:underpowered output-entropy estimate"
)


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def run_module(*args):
    """Run ``python -m delchan ARGS`` in a fresh interpreter."""
    src = str(Path(delchan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "delchan", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_dash_m_runs_the_cli():
    result = run_module("--help")
    assert result.returncode == 0
    assert result.stdout.startswith("Usage: delchan ")
    assert "rate" in result.stdout and "verify" in result.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["constants", "--tol", "0"],
        ["constants", "--tol", "-1"],
        ["verify", "dp", "--seed", "-1"],
        ["verify", "rates", "--samples", "1"],
        ["stats", "--n", "1000", "--seed", "-1"],
        ["stats", "--n", "1000", "--l-cap", "0"],
        ["rate", "--d", "0.1", "--seed", "-1"],
        ["rate", "--d", "0.1", "--out-bits", "0"],
        ["verify", "rates", "--out-bits", "0"],
        ["verify", "rates", "--out-bits", "-5"],
        ["dist", "geometric", "unused.tsv", "--l-max", "0"],
        ["rate", "--d", "0.1", "--threads", "0"],
        ["rate", "--d", "0.1", "--n", "0"],
        ["plot-data", "--points", "1"],
    ],
    ids=" ".join,
)
def test_out_of_range_option_is_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert "Invalid value for" in result.output


#: Every size and seed option, which must be a click range.
INT_RANGE_OPTIONS = {
    "--n", "--samples", "--out-bits", "--seed", "--points", "--l-max", "--l-cap",
}


def test_every_size_and_seed_option_is_an_int_range():
    seen = set()
    for name, command in main.commands.items():
        for param in command.params:
            for opt in INT_RANGE_OPTIONS.intersection(param.opts):
                seen.add(opt)
                assert isinstance(param.type, click.IntRange), f"{name} {opt}"
    assert seen == INT_RANGE_OPTIONS


class TestBoundsTable:
    def test_bundled_values(self):
        table = BoundsTable.bundled()
        assert len(table.rows) == 10
        assert table.rows[0] == (0.05, 0.7283, 0.8160)
        assert table.rows[7] == (0.40, 0.1484, 0.2750)

    def test_invariants_enforced_at_construction(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BoundsTable(rows=((0.1, 0.5, 0.6), (0.1, 0.4, 0.5)))
        with pytest.raises(ValueError, match="lower <= upper"):
            BoundsTable(rows=((0.1, 0.7, 0.6),))

    @pytest.mark.parametrize(
        "rows",
        [
            ((0.1, 0.5, 0.6), (0.1, 0.4, 0.5)),
            ((0.2, 0.3, 0.4), (0.1, 0.4, 0.5)),
            ((0.1, 0.7, 0.6),),
            ((0.1, 0.5, 0.6), (0.2, -0.1, 0.5)),
            ((0.1, 0.5, 1.5),),
            ((0.05, 0.7, 0.8), (1.5, 0.1, 0.2)),
            ((-0.1, 0.1, 0.2),),
            ((math.nan, 0.1, 0.2),),
        ],
    )
    def test_constructor_and_parse_reject_the_same_rows(self, tmp_path, rows):
        f = tmp_path / "rows.csv"
        f.write_text("d,lower,upper\n" + "".join(
            f"{d!r},{lower!r},{upper!r}\n" for d, lower, upper in rows))
        with pytest.raises(ValueError) as built:
            BoundsTable(rows=rows)
        with pytest.raises(ValueError) as parsed:
            BoundsTable.parse(f)
        assert str(parsed.value) == f"{f}: line {len(rows) + 1}: {built.value}"

    def test_parse_reports_line_numbers(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("d,lower,upper\n0.05,0.7,0.8\n0.10,oops,0.7\n")
        with pytest.raises(ValueError, match="line 3"):
            BoundsTable.parse(bad)

    def test_parse_rejects_wrong_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n")
        with pytest.raises(ValueError, match="line 1.*header"):
            BoundsTable.parse(bad)

    def test_parse_rejects_wrong_field_count(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("d,lower,upper\n0.05,0.7\n")
        with pytest.raises(ValueError, match="line 2"):
            BoundsTable.parse(bad)

    def test_parse_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert BoundsTable.parse(empty).rows == ()

    def test_parse_header_only_is_empty(self, tmp_path):
        f = tmp_path / "header.csv"
        f.write_text("d,lower,upper\n")
        assert BoundsTable.parse(f).rows == ()

    def test_parse_skips_blank_and_comment_lines(self, tmp_path):
        plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
        plain.write_text("d,lower,upper\n0.05,0.7,0.8\n0.10,0.6,0.7\n")
        noted.write_text(
            "# bounds\n\nd,lower,upper\n  \n0.05,0.7,0.8\n"
            "  # between rows\n\n0.10,0.6,0.7\n# end\n"
        )
        assert BoundsTable.parse(noted) == BoundsTable.parse(plain)
        assert BoundsTable.parse(noted).rows == ((0.05, 0.7, 0.8), (0.10, 0.6, 0.7))


class TestConstantsCommand:
    def test_csv_values_parse_back_exactly(self, runner):
        result = invoke(runner, "constants")
        rows = list(csv.DictReader(io.StringIO(result.stdout)))
        got = {row["name"]: float(row["value"]) for row in rows}
        want = dataclasses.asdict(compute_constants())
        assert got == want and list(got) == list(want)

    def test_json_values_parse_back_exactly(self, runner):
        result = invoke(runner, "constants", "--format", "json")
        assert json.loads(result.stdout) == dataclasses.asdict(compute_constants())


class TestTableCommand:
    def test_default_first_row_pins(self, runner):
        result = invoke(runner, "table")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "d,lower,C_est,upper"
        d, lower, c_est, upper = (float(v) for v in lines[1].split(","))
        assert (d, lower, upper) == (0.05, 0.7283, 0.8160)
        assert abs(c_est - 0.7304) <= 5e-5

    def test_crossover_not_clamped(self, runner):
        result = invoke(runner, "table", "--format", "json")
        rows = json.loads(result.output)
        by_d = {row["d"]: row for row in rows}
        # the estimate legitimately exceeds the published upper bound
        # from d = 0.40 on, and is reported unclamped
        assert abs(by_d[0.40]["C_est"] - 0.2781) <= 5e-5
        assert by_d[0.40]["C_est"] > by_d[0.40]["upper"] == 0.2750
        for d in (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35):
            assert by_d[d]["C_est"] <= by_d[d]["upper"]
        for d in (0.40, 0.45, 0.50):
            assert by_d[d]["C_est"] > by_d[d]["upper"]

    def test_all_printed_estimates_match(self, runner):
        printed = {
            0.05: 0.7304, 0.10: 0.5692, 0.15: 0.4541, 0.20: 0.3719,
            0.25: 0.3163, 0.30: 0.2837, 0.35: 0.2715, 0.40: 0.2781,
            0.45: 0.3020, 0.50: 0.3425,
        }
        rows = json.loads(invoke(runner, "table", "--format", "json").output)
        for row in rows:
            assert abs(row["C_est"] - printed[row["d"]]) <= 5e-5

    def test_empty_bounds_file_degrades_to_estimate_only(self, runner, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = invoke(runner, "table", "--bounds-file", str(empty))
        lines = result.output.strip().splitlines()
        assert lines[0] == "d,C_est"
        assert len(lines) == 1 + len(DEFAULT_D_GRID)
        assert float(lines[1].split(",")[0]) == DEFAULT_D_GRID[0]

    def test_malformed_file_exits_3_with_line_number(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("d,lower,upper\nnot,a,row\n")
        result = runner.invoke(main, ["table", "--bounds-file", str(bad)])
        assert result.exit_code == 3
        assert "line 2" in result.stderr
        assert result.stdout == ""

    def test_missing_file_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main, ["table", "--bounds-file", str(tmp_path / "nope.csv")]
        )
        assert result.exit_code == 3

    def test_csv_round_trips_bit_exactly(self, runner):
        text = invoke(runner, "table").output
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            rows.append(
                {col: (None if cell == "" else float(cell))
                 for col, cell in zip(header, cells)}
            )
        re_emitted = ",".join(header) + "\n" + "\n".join(
            ",".join("" if row[c] is None else repr(row[c]) for c in header)
            for row in rows
        ) + "\n"
        assert re_emitted == text

    def test_run_table_function_json(self):
        rows = json.loads(run_table(None, "json"))
        assert len(rows) == 10
        assert rows[0]["lower"] == 0.7283

    def test_table_rows_matches_capacity_estimate(self):
        rows = table_rows(BoundsTable.bundled())
        for row in rows:
            assert row["C_est"] == capacity_estimate(row["d"])


class TestPlotDataCommand:
    def test_grid_includes_bound_rows(self, runner):
        result = invoke(runner, "plot-data")
        lines = result.output.strip().splitlines()
        assert lines[0] == "d,lower,C_est,upper"
        rows = {float(l.split(",")[0]): l.split(",") for l in lines[1:]}
        assert 0.05 in rows and rows[0.05][1] == "0.7283"
        # off-table grid points carry nan bounds
        assert math.isnan(float(rows[0.015][1]))

    def test_out_and_gnuplot_script(self, runner, tmp_path):
        csv = tmp_path / "fig.csv"
        script = tmp_path / "fig.gp"
        result = invoke(
            runner, "plot-data", "--out", str(csv),
            "--gnuplot-script", str(script),
        )
        assert result.exit_code == 0
        assert result.stdout == ""
        assert csv.read_text().startswith("d,lower,C_est,upper\n")
        body = script.read_text()
        assert str(csv) in body and "plot" in body

    def test_gnuplot_without_out_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["plot-data", "--gnuplot-script", str(tmp_path / "x.gp")]
        )
        assert result.exit_code == 2

    def test_points_validated(self, runner):
        assert runner.invoke(main, ["plot-data", "--points", "1"]).exit_code == 2

    def test_bounds_row_outside_the_estimate_range_exits_3(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("d,lower,upper\n0.05,0.7,0.8\n1.5,0.1,0.2\n")
        result = runner.invoke(main, ["plot-data", "--bounds-file", str(bad)])
        assert result.exit_code == 3
        assert "line 3: d must satisfy 0 <= d < 1" in result.stderr
        assert result.stdout == ""

    def test_unwritable_out_exits_3(self, runner, tmp_path):
        out = tmp_path / "missing" / "f.csv"
        result = runner.invoke(main, ["plot-data", "--out", str(out)])
        assert result.exit_code == 3
        assert "error: " in result.output
        assert "Traceback" not in result.output


class TestRateCommand:
    def test_json_output_schema(self, runner):
        result = invoke(
            runner, "rate", "--d", "0.1", "--n", "60", "--samples", "20",
            "--out-bits", "30000",
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert list(doc) == ["rate", "h_out", "h_cond", "std_err", "n",
                             "samples", "d", "seed", "mode"]
        assert doc["mode"] == "exact-renewal"
        assert doc["seed"] == 0xDC0DE

    def test_csv_output_round_trips(self, runner):
        args = ["rate", "--d", "0.1", "--n", "60", "--samples", "20",
                "--out-bits", "30000"]
        doc = json.loads(invoke(runner, *args).stdout)
        lines = invoke(runner, *args, "--format", "csv").stdout.strip().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        assert header == list(doc)
        parsed = dict(zip(header, row))
        assert float(parsed["rate"]) == doc["rate"]
        assert int(parsed["n"]) == doc["n"]
        assert parsed["mode"] == doc["mode"]

    def test_markov_source_is_upper_bound(self, runner):
        result = invoke(
            runner, "rate", "--d", "0.1", "--source", "markov:0.55",
            "--n", "60", "--samples", "10", "--out-bits", "30000",
        )
        assert json.loads(result.stdout)["mode"] == "upper-bound"

    def test_dagger_source_uses_channel_d(self, runner):
        result = invoke(
            runner, "rate", "--d", "0.1", "--source", "dagger",
            "--n", "60", "--samples", "10", "--out-bits", "30000",
        )
        assert result.exit_code == 0

    @pytest.mark.parametrize("d", ["1.05", "nan", "-0.1"])
    def test_dagger_parameter_outside_closed_rule_is_usage_error(self, runner, d):
        result = runner.invoke(
            main, ["rate", "--d", "0.05", "--source", f"dagger:{d}"]
        )
        assert result.exit_code == 2, result.output
        assert "deletion probability must be in [0, 1]" in result.output

    @pytest.mark.parametrize("d", ["1.5", "nan", "-0.1"])
    def test_dagger_without_usable_channel_d_is_usage_error(self, runner, d):
        # plain ``dagger`` takes its parameter from --d, checked before the run
        result = runner.invoke(main, ["rate", f"--d={d}", "--source", "dagger"])
        assert result.exit_code == 2, result.output
        assert "dagger needs a usable deletion probability" in result.output
        assert "pass dagger:<d> to pin one explicitly" in result.output

    def test_unknown_source_is_usage_error(self, runner):
        result = runner.invoke(main, ["rate", "--d", "0.1", "--source", "wat"])
        assert result.exit_code == 2

    def test_renewal_missing_file_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["rate", "--d", "0.1", "--source",
             f"renewal:{tmp_path / 'none.tsv'}"],
        )
        assert result.exit_code == 3

    def test_fewer_interior_runs_than_bootstrap_blocks(self, runner, tmp_path):
        law = tmp_path / "pm300.tsv"
        law.write_text("1\t0.0\n300\t1.0\n")
        result = invoke(
            runner, "rate", "--d", "0.01", "--source", f"renewal:{law}",
            "--n", "20", "--samples", "2", "--out-bits", "1",
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        fields = ("rate", "h_out", "h_cond", "std_err")
        assert all(math.isfinite(doc[k]) for k in fields)
        assert result.stderr.startswith("warning: ") and "longer than" in result.stderr

    def test_no_capped_interior_run_prints_positive_zero(self, runner, tmp_path):
        # every output run is longer than the cap: the plug-in entropy sums
        # nothing, which is +0.0, not -0.0
        law = tmp_path / "pm300.tsv"
        law.write_text("1\t0\n300\t1\n")
        result = invoke(
            runner, "rate", "--d", "0.01", "--source", f"renewal:{law}",
            "--n", "20", "--samples", "2", "--out-bits", "1",
        )
        assert result.exit_code == 0
        assert '"h_out": 0.0,' in result.stdout
        assert math.copysign(1.0, json.loads(result.stdout)["h_out"]) == 1.0

    def test_bad_sample_budget_is_usage_error(self, runner):
        result = runner.invoke(main, ["rate", "--d", "0.1", "--samples", "1"])
        assert result.exit_code == 2

    def test_warnings_print_as_messages(self):
        # an underpowered output stream warns; stderr carries the message
        # alone, not Python's warning location and source line
        args = ["--d", "0.3", "--source", "dagger", "--n", "50",
                "--samples", "4", "--out-bits", "2000"]
        expected = estimate_rate(
            SourceSpec.dagger(0.3), 0.3, n=50, samples=4, out_bits=2000,
            seed=0xDC0DE,
        ).to_json()
        for threads in ("1", "2"):
            result = run_module("rate", *args, "--threads", threads)
            assert result.returncode == 0
            lines = result.stderr.splitlines()
            assert lines and all(line.startswith("warning: ") for line in lines)
            assert "underpowered output-entropy estimate" in result.stderr
            assert "estimate_rate(" not in result.stderr
            assert "UserWarning" not in result.stderr
            assert result.stdout == expected + "\n"

    def test_deterministic_for_fixed_seed(self, runner):
        args = ["rate", "--d", "0.1", "--n", "60", "--samples", "20",
                "--out-bits", "30000", "--seed", "7"]
        assert invoke(runner, *args).stdout == invoke(runner, *args).stdout


class TestDistCommand:
    def test_dagger_file_round_trips(self, runner, tmp_path):
        out = tmp_path / "law.tsv"
        result = invoke(runner, "dist", "dagger", str(out), "--d", "0.05")
        assert result.exit_code == 0
        assert result.stdout == ""  # progress note goes to stderr
        dist = read_distribution(out)
        expected = dagger_distribution(0.05)
        assert dist.probs.tolist() == expected.probs.tolist()

    def test_geometric_file(self, runner, tmp_path):
        out = tmp_path / "geo.tsv"
        invoke(runner, "dist", "geometric", str(out), "--l-max", "8")
        dist = read_distribution(out)
        assert dist.L_max == 8

    def test_dagger_requires_d(self, runner, tmp_path):
        result = runner.invoke(main, ["dist", "dagger", str(tmp_path / "x.tsv")])
        assert result.exit_code == 2

    def test_dagger_domain_error_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["dist", "dagger", str(tmp_path / "x.tsv"), "--d", "-0.1"]
        )
        assert result.exit_code == 2

    def test_unwritable_out_exits_3(self, runner, tmp_path):
        out = tmp_path / "missing" / "f.tsv"
        result = runner.invoke(main, ["dist", "geometric", str(out)])
        assert result.exit_code == 3
        assert "error: " in result.output
        assert "Traceback" not in result.output


class TestStatsCommand:
    def test_source_statistics_schema(self, runner):
        result = invoke(runner, "stats", "--n", "100000", "--seed", "3")
        doc = json.loads(result.stdout)
        assert list(doc) == ["pmf", "mu", "H_L", "D", "n_runs"]
        assert abs(doc["mu"] - 2.0) < 0.05

    def test_channel_output_statistics(self, runner):
        # on a long-run source, deletions shorten runs on average
        # (uniform input would be invariant: its output stays uniform)
        args = ["stats", "--source", "markov:0.8", "--n", "100000"]
        plain = json.loads(invoke(runner, *args).stdout)
        through = json.loads(invoke(runner, *args, "--d", "0.3").stdout)
        assert through["mu"] < plain["mu"] - 0.5

    @pytest.mark.parametrize("bad", [["--d", "1.5"], ["--d", "-0.1"], ["--n", "-5"]])
    def test_bad_input_is_usage_error(self, runner, bad):
        # a domain error from sampling or the channel is a usage error
        result = invoke(runner, "stats", "--n", "1000", *bad)
        assert result.exit_code == 2
        assert "Traceback" not in result.output
        assert "Error:" in result.output

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_few_runs_is_usage_error(self, runner, n):
        result = runner.invoke(main, ["stats", "--n", n])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert "Error: too few runs" in result.output


class TestVerifyCommand:
    def test_constants_suite_passes(self, runner):
        result = invoke(runner, "verify", "constants")
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["suite"] == "constants"
        assert report["passed"] is True
        assert all(c["passed"] for c in report["checks"])

    def test_formulas_suite_fails_on_inconsistent_printed_gap(self, runner):
        result = runner.invoke(main, ["verify", "formulas"])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        failed = [c for c in report["checks"] if not c["passed"]]
        assert len(failed) == 1
        assert "A2 - A2' + c4" in failed[0]["name"]
        assert abs(failed[0]["value"] - 0.7902) < 1e-3

    def test_lemmas_suite_passes(self, runner):
        result = invoke(runner, "verify", "lemmas")
        assert result.exit_code == 0
        assert json.loads(result.stdout)["passed"] is True

    def test_rates_tiny_budget_underpowered_exit_zero(self, runner):
        result = invoke(
            runner, "verify", "rates", "--samples", "10",
            "--out-bits", "20000",
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["underpowered"] is True
        assert "underpowered" in result.stderr

    def test_unknown_suite_is_usage_error(self, runner):
        assert runner.invoke(main, ["verify", "nosuch"]).exit_code == 2

    def test_stdout_is_machine_readable(self, runner):
        result = invoke(runner, "verify", "constants")
        json.loads(result.stdout)  # raises on any stray diagnostics
