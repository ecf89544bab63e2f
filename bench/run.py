"""delchan benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, in turn

NAME is one of mc-longblock, mc-stream, tiny-block, verify-dp (see
bench/README.md).  The package is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics: it times fresh set-up
interpreters, then runs ops for S seconds (one client, threads = 1, the
next op only after the previous one is checked), timing the reference work
of ``bench/reference.py`` around each op.  ``--trace 1`` runs the
ops for S/2 seconds untraced, re-runs the same op seeds with spans around
every public ``delchan`` function, checks that both give bit-identical
results, runs one ``mc-longblock`` op at threads 1 and 2, and reports the
per-layer metrics.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(provenance, every op, every span table) goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DEFAULT_SEED = 0xDC0DE
WORKLOAD_NAMES = ("mc-longblock", "mc-stream", "tiny-block", "verify-dp")
SETUP_REPEATS = 5

# Gated metrics, reported on every workload (BENCHMARK.json lists the same).
END_TO_END = {
    "setup_s": "s",
    "op_p50_norm_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, not gated: raw op times drift with the machine's
# speed (op_p50_norm_s corrects for that), the throughputs exist only on
# some workloads, and a run of fewer than 20 ops has no percentile above
# the median with 10 ops beyond it, so op_tail_s is its slowest op.
UNGATED = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ref_p50_s": "s",
    "replicas_per_s": "1/s",
    "out_bits_per_s": "1/s",
    "s_to_se_1e-3": "s",
    "fail_frac": "ratio",
}
PER_LAYER = {
    "likelihood.embedding_count.calls": "count/op",
    "likelihood.embedding_count.self_s": "s/op",
    "likelihood.embedding_count.band_cells": "count/op",
    "likelihood.embedding_count.ns_per_band_cell": "ns",
    "likelihood.embedding_count.op_share": "ratio",
    "estimation.estimate_h_cond.self_s": "s/op",
    "estimation.estimate_h_cond.replicas": "count/op",
    "estimation.estimate_h_cond.overhead_us_per_replica": "us",
    "sources.sample_sequence.calls": "count/op",
    "sources.sample_sequence.self_s": "s/op",
    "sources.sample_sequence.ns_per_bit": "ns",
    "channel.transmit.self_s": "s/op",
    "channel.transmit.ns_per_bit": "ns",
    "channel.run_lengths.self_s": "s/op",
    "estimation.estimate_rate.self_s": "s/op",
    "likelihood.exact_block_information.calls": "count/op",
    "likelihood.exact_block_information.self_s": "s/op",
    "likelihood.total_probability.calls": "count/op",
    "likelihood.total_probability.self_s": "s/op",
    "verify.check_dp_oracle.self_s": "s/op",
    "constants.compute_constants.calls": "count/op",
    "constants.compute_constants.self_s": "s/op",
    "sources.dagger_distribution.self_s": "s/op",
    "cli.rate_cmd.self_s": "s/op",
    "setup.import_s": "s",
    "setup.constants.compute_constants.calls": "count",
    "setup.constants.compute_constants.self_s": "s",
    "setup.sources.dagger_distribution.self_s": "s",
    "estimation.threads2_speedup": "ratio",
    "estimation.warnings": "count/op",
    "trace.op_p50_s": "s",
    "trace.overhead_frac": "ratio",
}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it.

    In a run of fewer than 20 ops that percentile would not lie above the
    median, so the slowest op (the 100th percentile) is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def provenance(seed: int) -> dict:
    import numpy

    import delchan

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from searching above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "delchan": delchan.__version__,
        "commit": commit,
    }


def run_probe(trace: bool = False) -> tuple[float, dict]:
    """Wall time of one fresh set-up interpreter, and its JSON report."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    wall = time.perf_counter() - t0
    return wall, json.loads(proc.stdout.splitlines()[-1])


def measure_setup() -> tuple[float, list[float]]:
    run_probe()  # compiles bytecode caches and warms the file cache
    walls = [run_probe()[0] for _ in range(SETUP_REPEATS)]
    return statistics.median(walls), walls


def warm(workload) -> None:
    """Untimed full-size work just before the timed ops, so that the first
    timed op does not pay for first-touch allocation."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        workload.warm()


def timed_op(workload, seed: int, index: int) -> tuple[object, float, int]:
    """Run one op; return its raw result, seconds, and warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        raw = workload.run(seed, index)
        dt = time.perf_counter() - t0
    n_warn = sum("underpowered" in str(w.message) for w in caught)
    return raw, dt, n_warn


def run_ops(workload, seeds, seconds: float, log) -> list[dict]:
    """Closed loop: run, time and check ops until ``seconds`` have passed.

    ``seeds`` yields op seeds; the loop always finishes the op in flight.
    The reference work is timed just before and just after every op, one
    pass each side plus one per 2 s of the previous op, so that it samples
    the machine's speed over about 5% of the op time.
    """
    from reference import Reference

    reference = Reference()
    reference.seconds(1)  # untimed first pass
    passes = 1
    ops = []
    t_end = time.perf_counter() + seconds
    for index, seed in enumerate(seeds):
        rec = {"index": index, "seed": seed}
        try:
            before = reference.seconds(passes)
            raw, rec["seconds"], rec["warnings"] = timed_op(workload, seed, index)
            rec["ref_s"] = (before + reference.seconds(passes)) / 2.0
            passes = 1 + int(rec["seconds"] // 2.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                outcome = workload.check(seed, index, raw)
            rec.update(outcome.__dict__)
        except Exception:  # an op that raises counts as failed, not fatal
            rec.update(passed=False, problem=traceback.format_exc(limit=3))
        if not rec["passed"]:
            log(f"op {index} (seed {seed}) FAILED: {rec['problem']}")
        ops.append(rec)
        if time.perf_counter() >= t_end:
            break
    return ops


def op_seeds(seed: int):
    """Op seeds from ``SeedSequence(seed).spawn``, one child per op."""
    import numpy as np

    root = np.random.SeedSequence(seed).spawn(2)[0]
    while True:
        yield int(root.spawn(1)[0].generate_state(1)[0])


def side_seed(seed: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence(seed).spawn(2)[1].generate_state(1)[0])


def end_to_end(ops: list[dict], setup_s: float) -> tuple[dict, dict]:
    """(gated metrics, ungated metrics) of an untraced run."""
    from reference import NOMINAL_S

    timed = [op for op in ops if "seconds" in op]
    times = [op["seconds"] for op in timed]
    value, pct = tail(times)
    gated = {
        "setup_s": setup_s,
        "op_p50_norm_s": statistics.median(
            op["seconds"] / op["ref_s"] for op in timed) * NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    extra = {"op_p50_s": statistics.median(times), "op_tail_s": value,
             "op_tail_pct": pct, "ref_p50_s": statistics.median(
                 op["ref_s"] for op in timed), "ops": len(ops),
             "fail_frac": sum(not op["passed"] for op in ops) / len(ops)}
    done = [op for op in ops if op["passed"]]
    busy = sum(op["seconds"] for op in done)
    if done and done[0]["replicas"]:
        extra["replicas_per_s"] = sum(op["replicas"] for op in done) / busy
    if done and done[0]["out_bits"]:
        extra["out_bits_per_s"] = sum(op["out_bits"] for op in done) / busy
    if done and done[0]["std_err"] is not None:
        rms_se = statistics.fmean(op["std_err"] ** 2 for op in done) ** 0.5
        extra["s_to_se_1e-3"] = busy / len(done) * (rms_se / 1e-3) ** 2
    return gated, extra


def layer_metrics(table: dict, setup_table: dict, n_ops: int,
                  traced_op_s: float) -> dict:
    """Per-layer metrics from span tables (per op unless named setup.*)."""

    def get(name: str, key: str, source: dict = table) -> float:
        return source.get(name, {}).get(key, 0)

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    ec, hc = "likelihood.embedding_count", "estimation.estimate_h_cond"
    ss, tx = "sources.sample_sequence", "channel.transmit"
    m = {
        f"{ec}.calls": get(ec, "calls") / n_ops,
        f"{ec}.self_s": get(ec, "self_s") / n_ops,
        f"{ec}.band_cells": get(ec, "work") / n_ops,
        f"{ec}.ns_per_band_cell": ratio(get(ec, "self_s"), get(ec, "work"), 1e9),
        f"{ec}.op_share": ratio(get(ec, "self_s"), traced_op_s),
        f"{hc}.self_s": get(hc, "self_s") / n_ops,
        f"{hc}.replicas": get(hc, "work") / n_ops,
        f"{hc}.overhead_us_per_replica": ratio(get(hc, "self_s"), get(hc, "work"), 1e6),
        f"{ss}.calls": get(ss, "calls") / n_ops,
        f"{ss}.self_s": get(ss, "self_s") / n_ops,
        f"{ss}.ns_per_bit": ratio(get(ss, "self_s"), get(ss, "work"), 1e9),
        f"{tx}.self_s": get(tx, "self_s") / n_ops,
        f"{tx}.ns_per_bit": ratio(get(tx, "self_s"), get(tx, "work"), 1e9),
    }
    for name in ("channel.run_lengths", "estimation.estimate_rate",
                 "likelihood.exact_block_information",
                 "likelihood.total_probability", "verify.check_dp_oracle",
                 "constants.compute_constants", "sources.dagger_distribution",
                 "cli.rate_cmd"):
        m[f"{name}.calls"] = get(name, "calls") / n_ops
        m[f"{name}.self_s"] = get(name, "self_s") / n_ops
    for name in ("constants.compute_constants", "sources.dagger_distribution"):
        m[f"setup.{name}.calls"] = get(name, "calls", setup_table)
        m[f"setup.{name}.self_s"] = get(name, "self_s", setup_table)
    return m


def traced_run(workload, seed: int, seconds: float, log,
               record: dict) -> tuple[dict, list[dict]]:
    from spans import Tracer, summarize

    wall, probe = run_probe(trace=True)
    record["setup_probe"] = {"wall_s": wall, **probe}

    warm(workload)
    seeds = op_seeds(seed)
    plain = run_ops(workload, seeds, seconds / 2.0, log)
    tracer = Tracer()
    tracer.install()
    if hasattr(workload, "rate_cmd"):
        workload.rate_cmd = tracer.wrap("cli.rate_cmd", workload.rate_cmd)
    traced = []
    for op in plain:
        rec = {"index": op["index"], "passed": False}
        tracer.op_id = op["index"]
        tracer.active = True
        try:
            raw, rec["seconds"], rec["warnings"] = timed_op(
                workload, op["seed"], op["index"])
            rec["passed"] = workload.text(raw) == op.get("text")
        except Exception:  # counted as failed, like an untraced op
            log(traceback.format_exc(limit=3))
        finally:
            tracer.active = False
        if not rec["passed"]:
            log(f"op {op['index']}: traced result differs from untraced")
        traced.append(rec)
    tracer.uninstall()
    if hasattr(workload, "rate_cmd"):
        del workload.rate_cmd
    arrays = tracer.arrays()
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")

    # thread-count side run: one mc-longblock op at threads 1 and 2
    from workloads import MCLongBlock

    long = MCLongBlock()
    s = side_seed(seed)
    t0 = time.perf_counter()
    out1 = long.rate_cmd(long.args(s, threads=1))
    t1 = time.perf_counter()
    out2 = long.rate_cmd(long.args(s, threads=2))
    t2 = time.perf_counter()
    threads_same = out1 == out2
    if not threads_same:
        log("threads=2 JSON differs from threads=1")

    table = summarize(arrays)
    timed = [op for op in traced if "seconds" in op]
    traced_busy = sum(op["seconds"] for op in timed)
    plain_p50 = statistics.median(op["seconds"] for op in plain if "seconds" in op)
    traced_p50 = statistics.median(op["seconds"] for op in timed)
    metrics = layer_metrics(table, probe["spans"], len(timed), traced_busy)
    metrics.update({
        "setup.import_s": probe["import_s"],
        "estimation.threads2_speedup": (t1 - t0) / (t2 - t1),
        "estimation.warnings": sum(op["warnings"] for op in timed) / len(timed),
        "trace.op_p50_s": traced_p50,
        "trace.overhead_frac": traced_p50 / plain_p50 - 1.0,
    })
    record.update(untraced_ops=plain, traced_ops=traced, span_table=table,
                  threads={"t1_s": t1 - t0, "t2_s": t2 - t1,
                           "identical": threads_same})
    ops = plain + traced + [{"passed": threads_same}]
    return metrics, ops


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    def log(msg: str) -> None:
        print(msg, file=sys.stderr, flush=True)

    workload = WORKLOADS[name]()
    record = {"workload": name, "seconds": seconds, "trace": int(trace),
              "provenance": provenance(seed)}
    print("provenance", json.dumps(record["provenance"]))

    if trace:
        metrics, ops = traced_run(workload, seed, seconds, log, record)
        units = PER_LAYER
    else:
        setup_s, setup_walls = measure_setup()
        warm(workload)
        ops = run_ops(workload, op_seeds(seed), seconds, log)
        metrics, extra = end_to_end(ops, setup_s)
        record.update(ops=ops, setup_walls_s=setup_walls, workload_metrics=extra)
        units = END_TO_END
        print(f"ops {extra['ops']}, op_tail_s is p{extra['op_tail_pct']:.1f}")
        for key, value in extra.items():
            if key in UNGATED:
                print(f"{key:<16} {value:.6g} {UNGATED[key]}")

    metrics = {k: metrics[k] for k in units}
    for key, value in metrics.items():
        print(f"{key:<16} {value:.6g} {units[key]}")
    failed = sum(not op["passed"] for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result), flush=True)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "delchan" / "__init__.py").is_file():
        print(f"error: no delchan package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
