"""The benchmark's workloads: what one op runs, and the gate it must pass.

Every workload is a closed loop: one client in one process calls the op,
waits for its result, checks it, and only then starts the next op.  Op
inputs are fixed here; only the op seed changes from op to op.

``run`` is the timed part of an op.  ``check`` turns its raw result into
an ``Outcome``: the canonical text compared bit for bit between runs, the
correctness verdict, and the work counts behind the throughput metrics.
The module attributes of ``delchan`` are looked up at call time, so a
traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass

import delchan.cli
import delchan.constants
import delchan.estimation
import delchan.likelihood
import delchan.sources
import delchan.verify

# Gates on Monte Carlo rates: |rate - capacity_estimate(d)| must not exceed
# BIAS + SIGMAS * std_err of the op.  BIAS allows for the offset of the
# source's rate from the series capacity at the op's block length (h_cond
# at finite n sits below its limit); over about 30 ops each, the mean
# offset was 0.0019 at n = 2000 and 0.0149 at n = 200, rounded up here.
# SIGMAS is wide because a std_err from 20-50 replicas is itself noisy.
LONGBLOCK_BIAS = 0.005
STREAM_BIAS = 0.02
SIGMAS = 8.0


@dataclass
class Outcome:
    text: str
    passed: bool
    problem: str = ""
    replicas: int = 0
    out_bits: int = 0
    std_err: "float | None" = None


def _rate_gate(doc: dict, target: float, bias: float) -> str:
    err = abs(doc["rate"] - target)
    tol = bias + SIGMAS * doc["std_err"]
    if not err <= tol:
        return f"rate {doc['rate']!r} is {err:.4g} from {target!r} (tol {tol:.4g})"
    return ""


class MCLongBlock:
    """``delchan rate --d 0.05 --source dagger --n 2000`` through the CLI."""

    name = "mc-longblock"
    D, N, SAMPLES, OUT_BITS = 0.05, 2000, 50, 2_000_000

    def __init__(self) -> None:
        self.spec = delchan.sources.SourceSpec.dagger(self.D)
        self.target = delchan.constants.capacity_estimate(self.D)

    def args(self, seed: int, threads: int = 1, n: int = N,
             samples: int = SAMPLES, out_bits: int = OUT_BITS) -> list[str]:
        return ["rate", "--d", repr(self.D), "--source", "dagger",
                "--n", str(n), "--samples", str(samples),
                "--out-bits", str(out_bits), "--seed", str(seed),
                "--threads", str(threads)]

    def rate_cmd(self, args: list[str]) -> str:
        """Run the ``rate`` command in-process; return its stdout."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            delchan.cli.main.main(args=args, prog_name="delchan",
                                  standalone_mode=False)
        return buf.getvalue()

    def warm(self) -> None:
        self.rate_cmd(self.args(1, samples=2))

    def run(self, seed: int, index: int) -> str:
        return self.rate_cmd(self.args(seed))

    def text(self, raw: str) -> str:
        return raw

    def check(self, seed: int, index: int, raw: str) -> Outcome:
        ref = delchan.estimation.estimate_rate(
            self.spec, self.D, n=self.N, samples=self.SAMPLES,
            out_bits=self.OUT_BITS, seed=seed,
        ).to_json() + "\n"
        doc = json.loads(raw)
        problem = ""
        if raw != ref:
            problem = "rate stdout differs from estimate_rate(...).to_json()"
        else:
            problem = _rate_gate(doc, self.target, LONGBLOCK_BIAS)
        return Outcome(raw, not problem, problem, self.SAMPLES,
                       self.OUT_BITS, doc["std_err"])


class MCStream:
    """``estimate_rate`` at d = 0.10, short blocks, long output stream."""

    name = "mc-stream"
    D, N, SAMPLES, OUT_BITS = 0.10, 200, 20, 20_000_000

    def __init__(self) -> None:
        self.specs = (delchan.sources.SourceSpec.dagger(self.D),
                      delchan.sources.SourceSpec.markov(0.56))
        self.target = delchan.constants.capacity_estimate(self.D)

    def _rate(self, spec, seed: int, n: int, samples: int, out_bits: int):
        return delchan.estimation.estimate_rate(
            spec, self.D, n=n, samples=samples, out_bits=out_bits, seed=seed)

    def warm(self) -> None:
        for spec in self.specs:
            self._rate(spec, 1, self.N, 2, self.OUT_BITS)

    def run(self, seed: int, index: int):
        # ops alternate the renewal sampler and the Markov (cumsum) sampler
        return self._rate(self.specs[index % 2], seed, self.N, self.SAMPLES,
                          self.OUT_BITS)

    def text(self, raw) -> str:
        return raw.to_json()

    def check(self, seed: int, index: int, raw) -> Outcome:
        text = self.text(raw)
        doc = json.loads(text)
        if index % 2 == 0:
            problem = ("" if doc["mode"] == "exact-renewal"
                       else f"dagger op reports mode {doc['mode']!r}")
            problem = problem or _rate_gate(doc, self.target, STREAM_BIAS)
        else:
            problem = ("" if doc["mode"] == "upper-bound"
                       else f"markov op reports mode {doc['mode']!r}")
        return Outcome(text, not problem, problem, self.SAMPLES,
                       self.OUT_BITS, doc["std_err"])


class TinyBlock:
    """n = 10 Monte Carlo oracle check plus the n = 12 exact enumeration."""

    name = "tiny-block"
    SAMPLES, OUT_BITS = 20_000, 200_000

    def __init__(self) -> None:
        self.spec = delchan.sources.SourceSpec.dagger(0.05)
        self.info_text: "str | None" = None

    def warm(self) -> None:
        delchan.verify.check_small_block_oracle(samples=20, out_bits=self.OUT_BITS,
                                                seed=1)
        delchan.likelihood.exact_block_information(self.spec, 6, 0.05)

    def run(self, seed: int, index: int):
        checks = delchan.verify.check_small_block_oracle(
            samples=self.SAMPLES, out_bits=self.OUT_BITS, seed=seed)
        info = delchan.likelihood.exact_block_information(self.spec, 12, 0.05)
        return checks, info

    def text(self, raw) -> str:
        checks, info = raw
        return json.dumps([c.as_dict() for c in checks] + [info._asdict()])

    def check(self, seed: int, index: int, raw) -> Outcome:
        checks, info = raw
        info_text = json.dumps(info._asdict())
        failed = [c.name for c in checks if not c.passed]
        problem = f"checks failed: {failed}" if failed else ""
        if not problem and not (
            0.0 <= info.H_Y_given_X <= info.H_Y and 0.0 < info.I_n_per_bit < 1.0
        ):
            problem = f"exact block information out of range: {info_text}"
        if not problem and self.info_text not in (None, info_text):
            problem = "exact block information differs between ops"
        self.info_text = self.info_text or info_text
        # the rate pin is |rate - exact| <= 4 * std_err of the estimate
        std_err = checks[1].tol / 4.0
        return Outcome(self.text(raw), not problem, problem, 2 * self.SAMPLES,
                       self.OUT_BITS, std_err)


class VerifyDP:
    """``verify.check_dp_oracle``: brute force, tiny DPs and normalization."""

    name = "verify-dp"

    def warm(self) -> None:
        delchan.likelihood.embedding_count([0, 1, 1], [1])
        delchan.likelihood.total_probability([0, 1, 1, 0], 0.1)

    def run(self, seed: int, index: int):
        return delchan.verify.check_dp_oracle(seed=seed)

    def text(self, raw) -> str:
        return json.dumps([c.as_dict() for c in raw])

    def check(self, seed: int, index: int, raw) -> Outcome:
        failed = [c.name for c in raw if not c.passed]
        problem = f"checks failed: {failed}" if failed else ""
        return Outcome(self.text(raw), not problem, problem)


WORKLOADS = {w.name: w for w in (MCLongBlock, MCStream, TinyBlock, VerifyDP)}
