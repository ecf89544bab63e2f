"""Set-up probe: one fresh interpreter imports delchan and builds what the
workloads need (the series constants and the source laws), then exits.

Usage: python3 bench/setup_probe.py SRC_DIR [--trace]

The benchmark times the whole process from outside for ``setup_s``.  The
probe prints one JSON line with its own import and build times and, with
``--trace``, the span table of the build step.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import delchan  # noqa: E402  (the import is what is being timed)
import delchan.cli  # noqa: E402,F401

t1 = time.perf_counter()
tracer = None
if "--trace" in sys.argv[2:]:
    from spans import Tracer  # noqa: E402  (bench/spans.py, the script's directory)

    tracer = Tracer()
    tracer.install()
    tracer.active = True

consts = delchan.constants.compute_constants(delchan.constants.DEFAULT_TOL)
specs = [
    delchan.sources.SourceSpec.dagger(0.05),
    delchan.sources.SourceSpec.dagger(0.10),
    delchan.sources.SourceSpec.markov(0.56),
    delchan.sources.SourceSpec.bernoulli_half(),
]
targets = [delchan.constants.capacity_estimate(d) for d in (0.05, 0.10)]
t2 = time.perf_counter()

doc = {"import_s": t1 - t0, "build_s": t2 - t1, "A1": consts.A1}
if tracer is not None:
    from spans import summarize  # noqa: E402

    tracer.active = False
    doc["spans"] = summarize(tracer.arrays())
print(json.dumps(doc))
