"""One workload run in a fresh interpreter, as every exczero invocation is.

    python3 bench/worker.py <workload> [--trace] [--dump]

Run from the root of the repository.  Imports the whole package first and
times that import as ``setup_s``, so that import cost stays out of
``wall_s``, then runs the workload, checks it against ``expected.json`` and
prints one JSON line: import time, wall time, peak memory, checks, per-case
times, a digest of the outputs and, with ``--trace``, the per-layer
metrics.  ``--dump`` adds the outputs themselves, which is how
``expected.json`` was recorded.
"""

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

t_import = perf_counter()
import exczero.cli  # noqa: E402,F401 - loads every layer before timing
setup_s = perf_counter() - t_import

import spans  # noqa: E402
from exczero.suite import ALL_CRITERIA  # noqa: E402
from workloads import WORKLOADS, Run, check_pinned  # noqa: E402


def main():
    name = sys.argv[1]
    traced = "--trace" in sys.argv[2:]
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh).get(name, {})
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)

    run = Run()
    t0 = perf_counter()
    WORKLOADS[name](run)
    check_pinned(run, expected)
    wall_s = perf_counter() - t0

    outputs = json.dumps(run.outputs, sort_keys=True)
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": run.attempted,
        "failures": run.failures,
        "case_s": run.case_s,
        "criteria_s": {f"suite.{c}_s": run.case_s.get(c, 0.0)
                       for c, _ in ALL_CRITERIA},
        "digest": hashlib.sha256(outputs.encode()).hexdigest(),
    }
    if "--dump" in sys.argv[2:]:
        report["outputs"] = run.outputs
    if tracer is not None:
        report["layers"] = spans.layer_metrics(tracer)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
