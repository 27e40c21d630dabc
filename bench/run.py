"""Benchmark of the exceptional-zero pipeline, run from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The load is a closed loop: one caller, one thread, one workload at a time.
Every workload run starts a fresh interpreter (``worker.py``), because every
``exczero`` invocation is a cold process; an in-process cache would
otherwise show a gain that users never see.

``--trace 0`` repeats the workload in fresh processes while another run fits
in ``--seconds`` (at least once) and reports medians over them of the
end-to-end metrics; ``setup_s`` is each process's own ``import exczero.cli``.
``--trace 1`` runs untraced/traced pairs of processes, alternating which of
the two goes first, while another pair fits in ``--seconds`` (at least one),
and reports the per-layer metrics as medians over them, with
``trace_overhead_ratio`` (the median of the pairs' traced over untraced
``wall_s``) so that traced times are never read as end-to-end ones.  The
metric names and units are those of ``BENCHMARK.json``.  The workloads are
fixed, so ``--seed`` does not change them (``suite`` runs at the Tier-1 seed,
see ``workloads.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
workload's fail ratio, which a line above it also prints.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("suite", "ezero", "local-exact")
DEADLINE_S = 170       # a run must end within 180 s
IMPORTTIME_REPEATS = 3


class Checkout:
    """Starts Python processes on the checkout's sources, within the run's
    deadline."""

    def __init__(self, root):
        self.root = root
        self.start = perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
        self.env = env

    def remaining(self):
        return DEADLINE_S - (perf_counter() - self.start)

    def python(self, *args):
        """Run ``python3 <args>`` to completion; raises on a non-zero exit
        or when the deadline passes (the child is killed and reaped)."""
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, check=True,
            timeout=max(self.remaining(), 1))

    def warm_up(self):
        """One untimed import, which writes the bytecode cache."""
        self.python("-c", "import exczero.cli")

    def import_layers(self):
        """``cli.import_s`` and ``cli.sympy_import_s`` from -X importtime."""
        cli, sympy = [], []
        for _ in range(IMPORTTIME_REPEATS):
            err = self.python("-X", "importtime", "-c",
                              "import exczero.cli").stderr
            cumulative = {}
            for line in err.splitlines():
                _, cum, name = (line.split("|") + ["", ""])[:3]
                if cum.strip().isdigit():   # skips the header line
                    cumulative.setdefault(name.strip(), int(cum) / 1e6)
            cli.append(cumulative["exczero.cli"])
            sympy.append(cumulative.get("sympy", 0.0))
        return {"cli.import_s": statistics.median(cli),
                "cli.sympy_import_s": statistics.median(sympy)}

    def worker(self, workload, traced=False):
        """One workload run in a fresh interpreter; None if it crashed or
        overran the deadline."""
        args = [os.path.join(HERE, "worker.py"), workload]
        if traced:
            args.append("--trace")
        try:
            out = self.python(*args).stdout
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"worker {workload} failed: {exc}\n"
                             f"{getattr(exc, 'stderr', '') or ''}")
            return None
        return json.loads(out.splitlines()[-1])


def tally(reports):
    """(attempted, failed, correct) over worker reports; a crashed worker
    counts as one failed check, and all runs must give the same outputs."""
    attempted = failed = 0
    for rep in reports:
        if rep is None:
            attempted += 1
            failed += 1
        else:
            attempted += rep["attempted"]
            failed += len(rep["failures"])
            for name in rep["failures"][:10]:
                sys.stderr.write(f"failed check: {name}\n")
    digests = {rep["digest"] for rep in reports if rep is not None}
    return attempted, failed, failed == 0 and len(digests) == 1


def repeat(run_once, seconds, remaining):
    """Call ``run_once`` (which returns a list of reports) while another call
    fits in ``seconds``, at least once; stops at a crashed worker or when the
    run's deadline comes near."""
    reports = []
    t_loop = perf_counter()
    while True:
        t_run = perf_counter()
        batch = run_once()
        reports.extend(batch)
        took = perf_counter() - t_run
        if (None in batch or perf_counter() - t_loop + took > seconds
                or remaining() < 2 * took):
            return reports


def median_of(reports, key):
    return statistics.median(key(r) for r in reports)


def end_to_end(checkout, workload, seconds):
    reports = repeat(lambda: [checkout.worker(workload)], seconds,
                     checkout.remaining)
    done = [rep for rep in reports if rep is not None]
    metrics = {}
    if done:
        metrics["setup_s"] = median_of(done, lambda r: r["setup_s"])
        metrics["wall_s"] = median_of(done, lambda r: r["wall_s"])
        metrics["peak_rss_mb"] = median_of(done, lambda r: r["peak_rss_mb"])
        metrics["slowest_case_s"] = median_of(
            done, lambda r: max(r["case_s"].values()))
        if "mellin_closed_form" in done[0]["case_s"]:
            closed_form = median_of(
                done, lambda r: r["case_s"]["mellin_closed_form"])
            print(f"mellin_closed_form_s={closed_form}")
    return metrics, reports


def per_layer(checkout, workload, seconds):
    metrics = checkout.import_layers()
    pairs = []

    def pair():
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        runs = {traced: checkout.worker(workload, traced=traced)
                for traced in order}
        pairs.append((runs[False], runs[True]))
        return list(runs.values())

    reports = repeat(pair, seconds, checkout.remaining)
    done = [(plain, traced) for plain, traced in pairs
            if plain is not None and traced is not None]
    same_counts = True
    if done:
        plains = [plain for plain, _ in done]
        traceds = [traced for _, traced in done]
        for name, first in traceds[0]["layers"].items():
            if name.endswith("_s"):
                metrics[name] = median_of(traceds,
                                          lambda r: r["layers"][name])
            else:   # counts and ratios of counts: the same in every run
                metrics[name] = first
                same_counts &= all(r["layers"][name] == first
                                   for r in traceds)
        for name in plains[0]["criteria_s"]:
            metrics[name] = median_of(plains, lambda r: r["criteria_s"][name])
        metrics["trace_overhead_ratio"] = statistics.median(
            traced["wall_s"] / plain["wall_s"] for plain, traced in done)
        print(f"pairs={len(done)}")
    if not same_counts:
        sys.stderr.write("layer counts differ between traced runs\n")
    return metrics, reports, same_counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "exczero", "__init__.py")):
        parser.error("no exczero sources under ./src: run from the root of "
                     "the repository")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if args.trace else "end_to_end"]}

    checkout = Checkout(root)
    checkout.warm_up()
    same_counts = True
    if args.trace:
        metrics, reports, same_counts = per_layer(checkout, args.workload,
                                                  args.seconds)
    else:
        metrics, reports = end_to_end(checkout, args.workload, args.seconds)
    attempted, failed, correct = tally(reports)
    correct = correct and same_counts
    missing = sorted(set(wanted) - set(metrics))
    extra = sorted(set(metrics) - set(wanted))
    if missing or extra:
        sys.stderr.write(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}\n")
        return 1
    print(f"workload={args.workload} runs={len(reports)} "
          f"fail_ratio={failed / attempted}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
