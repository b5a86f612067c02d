"""nlmzi benchmark: closed-loop CLI workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--size bench|full|tiny]

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn. One process runs one command at a time: every iteration is a fresh
child process (`bench/child.py`) that imports `nlmzi.cli` from `src/`,
runs the workload's commands back to back and checks their outputs, so
set-up time and peak memory belong to that workload alone. Iterations
repeat until S seconds have passed, and each metric is the median over
them. BLAS keeps the thread count the environment gives it; the count is
recorded with the result.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. --trace 1
spends half the time on untraced iterations and half on traced ones
(spans interposed by `bench/tracer.py`), then repeats one traced
iteration with OPENBLAS_NUM_THREADS=1 in the child only, and prints the
per-layer metrics. The last line of standard output is always one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT_S = 600

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

class Runner:
    """Spawns one child per iteration and owns their work directories."""

    def __init__(self, workload, seed, size):
        self.workload, self.seed, self.size = workload, seed, size
        self.base = os.path.join(WORK, "run-%d" % os.getpid())
        self._ids = itertools.count()

    def child(self, trace, env_extra=None):
        """One iteration: (report, its work directory)."""
        workdir = os.path.join(self.base, "c%d" % next(self._ids))
        os.makedirs(os.path.join(workdir, "tmp"))
        spec = {"workload": self.workload, "seed": self.seed,
                "size": self.size, "workdir": workdir, "trace": trace,
                "src": SRC}
        env = dict(os.environ, TMPDIR=os.path.join(workdir, "tmp"))
        env.update(env_extra or {})
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"),
                 json.dumps(spec)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise HarnessError("child exceeded %d s" % CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise HarnessError("child exited %d: %s" % (
                proc.returncode, proc.stderr.strip()[-2000:]))
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["first_command"] - spawned
        return report, workdir

    def loop(self, seconds, trace, keep_last=False):
        """Iterate for `seconds` (at least once); return the reports."""
        reports, start, last = [], time.monotonic(), None
        while not reports or time.monotonic() - start < seconds:
            if last:
                shutil.rmtree(last)
            report, last = self.child(trace)
            reports.append(report)
        if not keep_last:
            shutil.rmtree(last)
            last = None
        return reports, last

    def close(self):
        shutil.rmtree(self.base, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def _csv_lines(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except FileNotFoundError:       # the command failed before writing
        return []


def cell_mismatches(dir_a, dir_b):
    """Number of CSV cells that differ between two work directories."""
    count = 0
    names = {n for d in (dir_a, dir_b) for n in os.listdir(d)
             if n.endswith(".csv")}
    for name in sorted(names):
        for la, lb in itertools.zip_longest(
                _csv_lines(os.path.join(dir_a, name)),
                _csv_lines(os.path.join(dir_b, name)), fillvalue=""):
            count += sum(a != b for a, b in itertools.zip_longest(
                la.split(","), lb.split(",")))
    return count


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def median(reports, key):
    return statistics.median(r[key] for r in reports)


def error_rate(reports):
    """Failed commands over attempted commands."""
    return (sum(len(r["failures"]) for r in reports)
            / sum(r["attempted"] for r in reports))


def end_to_end(reports):
    return {"wall_s": median(reports, "wall_s"),
            "setup_s": median(reports, "setup_s"),
            "peak_rss_mb": median(reports, "peak_rss_mb"),
            "error_rate": error_rate(reports)}


def per_layer(untraced, traced, single):
    """Per-layer metrics: medians over the traced iterations."""
    layers = {k: statistics.median(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    layers["cli.commands"] = float(traced[0]["attempted"])
    layers["cli.commands_failed"] = float(statistics.median(
        len(r["failures"]) for r in traced))
    layers["proc.cpu_s"] = median(untraced, "cpu_s")
    layers["proc.cpu_per_wall"] = statistics.median(
        r["cpu_s"] / r["wall_s"] for r in untraced)
    layers["trace.wall_s"] = median(traced, "wall_s")
    layers["trace.overhead_s"] = layers["trace.wall_s"] - median(
        untraced, "wall_s")
    layers["trace.single_thread_wall_s"] = single["wall_s"]
    return layers


def accounting(traced):
    """Layer self times plus untraced gaps against the traced wall time,
    for the traced iteration whose remainder is largest."""
    rows = []
    for r in traced:
        layer_self = r["layers"]["trace.layer_self_s"]
        gap = r["layers"]["trace.gap_s"]
        rows.append({"traced_wall_s": r["wall_s"], "layer_self_s": layer_self,
                     "gap_s": gap,
                     "remainder_s": r["wall_s"] - layer_self - gap})
    return max(rows, key=lambda row: abs(row["remainder_s"]))


def measure(workload, seed, size, seconds, trace):
    """(all reports, metrics dict, detail dict) for one workload."""
    runner = Runner(workload, seed, size)
    try:
        if not trace:
            reports, _ = runner.loop(seconds, False)
            detail = {key: [r[key] for r in reports]
                      for key in ("wall_s", "setup_s", "peak_rss_mb")}
            return reports, end_to_end(reports), detail
        untraced, _ = runner.loop(seconds / 2.0, False)
        traced, dir_default = runner.loop(seconds / 2.0, True,
                                          keep_last=True)
        single, dir_single = runner.child(
            True, {"OPENBLAS_NUM_THREADS": "1"})
        metrics = per_layer(untraced, traced, single)
        metrics["cli.thread_digest_mismatch"] = float(
            cell_mismatches(dir_default, dir_single))
        detail = {"single_thread_env": single["env"],
                  "untraced_wall_s": [r["wall_s"] for r in untraced],
                  "traced_wall_s": [r["wall_s"] for r in traced],
                  "accounting": accounting(traced),
                  "spans": traced[-1]["spans"]}
        return untraced + traced + [single], metrics, detail
    finally:
        runner.close()


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def describe(workload, reports, metrics, names, size, seed):
    failures = [f for r in reports for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reports)
    print("workload %s size=%s seed=%d iterations=%d commands=%d "
          "failed=%d" % (workload, size, seed, len(reports), attempted,
                         len(failures)))
    for name, unit in names:
        print("  %-32s %14.6g %s" % (name, metrics[name], unit))
    print("  %-32s %14.6g fraction (%d of %d commands)" % (
        "error_rate", error_rate(reports), len(failures), attempted))
    for f in failures[:5]:
        print("  FAILED %s: %s" % (" ".join(f["argv"]), f["reason"]))


def environment(reports):
    env = dict(reports[0]["env"])
    env["nproc"] = len(os.sched_getaffinity(0))
    return env


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["bench", "full", "tiny"],
                    default="bench")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "nlmzi", "cli.py")):
        print("error: no nlmzi source tree at %s" % SRC, file=sys.stderr)
        return 2

    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    group = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[group]]
    chosen = workloads.WORKLOADS if args.workload == "all" \
        else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in chosen:
            reports, metrics, detail = measure(
                workload, args.seed, args.size, args.seconds, args.trace)
            describe(workload, reports, metrics, names, args.size, args.seed)
            detail["env"] = environment(reports)
            print("detail %s %s" % (workload, json.dumps(detail)))
            failed = sum(len(r["failures"]) for r in reports)
            result["attempted"] += sum(r["attempted"] for r in reports)
            result["failed"] += failed
            result["correct"] = result["correct"] and failed == 0
            prefix = "" if len(chosen) == 1 else workload + "."
            for name, unit in names:
                result["metrics"][prefix + name] = {"value": metrics[name],
                                                    "unit": unit}
    except HarnessError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
