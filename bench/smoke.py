"""Smoke test of the benchmark harness.

    python3 bench/smoke.py

Runs every workload at the tiny size under a non-default seed, untraced
and traced, and checks that:
- each run is correct and prints exactly the metrics BENCHMARK.json names;
- the layer each workload exists for shows up in its trace;
- the tracer puts every interposed function back when it exits;
- a deliberately failing command raises error_rate;
- with only BENCHMARK.json and bench/ present, run.py exits non-zero and
  prints no result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import child  # noqa: E402
import run  # noqa: E402
import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7

# One layer per workload that must be non-zero in its trace.
EXERCISED = {
    "bright_scan": ["operators.jx_calls", "evolution.cache_hit_ratio"],
    "long_scan": ["operators.generator_s", "thermo.theta_points"],
    "pump": ["evolution.generic_components", "evolution.pdc_s"],
    "readout": ["coherence.report_calls", "optomech.oracle_levels",
                "cli.csv_bytes"],
}


def run_bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py")]
                          + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc


def check(cond, what):
    if not cond:
        raise SystemExit("FAIL: " + what)
    print("ok   " + what)


def check_runs(spec):
    check(sorted(w["name"] for w in spec["workloads"])
          == sorted(workloads.WORKLOADS), "workloads match BENCHMARK.json")
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("--workload", workload, "--size", "tiny",
                              "--seed", str(SEED), "--seconds", "0",
                              "--trace", str(trace))
            check(proc.returncode == 0, "%s trace=%d exits 0 (%s)" % (
                workload, trace, proc.stderr.strip()[-300:]))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], "result keys")
            check(result["correct"] and result["failed"] == 0,
                  "%s trace=%d correct" % (workload, trace))
            names = [m["name"] for m in spec[group]]
            check(sorted(result["metrics"]) == sorted(names),
                  "%s trace=%d prints every %s metric" % (workload, trace,
                                                          group))
            if trace:
                for name in EXERCISED[workload]:
                    check(result["metrics"][name]["value"] > 0,
                          "%s traces %s" % (workload, name))


def bindings():
    """Every attribute the tracer may replace, by identity."""
    import nlmzi  # noqa: F401  (loads every submodule)
    mods = [m for n, m in sys.modules.items()
            if m and (n == "nlmzi" or n.startswith("nlmzi."))]
    out = {}
    for m in mods:
        for k, v in vars(m).items():
            if callable(v):
                out[(m.__name__, k)] = v
                if isinstance(v, type):
                    for ck, cv in vars(v).items():
                        out[(m.__name__, k, ck)] = cv
    return out


def check_in_process(workdir):
    sys.path.insert(0, run.SRC)
    import nlmzi.cli as cli
    tempfile.tempdir = os.path.join(workdir, "tmp")   # where rerun replays
    before = bindings()
    commands = workloads.build("readout", SEED, "tiny", workdir)
    with bench_tracer.Tracer() as tr:
        patched = sum(bindings()[k] is not v for k, v in before.items())
        report = child.run_commands(cli, commands, tr)
    check(patched >= len(bench_tracer.TARGETS), "tracer interposes %d "
          "bindings" % patched)
    after = bindings()
    check(all(after[k] is v for k, v in before.items()),
          "every interposed function restored after the traced run")
    report["layers"] = bench_tracer.layer_metrics(tr, report["wall_s"])
    remainder = run.accounting([report])["remainder_s"]
    check(abs(remainder) < 1e-6 * report["wall_s"],
          "layer self times and gaps account for the traced wall time")
    check(not report["failures"], "tiny readout passes its checks")

    bad = workloads.Command(
        ["wc-sweep", "--process", "cross-kerr", "--nbar", "-1",
         "--theta", "0:1:3", "--out", os.path.join(workdir, "bad.csv")],
        workloads.check_wc_closed_form)
    failing = child.run_commands(cli, commands + [bad])
    rate = run.error_rate([report, failing])
    check(len(failing["failures"]) == 1 and rate > 0,
          "a failing command raises error_rate (%.3f)" % rate)


def check_bare_checkout(spec, scratch):
    os.makedirs(scratch)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path),
                        os.path.join(scratch, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(spec["command"] + ["--workload", "readout",
                                             "--seed", "1", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=scratch, capture_output=True, text=True,
                          timeout=170)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the program, run.py exits %d and prints no result"
          % proc.returncode)


def main():
    spec = run.load_spec()
    scratch = os.path.join(run.WORK, "smoke-%d" % os.getpid())
    try:
        check_runs(spec)
        os.makedirs(os.path.join(scratch, "tmp"))
        check_in_process(scratch)
        check_bare_checkout(spec, os.path.join(scratch, "bare"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass
    print("smoke test passed")


if __name__ == "__main__":
    main()
