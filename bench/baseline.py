"""Record the per-layer baseline: traced runs at the default seed.

    python3 bench/baseline.py

Runs `run.py --trace 1 --seed 0` for every workload at the `bench` and
`full` sizes, for BENCHMARK.json's run_seconds each. Writes
bench/baseline.json (metrics, samples, accounting, environment) and
bench/BASELINE.md (the metrics as one table per size).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402


def traced(workload, size, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", str(seconds), "--trace", "1",
         "--size", size], cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("%s/%s failed: %s" % (size, workload,
                                               proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln.split(" ", 2)[2]) for ln in lines
                  if ln.startswith("detail "))
    failures = [ln.strip() for ln in lines if ln.strip().startswith("FAILED")]
    return {"result": json.loads(lines[-1]), "detail": detail,
            "failures": failures}


def table(sizes, records):
    spec = run.load_spec()
    out = []
    for size in sizes:
        rows = records[size]
        out.append("## size `%s`\n" % size)
        out.append("| metric | unit | " + " | ".join(workloads.WORKLOADS)
                   + " |")
        out.append("| --- | --- |" + " ---: |" * len(workloads.WORKLOADS))
        for m in spec["per_layer"]:
            cells = ["%.4g" % rows[w]["result"]["metrics"][m["name"]]["value"]
                     for w in workloads.WORKLOADS]
            out.append("| `%s` | %s | %s |" % (m["name"], m["unit"],
                                               " | ".join(cells)))
        acc = ["%.3g" % rows[w]["detail"]["accounting"]["remainder_s"]
               for w in workloads.WORKLOADS]
        out.append("| remainder (wall - layer self - gaps) | s | %s |"
                   % " | ".join(acc))
        err = ["%d/%d" % (rows[w]["result"]["failed"],
                          rows[w]["result"]["attempted"])
               for w in workloads.WORKLOADS]
        out.append("| failed / attempted commands | count | %s |\n"
                   % " | ".join(err))
        for w in workloads.WORKLOADS:
            for f in rows[w]["failures"]:
                out.append("- `%s`: %s" % (w, f))
        out.append("")
    return "\n".join(out)


def main():
    seconds = run.load_spec()["run_seconds"]
    sizes = ["bench", "full"]
    records = {size: {w: traced(w, size, seconds)
                      for w in workloads.WORKLOADS} for size in sizes}
    env = records[sizes[0]][workloads.WORKLOADS[0]]["detail"]["env"]
    with open(os.path.join(HERE, "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seed": 0, "seconds": seconds, "env": env,
                   "runs": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(HERE, "BASELINE.md"), "w", encoding="utf-8") as fh:
        fh.write("# Per-layer baseline\n\nGenerated by `python3 "
                 "bench/baseline.py`: traced runs of %g s at seed 0. "
                 "Environment: `%s`.\n\n" % (seconds, json.dumps(env)))
        fh.write(table(sizes, records))


if __name__ == "__main__":
    main()
