"""The commands whose CSV sha256 digests CHANGES.md tracks.

    python tests/digest_commands.py

runs each command in a temporary directory, in one process, and prints
`name sha256-prefix` for each CSV, the first 12 hex digits of its digest.
A change that claims to keep every output byte compares this listing
before and after it. The CSVs do not depend on the --out path (only the
manifests name it) nor on the order the commands run in.

The list is the seed-0 commands of the benchmark at its "bench" size
(bench/workloads.build, used as it is; rerun is left out, as it writes no
CSV of its own), named workload/CSV, plus long-grid commands that reach
paths the benchmark does not: grids past one column tile
(evolution.TILE), an exchange k = 1, 2 or 3, cross-phase s = 2, a complex
alpha.
"""

from __future__ import annotations

import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from nlmzi import cli  # noqa: E402

LONG_GRID = {
    "wc-exchange-k2-nbar20": [
        "wc-sweep", "--process", "exchange", "--k", "2", "--nbar", "20",
        "--theta", "0:100:2000", "--tail-tol", "1e-3"],
    "optomech-tau4096": [
        "optomech", "--process", "cross-kerr", "--nbar", "3",
        "--t", "3.14159265", "--tau", "0:12.566:4096"],
    "pdc-degenerate-gt3000": [
        "pdc", "--variant", "degenerate", "--nbar", "3",
        "--gt", "0:3.1416:3000"],
    "coherence-cross-s2": [
        "coherence", "--process", "cross-kerr", "--s", "2", "--nbar", "1",
        "--theta", "0:6.283:3000"],
    "optomech-exchange-k2": [
        "optomech", "--process", "exchange", "--k", "2", "--nbar", "1",
        "--t", "1.3", "--tau", "0:12.566:500"],
    "optomech-complex-alpha": [
        "optomech", "--process", "cross-kerr", "--nbar", "1", "--t", "2.0",
        "--alpha", "3+4j"],
    "wc-exchange-k1": [
        "wc-sweep", "--process", "exchange", "--k", "1", "--nbar", "5",
        "--theta", "0:6.283:400"],
    "wc-exchange-k3": [
        "wc-sweep", "--process", "exchange", "--k", "3", "--nbar", "2",
        "--theta", "0:6.283:3000"],
    "coherence-exchange-k3": [
        "coherence", "--process", "exchange", "--k", "3", "--nbar", "1",
        "--theta", "0:6.283:300"],
}


def commands(workdir: str):
    """(name, argv, csv path) of every tracked command, writing to workdir."""
    out = []
    for workload in workloads.WORKLOADS:
        for cmd in workloads.build(workload, 0, "bench", workdir):
            if cmd.out is not None:
                name = os.path.splitext(os.path.basename(cmd.out))[0]
                out.append(("%s/%s" % (workload, name), cmd.argv, cmd.out))
    for name, argv in LONG_GRID.items():
        path = os.path.join(workdir, name + ".csv")
        out.append((name, argv + ["--out", path], path))
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="nlmzi-digest-") as tmp:
        for name, argv, path in commands(tmp):
            rc = cli.main(argv)
            if rc != 0:
                print("%s exit %d" % (name, rc))
                return rc
            print("%s %s" % (name, cli.sha256_of(path)[:12]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
