"""One workload iteration in a fresh process.

Usage: python3 bench/child.py '<json spec>'

The spec names the workload, seed, size, work directory, whether to
trace, and the source tree to import nlmzi from. The child imports
`nlmzi.cli`, builds the inputs, runs every command back to back through
`nlmzi.cli.main(argv)`, then checks the outputs and prints one JSON
report line. A command that fails or fails its check is reported, not
raised; the child exits non-zero only when the harness itself breaks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def blas_threads():
    """{library: thread count} for every OpenBLAS loaded in this process."""
    import ctypes
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return out
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def environment():
    import numpy
    import scipy
    env = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "blas_threads": blas_threads(),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        env["blas"] = None
    return env


def run_command(cli, cmd, tracer):
    """(exit code, captured stdout, captured stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(cmd.argv)
            else:
                rc = tracer.call(tracer.command_span, cli.main,
                                 cmd.argv)
        except SystemExit as exc:      # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:       # a traceback counts as a failure
            rc = 1
            print("%s: %s" % (type(exc).__name__, exc), file=err)
    return rc, out.getvalue(), err.getvalue()


def run_commands(cli, commands, tracer=None):
    """Run the commands back to back; return the timing and failures."""
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    first = time.monotonic()
    t0 = time.perf_counter()
    results = [run_command(cli, cmd, tracer) for cmd in commands]
    wall = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime
           + usage1.ru_stime - usage0.ru_stime)
    failures = []
    for cmd, (rc, stdout, stderr) in zip(commands, results):
        if rc != 0:
            reason = "exit %s: %s" % (rc, stderr.strip()[-300:])
        else:
            try:
                reason = cmd.check(cmd, stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reason = "unreadable output: %s: %s" % (type(exc).__name__,
                                                       exc)
        if reason:
            failures.append({"argv": cmd.argv[:6], "reason": reason})
    return {"first_command": first, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": usage1.ru_maxrss / 1024.0,
            "attempted": len(commands), "failures": failures}


def main(spec):
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)
    import nlmzi.cli as cli
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit("nlmzi imported from %s, not %s" % (cli.__file__,
                                                             src))
    import workloads
    commands = workloads.build(spec["workload"], spec["seed"], spec["size"],
                               spec["workdir"])
    if spec["trace"]:
        import tracer as bench_tracer
        with bench_tracer.Tracer() as tracer:
            report = run_commands(cli, commands, tracer)
        report["layers"] = bench_tracer.layer_metrics(tracer,
                                                      report["wall_s"])
        report["spans"] = tracer.summary()
    else:
        report = run_commands(cli, commands)
    report["env"] = environment()
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
