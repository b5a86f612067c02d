"""Benchmark workloads: the nlmzi commands each one runs, and their checks.

A workload is a list of CLI commands run back to back in one process.
Inputs come from the workload seed alone. Seed 0 gives the nominal sizes
exactly; any other seed scales nbar and the grid end points by up to
JITTER either way. The thermal tail tolerance is then moved with nbar so
that the block count stays at its nominal value: the inputs change with
the seed, the amount of work does not, and the run-to-run spread measures
the machine rather than the draw.

Every check is a physics identity that holds for any seed, not a byte
digest, because bytes legitimately move in the last place.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

JITTER = 0.02
TWO_PI = 2.0 * math.pi

# Nominal sizes. "full" is the size each workload was designed at; "bench"
# is what one run of BENCHMARK.json's run_seconds can repeat several
# times; "tiny" is the smoke-test size.
SIZES = {
    "bright_scan": {
        "full": dict(nbar=100.0, grid=100, tol=1e-3),
        "bench": dict(nbar=40.0, grid=100, tol=1e-3),
        "tiny": dict(nbar=8.0, grid=100, tol=1e-3),
    },
    "long_scan": {
        "full": dict(nbar=20.0, grid=2000, tol=1e-5),
        "bench": dict(nbar=20.0, grid=2000, tol=1e-3),
        "tiny": dict(nbar=20.0, grid=200, tol=1e-2),
    },
    "pump": {
        "full": dict(nbar_non=5.0, nbar_deg=20.0, points=50),
        "bench": dict(nbar_non=2.0, nbar_deg=3.0, points=50),
        "tiny": dict(nbar_non=0.5, nbar_deg=0.5, points=10),
    },
    "readout": {
        "full": dict(coh_points=20000, opto_nbar=5.0, wc_points=200),
        "bench": dict(coh_points=8000, opto_nbar=3.0, wc_points=200),
        "tiny": dict(coh_points=200, opto_nbar=0.5, wc_points=20),
    },
}

WORKLOADS = list(SIZES)

WHY = {
    "bright_scan": "cross-phase max-efficiency at large nbar: few theta "
                   "points on big blocks, the one workload where the "
                   "O(N^3) J_x eigensolve and big-block memory weigh",
    "long_scan": "exchange k=2 max-efficiency on a 2000-point grid: many "
                 "theta points on mid-size banded blocks, so the amplitude "
                 "sweep and the reduction dominate",
    "pump": "down-conversion through the generic engine, which no other "
            "workload reaches and which never touches the block engine",
    "readout": "tiny blocks with heavy per-column analysis, the oscillator "
               "oracle, CSV/manifest writing and a replay",
}


@dataclass
class Command:
    """One CLI invocation; `argv` carries its --out path already."""
    argv: List[str]
    check: Callable[["Command", str], Optional[str]]
    out: Optional[str] = None
    extra: dict = field(default_factory=dict)


class Jitter:
    """Seeded input perturbation; seed 0 is the identity."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed) if seed else None

    def scale(self, value: float) -> float:
        if self.rng is None:
            return value
        return value * (1.0 + JITTER * self.rng.uniform(-1.0, 1.0))


def thermal_cutoff(nbar: float, tol: float) -> int:
    """Smallest N with thermal tail mass (nbar/(1+nbar))^(N+1) <= tol."""
    x = nbar / (1.0 + nbar)
    n = max(0, int(math.ceil(math.log(tol) / math.log(x))) - 1)
    while x ** (n + 1) > tol:
        n += 1
    while n > 0 and x ** n <= tol:
        n -= 1
    return n


def pinned_tol(nominal_nbar: float, nbar: float, tol: float) -> float:
    """Tail tolerance that keeps nbar's cutoff at the nominal one."""
    if nbar == nominal_nbar:
        return tol
    n = thermal_cutoff(nominal_nbar, tol)
    return (nbar / (1.0 + nbar)) ** (n + 1) * (1.0 + 1e-6)


def _f(x: float) -> str:
    return repr(float(x))


def _grid(stop: float, count: int) -> str:
    return "0:%s:%d" % (_f(stop), count)


# ---------------------------------------------------------------------------
# output readers
# ---------------------------------------------------------------------------

def read_csv(path):
    """(header, rows of string cells) of a CSV the CLI wrote."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def column(path, name):
    header, rows = read_csv(path)
    i = header.index(name)
    return [float(r[i]) if r[i] else math.nan for r in rows]


def manifest(cmd):
    with open(cmd.out + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks: return None when the output is right, else a reason
# ---------------------------------------------------------------------------

def check_eta_quarter(cmd, stdout):
    """c04 cross-phase: eta_max within 3% of 1/4."""
    eta = column(cmd.out, "eta_max")[0]
    rel = abs(eta - 0.25) / 0.25
    return None if rel < 0.03 else "eta_max %r is %.1f%% off 1/4" % (
        eta, 100 * rel)


def check_eta_nbar(cmd, stdout):
    """c04 exchange k=2: eta_max * nbar within 15% of 0.4."""
    g = column(cmd.out, "eta_max_times_nbar")[0]
    rel = abs(g - 0.4) / 0.4
    return None if rel < 0.15 else "eta*nbar %r is %.1f%% off 0.4" % (
        g, 100 * rel)


def wc_closed_form(nbar, theta):
    """Cross-phase s=1 work capacity (nbar/4)(1 - 1/(1+nbar-nbar cos)^2)."""
    return nbar / 4.0 * (1.0 - 1.0 / (1.0 + nbar - nbar * math.cos(theta))
                         ** 2)


def check_wc_closed_form(cmd, stdout):
    """c01: the W column within 1e-9 + tail mass of the closed form."""
    nbar = cmd.extra["nbar"]
    tol = 1e-9 + manifest(cmd)["tail_masses"]["input"]
    thetas = column(cmd.out, "theta")
    ws = column(cmd.out, "W")
    worst = max(abs(w - wc_closed_form(nbar, t)) for t, w in zip(thetas, ws))
    if not worst <= tol:
        return "W off the closed form by %.3g > %.3g" % (worst, tol)
    return None


def check_inference(cmd, stdout):
    """c09: the inferred work capacity matches the direct one to 1e-8."""
    m = manifest(cmd)
    gap = abs(m["wc_inferred"] - m["wc_direct"])
    return None if gap < 1e-8 else "wc_inferred off wc_direct by %.3g" % gap


def check_pdc(cmd, stdout):
    """Finite W_signal >= 0; exact zeros on the odd p_n if degenerate."""
    ws = column(cmd.out, "W_signal")
    if not all(math.isfinite(w) and w >= 0.0 for w in ws):
        return "W_signal not finite and >= 0"
    if cmd.extra["degenerate"]:
        header, _ = read_csv(cmd.out)
        for name in header:
            if name.startswith("p") and int(name[1:]) % 2 == 1:
                if any(v != 0.0 for v in column(cmd.out, name)):
                    return "degenerate signal has odd weight in %s" % name
    return None


def check_match(cmd, stdout):
    """rerun: every output digest replays to MATCH."""
    lines = stdout.split()
    ok = lines and all(w != "MISMATCH" for w in lines) and "MATCH" in lines
    return None if ok else "rerun printed %r" % stdout.strip()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _bright_scan(p, j, workdir):
    nbar = j.scale(p["nbar"])
    out = os.path.join(workdir, "bright.csv")
    argv = ["max-efficiency", "--process", "cross-kerr", "--nbar", _f(nbar),
            "--theta-max", _f(j.scale(TWO_PI)), "--grid", str(p["grid"]),
            "--tail-tol", _f(pinned_tol(p["nbar"], nbar, p["tol"])),
            "--out", out]
    return [Command(argv, check_eta_quarter, out)]


def _long_scan(p, j, workdir):
    nbar = j.scale(p["nbar"])
    out = os.path.join(workdir, "long.csv")
    argv = ["max-efficiency", "--process", "exchange", "--k", "2",
            "--nbar", _f(nbar), "--theta-max", _f(j.scale(100.0)),
            "--grid", str(p["grid"]),
            "--tail-tol", _f(pinned_tol(p["nbar"], nbar, p["tol"])),
            "--out", out]
    return [Command(argv, check_eta_nbar, out)]


def _pump(p, j, workdir):
    cmds = []
    for variant, key in (("non-degenerate", "nbar_non"),
                         ("degenerate", "nbar_deg")):
        nbar = j.scale(p[key])
        out = os.path.join(workdir, "pdc-%s.csv" % variant)
        argv = ["pdc", "--variant", variant, "--nbar", _f(nbar),
                "--gt", _grid(j.scale(3.1416), p["points"]),
                "--tail-tol", _f(pinned_tol(p[key], nbar, 1e-12)),
                "--out", out]
        cmds.append(Command(argv, check_pdc, out,
                            {"degenerate": variant == "degenerate"}))
    return cmds


def _readout(p, j, workdir):
    cmds = []
    nbar = j.scale(0.5)
    out = os.path.join(workdir, "coherence.csv")
    cmds.append(Command(
        ["coherence", "--process", "cross-kerr", "--nbar", _f(nbar),
         "--theta", _grid(j.scale(6.283), p["coh_points"]),
         "--tail-tol", _f(pinned_tol(0.5, nbar, 1e-12)), "--out", out],
        check_wc_closed_form, out, {"nbar": nbar}))
    nbar = j.scale(p["opto_nbar"])
    out = os.path.join(workdir, "optomech.csv")
    cmds.append(Command(
        ["optomech", "--process", "cross-kerr", "--nbar", _f(nbar),
         "--t", "3.14159265", "--alpha", "10", "--G", "0.01",
         "--tail-tol", _f(pinned_tol(p["opto_nbar"], nbar, 1e-12)),
         "--out", out],
        check_inference, out))
    nbar = j.scale(1.0)
    out = os.path.join(workdir, "wc.csv")
    cmds.append(Command(
        ["wc-sweep", "--process", "cross-kerr", "--nbar", _f(nbar),
         "--theta", _grid(j.scale(6.283), p["wc_points"]),
         "--tail-tol", _f(pinned_tol(1.0, nbar, 1e-12)), "--out", out],
        check_wc_closed_form, out, {"nbar": nbar}))
    cmds.append(Command(["rerun", out + ".manifest.json"], check_match))
    return cmds


BUILDERS = {"bright_scan": _bright_scan, "long_scan": _long_scan,
            "pump": _pump, "readout": _readout}


def build(workload: str, seed: int, size: str, workdir: str):
    """The workload's commands for this seed and size, writing to workdir."""
    return BUILDERS[workload](SIZES[workload][size], Jitter(seed), workdir)
