"""Command-line front end.

Every data command writes one CSV (deterministic bytes: 17-significant-digit
floats, '\\n' endings, header row) plus a JSON run manifest recording the
full argv, engine version, cutoffs, tail masses, wall time, and a sha256
digest of each output. `rerun` replays a manifest into a temporary
directory, which it deletes, and verifies the digests still match. The
digest comes from CPython's builtin SHA-256 module, so a command never
loads OpenSSL.

Exit codes: 0 success, 2 usage error, 3 numeric/configuration failure, an
array too large to allocate, or a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time

# hashlib maps OpenSSL's libcrypto (3.4 MB resident) for one digest per
# command; CPython's lean builtin module gives the same SHA-256 bytes
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__, coherence, evolution, fock, optomech, thermo
from .errors import ConfigurationError, DomainError, FitError
from .operators import CrossPhase, DegeneratePDC, Exchange, NonDegeneratePDC

PDC_HEAD = 9


def grid_arg(spec: str) -> str:
    """An inclusive grid 'start:stop:count', checked without building it."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be start:stop:count, got %r" % spec)
    start, stop = float(parts[0]), float(parts[1])
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("grid start and stop must be finite, got %r" % spec)
    if int(parts[2]) < 1:
        raise ValueError("grid count must be >= 1")
    return spec


def parse_grid(spec: str) -> np.ndarray:
    """Inclusive grid 'start:stop:count' -> linspace."""
    start, stop, count = grid_arg(spec).split(":")
    return np.linspace(float(start), float(stop), int(count))


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return "%.17g" % x


def write_csv(path: str, header, rows):
    """Cells as "%.17g", a nan or None cell empty: one % per row, and
    cell by cell through _fmt where that fails or writes an n (nan, inf)."""
    line = ",".join(["%.17g"] * len(header))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in map(tuple, rows):
            try:
                text = line % row
            except TypeError:  # a None cell, or a row of another length
                text = "n"
            if "n" in text:
                text = ",".join(_fmt(v) for v in row)
            fh.write(text + "\n")


def sha256_of(path: str) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(args, argv, out_path, extras, cutoffs, tail_masses, wall):
    params = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "argv": list(argv),
        "parameters": params,
        "engine_version": __version__,
        "cutoffs": cutoffs,
        "tail_masses": tail_masses,
        "wall_time_s": wall,
        "outputs": {os.path.basename(out_path): sha256_of(out_path)},
    }
    manifest.update(extras)
    mpath = out_path + ".manifest.json"
    with open(mpath, "w", encoding="utf-8") as fh:
        # a value of a type JSON lacks, such as a complex alpha, is its repr
        json.dump(manifest, fh, sort_keys=True, ensure_ascii=False, indent=2,
                  default=repr)
        fh.write("\n")
    return mpath


def build_process(args):
    if args.command == "pdc":
        return DegeneratePDC(g=1.0) if args.variant == "degenerate" \
            else NonDegeneratePDC(g=1.0)
    if args.process == "cross-kerr":
        return CrossPhase(s=args.s, chi=1.0)
    return Exchange(k=args.k, g=1.0, allow_high_order=args.allow_high_order)


def thermal_truncation(args):
    """(cutoffs, tail masses) of the thermal input, one entry per --nbar."""
    if args.command == "max-efficiency":
        cutoffs, tails = {}, {}
        for nbar in args.nbar:
            key = "nbar=%s" % _fmt(nbar)
            cutoffs[key] = fock.thermal_cutoff(nbar, args.tail_tol)
            tails[key] = fock.thermal_tail_mass(nbar, cutoffs[key])
        return cutoffs, tails
    n_max = fock.thermal_cutoff(args.nbar, args.tail_tol)
    key = "pump_cutoff" if args.command == "pdc" else "n_max"
    return {key: n_max}, {"input": fock.thermal_tail_mass(args.nbar, n_max)}


# ---------------------------------------------------------------------------
# commands: each computes (CSV header, rows, extra cutoffs, manifest extras)
# ---------------------------------------------------------------------------

def cmd_wc_sweep(process, args):
    res = thermo.wc_sweep(process, args.nbar, parse_grid(args.theta),
                          tail_tol=args.tail_tol)
    rows = zip(res.thetas, res.wc, res.eta, res.wc_dispersion,
               res.mean_a, res.mean_b, res.odd_mass)
    return (["theta", "W", "eta", "wc_dispersion", "mean_a", "mean_b",
             "parity_odd_mass"], rows, {}, {})


def cmd_max_efficiency(process, args):
    rows = []
    for nbar in args.nbar:
        eta, theta_star = thermo.max_efficiency(
            process, nbar, args.theta_max, grid=args.grid,
            tail_tol=args.tail_tol)
        rows.append((nbar, eta, theta_star, eta * nbar))
    return (["nbar", "eta_max", "theta_star", "eta_max_times_nbar"], rows,
            {}, {})


def cmd_coherence(process, args):
    thetas = parse_grid(args.theta)
    da = evolution.sweep_distributions(process, args.nbar, thetas,
                                       tail_tol=args.tail_tol)
    rep = thermo.ergotropy(da)
    coh = coherence.coherence_report(da)
    rows = zip(thetas, rep.wc, coh.g2, coh.g3, coh.g4,
               coh.g2_norm, coh.g3_norm, coh.g4_norm,
               coherence.g2_from_wc(rep))
    return (["theta", "W", "g2", "g3", "g4", "g2_norm", "g3_norm",
             "g4_norm", "g2_from_wc"], rows, {}, {})


def cmd_optomech(process, args):
    dist_a = evolution.mzi_output(process, args.t, args.nbar,
                                  tail_tol=args.tail_tol)
    taus = parse_grid(args.tau)
    cfg = optomech.OscillatorConfig(
        G=args.G, Omega=args.Omega, init=optomech.CoherentInit(args.alpha))
    osc_cutoff = args.osc_cutoff
    if osc_cutoff <= 0:
        osc_cutoff = optomech.suggested_osc_cutoff(cfg, dist_a.size - 1)
    closed = optomech.phonon_trace_coherent(dist_a, cfg, taus)
    oracle = optomech.full_quantum_oracle(dist_a, cfg, osc_cutoff, taus)
    rows = zip(taus, closed.phonon, oracle.phonon, oracle.xvar)
    inf = optomech.infer_wc(oracle)
    extras = {
        "wc_inferred": inf.wc,
        "wc_direct": thermo.ergotropy(dist_a).wc,
        "quad_inferred": inf.quad,
        "dispersion_inferred": inf.wc_dispersion,
        "fit_residual": inf.residual,
    }
    return (["tau", "phonon_closed_form", "phonon_oracle", "xvar"], rows,
            {"osc_cutoff": osc_cutoff}, extras)


def cmd_pdc(process, args):
    gts = parse_grid(args.gt)
    signal = evolution.pdc_signal_sweep(process, args.nbar, gts,
                                        tail_tol=args.tail_tol)
    head = np.zeros((PDC_HEAD, gts.size))
    m = min(PDC_HEAD, signal.shape[0])
    head[:m] = signal[:m]
    rows = zip(gts, *head, thermo.ergotropy(signal).wc)
    return (["gt"] + ["p%d" % n for n in range(PDC_HEAD)] + ["W_signal"],
            rows, {}, {})


def run_data_command(args, argv) -> int:
    """Compute one data command, then write its CSV and manifest."""
    t0 = time.perf_counter()
    header, rows, cutoffs, extras = args.func(build_process(args), args)
    write_csv(args.out, header, rows)
    thermal_cutoffs, tails = thermal_truncation(args)
    write_manifest(args, argv, args.out, extras,
                   {**thermal_cutoffs, **cutoffs}, tails,
                   time.perf_counter() - t0)
    return 0


def cmd_rerun(args):
    with open(args.manifest, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigurationError("manifest is not JSON: %s" % exc)
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("argv"), list)
            and all(isinstance(a, str) for a in manifest["argv"])
            and isinstance(manifest.get("outputs"), dict)):
        raise ConfigurationError(
            "manifest must be an object with an argv list of strings and "
            "outputs")
    old_argv = list(manifest["argv"])
    if "--out" not in old_argv[:-1]:
        raise ConfigurationError("manifest argv carries no --out flag")
    i = old_argv.index("--out")
    with tempfile.TemporaryDirectory(prefix="nlmzi-rerun-") as tmp:
        old_argv[i + 1] = os.path.join(tmp, os.path.basename(old_argv[i + 1]))
        rc = _dispatch(old_argv)
        if rc != 0:
            return rc
        ok = True
        for name, digest in manifest["outputs"].items():
            match = sha256_of(os.path.join(tmp, name)) == digest
            ok = ok and match
            print("%s %s" % ("MATCH" if match else "MISMATCH", name))
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nlmzi",
        description="thermal-noise interferometer sweeps and readout")
    sub = ap.add_subparsers(dest="command", required=True)

    process = argparse.ArgumentParser(add_help=False)
    process.add_argument("--process", choices=["cross-kerr", "exchange"],
                         required=True)
    process.add_argument("--s", type=int, default=1, help="cross-phase order")
    process.add_argument("--k", type=int, default=2, help="exchange order")
    process.add_argument("--allow-high-order", action="store_true")

    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--nbar", type=float, required=True)
    scan.add_argument("--theta", "--gt", dest="theta", type=grid_arg,
                      required=True, metavar="START:STOP:COUNT")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--tail-tol", type=float, default=1e-12)
    output.add_argument("--out", required=True)

    def data_command(name, summary, func, *parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, output])
        p.set_defaults(func=func)
        return p

    data_command("wc-sweep", "work capacity vs interaction phase",
                 cmd_wc_sweep, process, scan)

    p = data_command("max-efficiency", "peak eta over a phase window",
                     cmd_max_efficiency, process)
    p.add_argument("--nbar", type=float, nargs="+", required=True)
    p.add_argument("--theta-max", type=float, required=True)
    p.add_argument("--grid", type=int, default=200)

    data_command("coherence", "factorial-moment ratios vs phase",
                 cmd_coherence, process, scan)

    p = data_command("optomech", "oscillator readout of one output",
                     cmd_optomech, process)
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--t", type=float, required=True,
                   help="interferometer interaction time")
    p.add_argument("--alpha", type=complex, default=complex(10.0))
    p.add_argument("--G", type=float, default=0.01)
    p.add_argument("--Omega", type=float, default=1.0)
    p.add_argument("--tau", type=grid_arg,
                   default="0:%.17g:256" % (4.0 * math.pi),
                   metavar="START:STOP:COUNT")
    p.add_argument("--osc-cutoff", type=int, default=0,
                   help="oscillator truncation; <=0 picks one automatically")

    p = data_command("pdc", "down-conversion signal distributions", cmd_pdc)
    p.add_argument("--variant", choices=["degenerate", "non-degenerate"],
                   required=True)
    p.add_argument("--nbar", type=float, required=True)
    p.add_argument("--gt", type=grid_arg, required=True,
                   metavar="START:STOP:COUNT")

    p = sub.add_parser("rerun", help="replay a manifest and verify digests")
    p.add_argument("manifest")

    return ap


def _dispatch(argv) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "rerun":
            return cmd_rerun(args)
        return run_data_command(args, argv)
    except (DomainError, ConfigurationError, FitError, OSError,
            MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return _dispatch(list(argv))


if __name__ == "__main__":
    sys.exit(main())
