"""Command-line interface: csv shape, manifests, replay, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from nlmzi import evolution
from nlmzi.cli import _fmt, grid_arg, main, parse_grid, write_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return main([str(a) for a in argv])


MANIFEST_KEYS = {"command", "argv", "parameters", "engine_version",
                 "cutoffs", "tail_masses", "wall_time_s", "outputs"}

DATA_COMMANDS = {
    "wc-sweep": ("wc-sweep", "--process", "cross-kerr", "--nbar", 0.5,
                 "--theta", "0:3:5"),
    "wc-sweep-gt": ("wc-sweep", "--process", "exchange", "--k", 2,
                    "--nbar", 0.5, "--gt", "0:3:5"),
    "max-efficiency": ("max-efficiency", "--process", "exchange", "--k", 2,
                       "--nbar", 0.3, 0.6, "--theta-max", 10,
                       "--grid", 100),
    "coherence": ("coherence", "--process", "cross-kerr", "--nbar", 0.5,
                  "--theta", "0.1:2.1:9"),
    "coherence-gt": ("coherence", "--process", "exchange", "--k", 2,
                     "--nbar", 0.5, "--gt", "0.1:2.1:9"),
    "optomech": ("optomech", "--process", "cross-kerr", "--nbar", 0.3,
                 "--t", 2.0, "--alpha", "1+0j", "--G", 0.02,
                 "--tau", "0:12.6:24"),
    "pdc": ("pdc", "--variant", "non-degenerate", "--nbar", 0.4,
            "--gt", "0:0.5:3"),
}


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_parse_grid():
    g = parse_grid("0:2:5")
    assert np.allclose(g, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert parse_grid("1.5:1.5:1").tolist() == [1.5]
    for bad in ("1:2", "a:b:c", "0:1:0", "1:2:3:4", "0:inf:3", "nan:1:3"):
        for check in (parse_grid, grid_arg):
            with pytest.raises(ValueError):
                check(bad)
    # the argument check builds no grid, so a count past memory passes it
    spec = "0:1:%d" % 10 ** 13
    assert grid_arg(spec) == spec


def test_wc_sweep_csv_and_manifest(tmp_path):
    out = tmp_path / "wc.csv"
    rc = run("wc-sweep", "--process", "cross-kerr", "--nbar", 1.0,
             "--theta", "0:3.14159:7", "--out", out)
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["theta", "W", "eta", "wc_dispersion",
                      "mean_a", "mean_b", "parity_odd_mass"]
    assert len(rows) == 7
    assert float(rows[0][1]) < 1e-15         # no interaction, no work
    assert float(rows[-1][1]) > 0.22         # near the 2/9 peak
    man = json.loads((tmp_path / "wc.csv.manifest.json").read_text())
    assert set(man) == MANIFEST_KEYS
    assert man["command"] == "wc-sweep"
    assert man["cutoffs"]["n_max"] == 39
    assert man["outputs"]["wc.csv"] == sha(out)


def test_runs_are_deterministic(tmp_path):
    args = ("coherence", "--process", "exchange", "--k", 2, "--nbar", 0.5,
            "--theta", "0.1:2.1:9")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert sha(a) == sha(b)


@pytest.mark.parametrize("argv", DATA_COMMANDS.values(), ids=DATA_COMMANDS)
def test_every_data_command_writes_a_replayable_manifest(tmp_path, capsys,
                                                         argv):
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", out) == 0
    man = tmp_path / "out.csv.manifest.json"
    doc = json.loads(man.read_text())
    assert MANIFEST_KEYS <= set(doc)
    assert doc["command"] == argv[0]
    assert doc["outputs"] == {"out.csv": sha(out)}
    capsys.readouterr()
    assert run("rerun", man) == 0
    assert capsys.readouterr().out.split() == ["MATCH", "out.csv"]


def test_rerun_verifies_and_detects_tamper(tmp_path, capsys):
    out = tmp_path / "wc.csv"
    run("wc-sweep", "--process", "cross-kerr", "--nbar", 0.5,
        "--theta", "0:3:5", "--out", out)
    man = tmp_path / "wc.csv.manifest.json"
    assert run("rerun", man) == 0
    assert "MATCH" in capsys.readouterr().out

    doc = json.loads(man.read_text())
    doc["outputs"]["wc.csv"] = "0" * 64
    man.write_text(json.dumps(doc))
    assert run("rerun", man) == 3
    assert "MISMATCH" in capsys.readouterr().out

    doc["argv"] = [a for a in doc["argv"] if a != "--out"
                   and not a.endswith("wc.csv")]
    man.write_text(json.dumps(doc))
    assert run("rerun", man) == 3  # argv lost its --out flag


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("wc-sweep", "--nbar", 1.0, "--theta", "0:1:5",
            "--out", tmp_path / "x.csv")  # --process missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("wc-sweep", "--process", "cross-kerr", "--nbar", 1.0,
            "--theta", "0:1", "--out", tmp_path / "x.csv")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("wc-sweep", "--process", "cross-kerr", "--nbar", 1.0,
            "--theta", "0:nan:3", "--out", tmp_path / "x.csv")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("pdc", "--variant", "degenerate", "--nbar", 1.0,
            "--gt", "0:inf:3", "--out", tmp_path / "x.csv")
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        run("no-such-command")


def test_domain_errors_exit_three(tmp_path, capsys):
    rc = run("wc-sweep", "--process", "exchange", "--k", 5, "--nbar", 0.2,
             "--theta", "0:1:3", "--out", tmp_path / "x.csv")
    assert rc == 3
    rc = run("max-efficiency", "--process", "cross-kerr", "--nbar", 0.5,
             "--theta-max", 6.3, "--grid", 50, "--out", tmp_path / "y.csv")
    assert rc == 3
    rc = run("pdc", "--variant", "degenerate", "--nbar", "nan",
             "--gt", "0:1:3", "--out", tmp_path / "z.csv")
    assert rc == 3
    rc = run("max-efficiency", "--process", "cross-kerr", "--nbar", 0.5,
             "--theta-max", -1, "--out", tmp_path / "y.csv")
    assert rc == 3
    # 27.6M thermal blocks: refused by the block budget before allocation
    rc = run("wc-sweep", "--process", "cross-kerr", "--nbar", 1e6,
             "--theta", "0:1:3", "--out", tmp_path / "x.csv")
    assert rc == 3
    rc = run("pdc", "--variant", "degenerate", "--nbar", 1e6,
             "--gt", "0:1:3", "--out", tmp_path / "z.csv")
    assert rc == 3
    rc = run("optomech", "--process", "cross-kerr", "--nbar", 0.5,
             "--t", np.pi, "--alpha", "nan", "--out", tmp_path / "o.csv")
    assert rc == 3
    # an oscillator cutoff that overflows or needs more levels than
    # fock.DEFAULT_DIM_GUARD is refused before anything is allocated
    for extra in (("--G", 1e300), ("--alpha", "1e308+1e308j"),
                  ("--Omega", 1e-300), ("--osc-cutoff", 100000),
                  ("--Omega", "inf")):
        capsys.readouterr()
        rc = run("optomech", "--process", "cross-kerr", "--nbar", 1,
                 "--t", 1, *extra, "--out", tmp_path / "o.csv")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
    # an infinite Omega is refused by the oscillator's config, before any
    # closed form evaluates sin(inf) into nan cells and warnings
    proc = subprocess.run(
        [sys.executable, "-m", "nlmzi.cli", "optomech", "--process",
         "cross-kerr", "--nbar", "1", "--t", "1", "--Omega", "inf",
         "--out", str(tmp_path / "o.csv")],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and "Omega" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "Traceback" not in proc.stderr
    # an nbar whose nbar/(1+nbar) rounds to 1 has no finite cutoff
    _refused(capsys, "wc-sweep", "--process", "cross-kerr", "--nbar", 1e300,
             "--theta", "0:1:5", "--out", tmp_path / "x.csv")
    # grids too large to allocate: argparse checks the spec without
    # building it, and the command's allocation fails at once
    _refused(capsys, "wc-sweep", "--process", "cross-kerr", "--nbar", 1,
             "--theta", "0:1:%d" % 10 ** 13, "--out", tmp_path / "x.csv")
    _refused(capsys, "max-efficiency", "--process", "cross-kerr", "--nbar",
             1, "--theta-max", 1, "--grid", 10 ** 14,
             "--out", tmp_path / "y.csv")
    # ((N-j) j)^1000 overflows from block 4 on: refused by the generator
    # before any phase turns it into nan cells and warnings
    argv = ("wc-sweep", "--process", "cross-kerr", "--s", "1000", "--nbar",
            "1", "--theta", "0:1:5", "--out", str(tmp_path / "x.csv"))
    _refused(capsys, *argv)
    proc = subprocess.run(
        [sys.executable, "-m", "nlmzi.cli", *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:") and "block 4" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def _refused(capsys, *argv):
    """run(*argv) exits 3 with one error line on stderr."""
    capsys.readouterr()
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_file_errors_exit_three(tmp_path, capsys):
    _refused(capsys, "rerun", tmp_path / "missing.json")
    for doc in ("[1]", "not json", "{}", json.dumps({"outputs": {}}),
                json.dumps({"argv": ["wc-sweep", "--out", "x.csv"]}),
                json.dumps({"argv": ["wc-sweep", "--out"], "outputs": {}}),
                json.dumps({"argv": ["wc-sweep", "--out", 5], "outputs": {}})):
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        _refused(capsys, "rerun", bad)
    for argv in DATA_COMMANDS.values():
        _refused(capsys, *argv, "--out", tmp_path / "no-such-dir" / "x.csv")
    assert not (tmp_path / "no-such-dir").exists()


def test_rerun_deletes_its_replay_directory(tmp_path, capsys, monkeypatch):
    out = tmp_path / "wc.csv"
    assert run("wc-sweep", "--process", "exchange", "--k", 2, "--nbar", 0.5,
               "--theta", "0:3:5", "--out", out) == 0
    man = tmp_path / "wc.csv.manifest.json"
    doc = json.loads(man.read_text())
    replays = tmp_path / "replays"
    replays.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(replays))
    assert run("rerun", man) == 0
    assert capsys.readouterr().out.split() == ["MATCH", "wc.csv"]
    assert not list(replays.iterdir())
    doc["outputs"]["wc.csv"] = "0" * 64
    man.write_text(json.dumps(doc))
    assert run("rerun", man) == 3
    assert capsys.readouterr().out.split() == ["MISMATCH", "wc.csv"]
    assert not list(replays.iterdir())
    doc["argv"][doc["argv"].index("--k") + 1] = "5"  # refused: high order
    man.write_text(json.dumps(doc))
    assert run("rerun", man) == 3
    assert capsys.readouterr().err.startswith("error:")
    assert not list(replays.iterdir())


def test_oracle_cutoff_below_a_coherent_init_exits_three(tmp_path, capsys):
    # the cut keeps about 4e-71 of |alpha = 55>: refused, not evolved
    rc = run("optomech", "--process", "cross-kerr", "--nbar", 0.1, "--t", 1,
             "--alpha", 55, "--osc-cutoff", 2100, "--tail-tol", 1e-3,
             "--tau", "0:12.6:24", "--out", tmp_path / "o.csv")
    assert rc == 3
    assert "osc_cutoff >=" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_failed_eigensolve_exits_three(tmp_path, capsys, monkeypatch):
    # a LAPACK routine's nonzero info is a ConfigurationError, not a
    # traceback; every pump chain is bipartite, so pdc solves by dbdsdc
    monkeypatch.setitem(evolution._LAPACKE, "dbdsdc", lambda *args: 1)
    rc = run("pdc", "--variant", "degenerate", "--nbar", 0.5,
             "--gt", "0:1:3", "--out", tmp_path / "z.csv")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "LAPACK" in err
    assert "Traceback" not in err


def test_missing_openblas_exits_three(tmp_path, capsys, monkeypatch):
    # with no OpenBLAS LAPACKE in the process map, the first chain solve
    # names what is missing, and the command exits 3 with one error line
    maps = tmp_path / "maps"
    maps.write_text("")
    monkeypatch.setattr(evolution, "_LAPACKE",
                        evolution._find_lapacke(str(maps)))
    rc = run("pdc", "--variant", "degenerate", "--nbar", 0.5,
             "--gt", "0:1:3", "--out", tmp_path / "z.csv")
    assert rc == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    for routine in ("dstevd", "dsbevd", "dbdsdc_work"):
        assert "scipy_LAPACKE_%s64_" % routine in lines[0]
    assert not (tmp_path / "z.csv").exists()


def test_commands_start_without_scipy_linalg_or_special(tmp_path):
    # chains are solved by numpy's own OpenBLAS: after a command has run,
    # no scipy module is loaded, and the process maps one OpenBLAS, whose
    # thread pool runs both the products and the solves
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = (
        "import json, sys, nlmzi.cli\n"
        "rc = nlmzi.cli.main(['pdc', '--variant', 'degenerate', '--nbar',\n"
        "                     '3', '--gt', '0:3:5', '--out', sys.argv[1]])\n"
        "try:\n"
        "    with open('/proc/self/maps') as fh:\n"
        "        libs = sorted({ln.split(maxsplit=5)[5].strip() for ln in fh\n"
        "                       if 'openblas' in ln.lower()})\n"
        "except OSError:\n"
        "    libs = None\n"
        "print(json.dumps([rc, sorted(sys.modules), libs]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "p.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, loaded, libs = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0 and "nlmzi.cli" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]
    if sys.platform.startswith("linux"):
        assert libs is not None and len(libs) == 1, libs


def test_high_order_exchange_behind_flag(tmp_path):
    out = tmp_path / "k5.csv"
    rc = run("wc-sweep", "--process", "exchange", "--k", 5,
             "--allow-high-order", "--nbar", 0.2, "--theta", "0:1:3",
             "--out", out)
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 3


def test_vacuum_input_gives_zero_work(tmp_path):
    out = tmp_path / "z.csv"
    assert run("wc-sweep", "--process", "cross-kerr", "--nbar", 0.0,
               "--theta", "0:6:5", "--out", out) == 0
    _, rows = read_csv(out)
    assert all(float(r[1]) == 0.0 for r in rows)
    assert all(float(r[2]) == 0.0 for r in rows)


def test_max_efficiency_rows(tmp_path):
    out = tmp_path / "eff.csv"
    rc = run("max-efficiency", "--process", "cross-kerr",
             "--nbar", 0.5, 1.0, "--theta-max", 2 * np.pi,
             "--grid", 120, "--out", out)
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["nbar", "eta_max", "theta_star", "eta_max_times_nbar"]
    assert len(rows) == 2
    assert abs(float(rows[0][1]) - 0.1875) < 1e-6
    assert abs(float(rows[1][1]) - 2.0 / 9.0) < 1e-6
    for r in rows:
        assert abs(float(r[3]) - float(r[0]) * float(r[1])) < 1e-15


def test_max_efficiency_rows_do_not_depend_on_the_other_nbars(tmp_path):
    # every --nbar shares the kept block engine; a row must still be the
    # bytes of its single-nbar run from a cold engine, whether the shared
    # blocks were built for a smaller or a larger nbar first
    common = ("max-efficiency", "--process", "exchange", "--k", 2,
              "--theta-max", 6, "--grid", 100)
    multi = tmp_path / "multi.csv"
    assert run(*common, "--nbar", 1.0, 0.3, 2.0, "--out", multi) == 0
    rows = multi.read_text().splitlines()[1:]
    for nbar, row in zip((1.0, 0.3, 2.0), rows):
        single = tmp_path / ("single_%s.csv" % nbar)
        evolution.block_engine.cache_clear()
        assert run(*common, "--nbar", nbar, "--out", single) == 0
        assert single.read_text().splitlines()[1:] == [row]


def test_coherence_blank_cells_at_zero_mean(tmp_path):
    out = tmp_path / "coh.csv"
    rc = run("coherence", "--process", "cross-kerr", "--nbar", 1.0,
             "--theta", "0:3.14159265:5", "--out", out)
    assert rc == 0
    header, rows = read_csv(out)
    assert header[-1] == "g2_from_wc"
    assert rows[0][-1] == ""      # W = 0 at theta = 0: no finite estimate
    assert float(rows[-1][-1]) == pytest.approx(5.25, abs=1e-6)


def test_pdc_identity_at_zero_and_headers(tmp_path):
    out = tmp_path / "pdc.csv"
    rc = run("pdc", "--variant", "degenerate", "--nbar", 0.4,
             "--gt", "0:0.5:3", "--out", out)
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["gt"] + ["p%d" % i for i in range(9)] + ["W_signal"]
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)  # vacuum
    assert float(rows[0][-1]) < 1e-15
    man = json.loads((tmp_path / "pdc.csv.manifest.json").read_text())
    assert "pump_cutoff" in man["cutoffs"]


def test_optomech_roundtrip_smoke(tmp_path):
    out = tmp_path / "om.csv"
    rc = run("optomech", "--process", "cross-kerr", "--nbar", 0.5,
             "--t", np.pi, "--alpha", "1+0j", "--G", 0.02,
             "--tau", "0:12.6:24", "--out", out)
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["tau", "phonon_closed_form", "phonon_oracle", "xvar"]
    assert len(rows) == 24
    for r in rows:
        assert abs(float(r[1]) - float(r[2])) < 1e-7
    man = json.loads((tmp_path / "om.csv.manifest.json").read_text())
    assert man["wc_inferred"] == pytest.approx(man["wc_direct"], rel=1e-6)
    assert man["cutoffs"]["osc_cutoff"] > 0


@pytest.mark.parametrize("argv", [
    ("wc-sweep", "--process", "exchange", "--k", 2, "--nbar", 8,
     "--theta", "0:6.283:400"),
    ("pdc", "--variant", "degenerate", "--nbar", 3, "--gt", "0:3.1416:50"),
    ("optomech", "--process", "exchange", "--k", 2, "--nbar", 1, "--t", 1.3,
     "--alpha", "3+2j", "--tau", "0:12.6:24"),
    ("max-efficiency", "--process", "exchange", "--k", 2, "--nbar", 20,
     "--theta-max", 100, "--grid", 2000, "--tail-tol", "1e-3"),
    ("wc-sweep", "--process", "exchange", "--k", 3, "--nbar", 5,
     "--theta", "0:6.283:400"),
    ("wc-sweep", "--process", "exchange", "--k", 1, "--nbar", 5,
     "--theta", "0:6.283:400"),
    ("pdc", "--variant", "non-degenerate", "--nbar", 5, "--gt",
     "0:3.1416:50"),
    ("coherence", "--process", "cross-kerr", "--nbar", 0.5, "--theta",
     "0:6.283:8000"),
    ("max-efficiency", "--process", "cross-kerr", "--nbar", 40,
     "--theta-max", "6.283185307179586", "--grid", 100, "--tail-tol", "1e-3"),
    # the full-size pump, 567 levels, about 2 s a run
    ("pdc", "--variant", "degenerate", "--nbar", 20, "--gt", "0:3.1416:50"),
], ids=["wc-sweep-exchange", "pdc-degenerate", "optomech-exchange",
        "max-efficiency-exchange", "wc-sweep-exchange-k3",
        "wc-sweep-exchange-k1", "pdc-non-degenerate", "coherence-cross-kerr",
        "max-efficiency-cross-kerr", "pdc-degenerate-full"])
def test_bytes_do_not_depend_on_blas_threads(tmp_path, argv):
    # each thread count needs its own process: BLAS reads it at load time
    digests = set()
    for threads in ("1", "2"):
        out = tmp_path / ("threads%s.csv" % threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "nlmzi.cli"] + [str(a) for a in argv]
            + ["--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.add(sha(out))
    assert len(digests) == 1



def test_write_csv_rows_are_their_cells_formatted_one_by_one(tmp_path):
    # one % per row must give the bytes of _fmt cell by cell, an empty
    # cell for nan and None included
    rng = np.random.default_rng(4)
    cols = rng.normal(size=(5, 300)) * 10.0 ** rng.integers(-40, 40, (5, 300))
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e308]
    cols.flat[rng.integers(0, cols.size, 120)] = rng.choice(special, 120)
    rows = list(zip(*cols)) + [(None, 1, True, np.float32(0.1), 2.5),
                               [0.5, np.nan, 3, -0.0, 7]]
    out = tmp_path / "cells.csv"
    write_csv(str(out), ["a", "b", "c", "d", "e"], rows)
    want = "a,b,c,d,e\n" + "".join(
        ",".join(_fmt(v) for v in row) + "\n" for row in rows)
    assert out.read_text() == want
    assert ",," in want and "inf" in want and "-0," in want


FAULTS_SCRIPT = """
import contextlib, io, resource, sys
from nlmzi.cli import main
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_long_scan_reuses_its_sweep_buffers(tmp_path):
    # a cold exchange scan of 2000 thetas on 141 blocks: with fresh phase
    # and product arrays for every block, each a little larger than the
    # last and above malloc's mmap threshold, it faults in about 54000
    # zero-filled pages; the sweep's reused buffers left about 5500, and
    # with those buffers sized to a column tile of 1012 thetas about 3800
    argv = ["max-efficiency", "--process", "exchange", "--k", "2",
            "--nbar", "20", "--theta-max", "100", "--grid", "2000",
            "--tail-tol", "1e-3", "--out", str(tmp_path / "scan.csv")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT] + argv,
                          env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    assert int(proc.stdout) < 20000
