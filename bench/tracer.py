"""Spans and counters interposed at nlmzi's module boundaries.

The tracer replaces module and class attributes of the installed package
with timing wrappers for the duration of a `with Tracer(...)` block and
puts the originals back on exit, so no file under `src/` carries timing
code. A span is (name, start, end, parent index); spans stay in memory
and are reduced to per-layer metrics once the run is over.

Every binding of a wrapped function inside the package is replaced, not
just the one in its home module: `thermo` and `coherence` import
`sweep_distributions` by name, and the call from `thermo.wc_sweep` goes
through thermo's own binding.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# (home module, attribute, span name). Call sites that share a span name
# form one layer.
TARGETS = [
    ("fock", "thermal_distribution", "fock.truncate"),
    ("fock", "thermal_cutoff", "fock.truncate"),
    ("operators", "_jx_factorization", "operators.jx"),
    ("operators", "process_generator", "operators.generator"),
    ("evolution", "eig_banded", "operators.generator"),
    ("evolution", "BlockEngine._build", "evolution.build"),
    ("evolution", "BlockEngine.amplitudes", "evolution.sweep"),
    ("evolution", "BlockEngine.probs", "evolution.sweep"),
    ("evolution", "sweep_distributions", "evolution.reduce"),
    ("evolution", "mzi_output", "evolution.reduce"),
    ("evolution", "pdc_signal_sweep", "evolution.pdc"),
    ("evolution", "GenericEngine.evolve", "evolution.generic_evolve"),
    ("evolution", "GenericEngine._component", "evolution.generic_evolve"),
    ("evolution", "GenericEngine.mode_distributions",
     "evolution.generic_reduce"),
    ("thermo", "wc_sweep", "thermo.analysis"),
    ("thermo", "max_efficiency", "thermo.analysis"),
    ("thermo", "ergotropy", "thermo.ergotropy"),
    ("coherence", "coherence_report", "coherence.report"),
    ("optomech", "full_quantum_oracle", "optomech.oracle"),
    ("optomech", "phonon_trace_coherent", "optomech.closed_form"),
    ("optomech", "infer_wc", "optomech.infer"),
    ("cli", "write_csv", "cli.csv"),
    ("cli", "write_manifest", "cli.manifest"),
    ("cli", "sha256_of", "cli.digest"),
]

# Span name of each command the harness runs; its self time is the CLI's
# own work (argument parsing, per-row loops) outside every wrapped call.
COMMAND_SPAN = "cli.other"

# Layers whose self times partition a traced command: summed with the
# untraced gaps between commands they give the traced wall time. The
# reported evolution.pdc_s is inclusive instead (pdc_signal_sweep with its
# generic-engine split), so it is not one of these parts.
SELF_BUCKETS = sorted({name for _, _, name in TARGETS} | {COMMAND_SPAN})


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_jx(c, args, kwargs, pre, out):
    c["operators.jx_calls"] += 1
    c["operators.jx_rows"] += _arg(args, kwargs, 0, "N") + 1


def _pre_amplitudes(args, kwargs):
    engine, N = args[0], _arg(args, kwargs, 1, "N")
    return N in engine._blocks


def _count_amplitudes(c, args, kwargs, hit, out):
    c["evolution.sweep_calls"] += 1
    c["evolution.cache_hits"] += bool(hit)
    c["evolution.sweep_cells"] += out.size


def _pre_component(args, kwargs):
    return _arg(args, kwargs, 1, "initial") in args[0]._components


def _count_component(c, args, kwargs, hit, out):
    if not hit:
        c["evolution.generic_components"] += 1
        c["evolution.generic_states"] += len(out[0])


def _count_truncate(c, args, kwargs, pre, out):
    c["fock.blocks"] += len(out)


def _count_wc_sweep(c, args, kwargs, pre, out):
    c["thermo.sweep_calls"] += 1
    c["thermo.theta_points"] += len(out.thetas)


def _count_calls(key):
    def count(c, args, kwargs, pre, out):
        c[key] += 1
    return count


def _count_oracle(c, args, kwargs, pre, out):
    levels = len(_arg(args, kwargs, 0, "dist"))
    c["optomech.oracle_levels"] += levels * (
        _arg(args, kwargs, 2, "osc_cutoff") + 1)


def _count_csv(c, args, kwargs, pre, out):
    c["cli.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Counters reported as they are; the hooks below fill them.
COUNT_METRICS = [
    "fock.blocks", "operators.jx_calls", "operators.jx_rows",
    "evolution.sweep_calls", "evolution.sweep_cells",
    "evolution.generic_components", "evolution.generic_states",
    "thermo.sweep_calls", "thermo.theta_points", "thermo.ergotropy_calls",
    "coherence.report_calls", "optomech.oracle_levels", "cli.csv_bytes",
]

# (module, attribute) -> (pre hook or None, counter hook)
HOOKS = {
    ("operators", "_jx_factorization"): (None, _count_jx),
    ("evolution", "BlockEngine.amplitudes"): (_pre_amplitudes,
                                              _count_amplitudes),
    ("evolution", "GenericEngine._component"): (_pre_component,
                                                _count_component),
    ("fock", "thermal_distribution"): (None, _count_truncate),
    ("thermo", "wc_sweep"): (None, _count_wc_sweep),
    ("thermo", "ergotropy"): (None, _count_calls("thermo.ergotropy_calls")),
    ("coherence", "coherence_report"): (
        None, _count_calls("coherence.report_calls")),
    ("optomech", "full_quantum_oracle"): (None, _count_oracle),
    ("cli", "write_csv"): (None, _count_csv),
}


class Tracer:
    """Context manager that interposes spans on the nlmzi package."""

    command_span = COMMAND_SPAN

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._patched = []     # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def _wrap(self, fn, name, hooks):
        pre, count = hooks if hooks else (None, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            idx, parent = tracer._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, start)
            if count:
                count(tracer.counts, args, kwargs, state, out)
            return out
        return wrapper

    # -- interposition -----------------------------------------------------

    def __enter__(self):
        modules = {n.rsplit(".", 1)[-1]: m
                   for n, m in sorted(sys.modules.items())
                   if m and (n == "nlmzi" or n.startswith("nlmzi."))}
        try:
            for home, spec, name in TARGETS:
                hooks = HOOKS.get((home, spec))
                if "." in spec:
                    cls_name, attr = spec.split(".")
                    bindings = [vars(modules[home])[cls_name]]
                else:
                    attr = spec
                    original = vars(modules[home])[attr]
                    bindings = [m for m in modules.values()
                                if vars(m).get(attr) is original]
                for holder in bindings:
                    original = vars(holder)[attr]
                    setattr(holder, attr, self._wrap(original, name, hooks))
                    self._patched.append((holder, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_times(self):
        """Self time per span name: duration minus the child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def summary(self):
        """{span name: {"calls": n, "self_s": s}}, the spans written out."""
        selfs = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        return {name: {"calls": calls[name], "self_s": selfs[name]}
                for name in sorted(calls)}

    def inclusive(self, name):
        """Summed duration of the outermost spans called name."""
        total = 0.0
        for name_i, start, end, parent in self.spans:
            if name_i == name and (parent < 0
                                   or self.spans[parent][0] != name):
                total += end - start
        return total

    def covered(self):
        """Time covered by the top-level spans."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


def layer_metrics(tracer, wall):
    """Per-layer metrics of one traced command window of `wall` seconds."""
    selfs = tracer.self_times()
    c = tracer.counts
    m = {"%s_s" % b: selfs.get(b, 0.0) for b in SELF_BUCKETS}
    m["evolution.pdc_s"] = tracer.inclusive("evolution.pdc")
    calls = c["evolution.sweep_calls"]
    sweep_s = m["evolution.sweep_s"]
    m["evolution.cache_hit_ratio"] = c["evolution.cache_hits"] / calls \
        if calls else 0.0
    m["evolution.sweep_cells_per_s"] = c["evolution.sweep_cells"] / sweep_s \
        if sweep_s > 0 else 0.0
    for key in COUNT_METRICS:
        m[key] = float(c[key])
    m["trace.gap_s"] = wall - tracer.covered()
    m["trace.layer_self_s"] = sum(selfs.values())
    return m

