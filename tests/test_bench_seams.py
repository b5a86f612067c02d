"""The names the benchmark tracer interposes on still exist and still run.

bench/tracer.py wraps nlmzi functions by name and its counter hooks read
engine attributes. A refactor that renames one, or stops calling it,
would otherwise only show up as a failed or zeroed benchmark layer.
"""

import importlib
import importlib.util
import os

from nlmzi import evolution as ev
from nlmzi.operators import CrossPhase, DegeneratePDC, Exchange, Hybrid

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                           "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    for home, attr, _ in tracer.TARGETS:
        holder = importlib.import_module("nlmzi." + home)
        for part in attr.split("."):
            holder = getattr(holder, part)
        assert callable(holder), (home, attr)
    for home, attr in tracer.HOOKS:
        assert (home, attr) in {(h, a) for h, a, _ in tracer.TARGETS}


def test_hooked_engine_attributes_exist():
    assert isinstance(ev.BlockEngine(Exchange(k=2))._blocks, dict)
    assert isinstance(ev.GenericEngine(DegeneratePDC())._components, dict)


def test_block_sweeps_reach_the_generator_layer():
    # every block process builds its blocks from the one generator band
    tracer = _load_tracer()
    hybrid = Hybrid(terms=((0.7, CrossPhase()), (0.4, Exchange(k=2))))
    for process in (Exchange(k=2), CrossPhase(), hybrid):
        ev.block_engine.cache_clear()  # a kept engine would build nothing
        with tracer.Tracer() as t:
            ev.sweep_distributions(process, 1.0, [0.5, 1.0], 1e-4)
        calls = t.summary()
        for layer in ("operators.generator", "evolution.build",
                      "evolution.sweep", "evolution.reduce"):
            assert calls.get(layer, {"calls": 0})["calls"] > 0, (process,
                                                                 layer)
        assert t.counts["evolution.sweep_calls"] > 0
