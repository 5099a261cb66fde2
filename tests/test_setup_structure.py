"""Set-up does per-type, not per-object, Python work.

Deterministic counts, no timing: how often ``LutBank.register`` runs
while a graph is built, and how many Python-level calls
``TimingGraph(design)`` and ``DesignBuilder.build()`` make, must follow
the number of cell types (and levels), not the number of cells, pins or
arcs.
"""

import gc
import sys

import pytest

from repro.harness.suite import design_spec
from repro.netlist import generator
from repro.netlist.design import DesignBuilder
from repro.netlist.generator import GeneratorSpec, generate_design
from repro.sta.graph import TimingGraph
from repro.sta.nldm import LutBank


def _python_calls(fn):
    """``fn()`` and the number of Python-level calls it made.

    With the collector off: finalizers that a collection would run in
    the middle of ``fn()`` are not ``fn``'s calls.
    """
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return result, calls


def test_luts_are_registered_per_type_not_per_arc(monkeypatch):
    design = generate_design(design_spec("midiblue50"))
    registered = []
    register = LutBank.register

    def counting(self, lut):
        registered.append(lut)
        return register(self, lut)

    monkeypatch.setattr(LutBank, "register", counting)
    graph = TimingGraph(design)
    # One call per table of every arc of the 12 cell types (80); it was
    # one per arc of every cell (397,640).
    assert len(graph.lutbank) == 80
    assert len(registered) <= 200


def _generate_counting(n_cells, monkeypatch):
    """(design, Python calls of build(), of TimingGraph) for one spec size."""
    build_calls = []

    class Counting(DesignBuilder):
        def build(self):
            design, calls = _python_calls(super().build)
            build_calls.append(calls)
            return design

    monkeypatch.setattr(generator, "DesignBuilder", Counting)
    design = generate_design(
        GeneratorSpec(name="grow", n_cells=n_cells, depth=8, seed=4, engine="vectorized")
    )
    graph, graph_calls = _python_calls(lambda: TimingGraph(design))
    return design, graph, build_calls[0], graph_calls


def test_python_calls_do_not_grow_with_the_design(monkeypatch):
    small, g_small, build_small, graph_small = _generate_counting(1000, monkeypatch)
    large, g_large, build_large, graph_large = _generate_counting(4000, monkeypatch)
    assert large.n_pins > 3 * small.n_pins
    assert len(g_large.c_dst) > 3 * len(g_small.c_dst)
    # build() has no data-dependent Python at all.
    assert build_large == build_small < 300
    # The graph's only size-dependent Python is levelize's one wave per
    # level (~20 calls each, NumPy's Python wrappers included).
    waves = abs(g_large.n_levels - g_small.n_levels)
    assert abs(graph_large - graph_small) <= 30 * waves
    assert graph_large < 3000
