"""The midiblue tier: 50k+-cell vectorized-engine designs.

midiblue designs must be structurally valid (every check in
``repro.runtime.validate``), levelize without combinational cycles, be
deterministic per name, and run a few placer iterations in all three
Table 3 modes.  Loaded once per test session through the bundle cache -
generation at this scale is the expensive part.
"""

import numpy as np
import pytest

from repro.harness.runners import MODES, run_mode
from repro.harness.suite import MIDIBLUE, design_spec, load_design
from repro.netlist.cache import load_bundle
from repro.place.placer import PlacerOptions
from repro.runtime.validate import validate_design


@pytest.fixture(scope="module")
def midiblue50(tmp_path_factory):
    """The ~50k-cell design + prebuilt graph, via a module-local cache."""
    cdir = str(tmp_path_factory.mktemp("midiblue_cache"))
    bundle, _ = load_bundle(design_spec("midiblue50"), cdir)
    return bundle


class TestRegistry:
    def test_three_sizes_registered(self):
        assert [e.name for e in MIDIBLUE] == [
            "midiblue50",
            "midiblue120",
            "midiblue500",
        ]
        assert [e.n_cells for e in MIDIBLUE] == [50_000, 120_000, 500_000]

    def test_specs_use_the_vectorized_engine(self):
        for entry in MIDIBLUE:
            spec = design_spec(entry.name)
            assert spec.engine == "vectorized"
            assert spec.seed == entry.seed

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="midiblue50"):
            design_spec("nosuchdesign")


class TestMidiblue50:
    def test_scale(self, midiblue50):
        design = midiblue50.design
        # Within 25% of the 50k movable-cell target (ports/FF/collector
        # overhead lands on top of n_cells).
        assert 50_000 <= design.n_cells <= 75_000

    def test_validates_clean(self, midiblue50):
        report = validate_design(
            midiblue50.design, graph=midiblue50.graph
        )
        assert report.ok, report.format()

    def test_levelizes_acyclic(self, midiblue50):
        graph = midiblue50.graph
        assert graph.n_levels > 1
        # Every timing arc goes strictly forward in level order.
        assert np.all(
            graph.level[graph.c_dst] >= graph.level[graph.c_src]
        )

    def test_deterministic_per_name(self):
        a = load_design("midiblue50")
        b = load_design("midiblue50")
        np.testing.assert_array_equal(a.cell_x, b.cell_x)
        np.testing.assert_array_equal(a.pin2net, b.pin2net)

    @pytest.mark.parametrize("mode", MODES)
    def test_five_placer_iterations(self, midiblue50, mode):
        record = run_mode(
            midiblue50.design,
            mode,
            placer_options=PlacerOptions(max_iters=5),
            sta_graph=midiblue50.graph,
        )
        assert record.iterations >= 1
        assert np.isfinite(record.wns)
        assert np.isfinite(record.hpwl) and record.hpwl > 0
        assert record.x.shape == (midiblue50.design.n_cells,)

    def test_level_plan_memory_budget(self, midiblue50):
        """The forward levels every timer shares hold index arrays only:
        at most 16 MB here (about 5% of an ``ours`` run's peak RSS on
        this design), growing linearly in contributions + net arcs; what
        only golden STA or path tracing reads is built on its first use
        (``test_levelplan``)."""
        from repro.sta.graph import LevelPlan

        def size(graph):
            return len(graph.c_dst) + len(graph.net_sink)

        big = midiblue50.graph
        big_plan = LevelPlan(big)
        # The budget counts the per-graph LUT binding (flat table offsets
        # of every contribution, level bindings that are not views of
        # it), the start-pin boundary values, the net-sink mask and - once
        # built - the endpoint tables.
        big_plan.endpoints
        counted = {id(table) for table in big_plan._owned}
        bound = [big_plan.query.offset, big_plan.is_net_sink,
                 big_plan.start_at, big_plan.start_slew,
                 big_plan.endpoints.slots, big_plan.endpoints.setup_query.offset]
        for _, cell in big_plan.levels:
            if cell is not None:
                offset = cell.query.offset
                bound.append(offset if offset.base is None else offset.base)
        assert all(id(table) in counted for table in bound)
        assert big_plan.query.offset.dtype == np.int32
        assert big_plan.nbytes <= 16 * 2**20

        small = load_bundle(design_spec("miniblue18"))[0].graph
        per_arc_small = LevelPlan(small).nbytes / size(small)
        per_arc_big = LevelPlan(big).nbytes / size(big)
        assert size(big) > 20 * size(small)
        assert per_arc_big == pytest.approx(per_arc_small, rel=0.15)

    def test_forest_statics_memory_budget(self, midiblue50):
        """The integer tables a forest lays out for the Elmore kernels
        are int32 and linear in its nodes: at most 24 bytes a node (a
        forest is rebuilt every 10th iteration and the old one lives
        until the new one is done, so this is paid twice at the peak)."""
        from repro.route import build_forest

        design = midiblue50.design
        forest = build_forest(design, design.cell_x, design.cell_y)
        assert forest.n_nodes > 100_000
        assert forest.up.dtype == forest.level_parent[1].dtype == np.int32
        assert forest.statics_nbytes <= 24 * forest.n_nodes
        # The level tables of a two-seed Elmore adjoint, kept from its
        # first call on: int32 too, two rows of (node, parent) per
        # non-root node.
        forest.seed_steps(2)
        assert forest.statics_nbytes <= (24 + 2 * 2 * 4) * forest.n_nodes
