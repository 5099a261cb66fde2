"""End-to-end integration: every stage of the flow chained on one design.

generate -> timing-driven GP -> legalize -> bundle save/load -> sign-off
STA (hold, propagated clock, worst paths), with cross-stage invariants
asserted at every hand-off.  This is the test that fails first when an
interface between subsystems drifts.
"""

import numpy as np
import pytest

from repro.core import TimingDrivenPlacer, TimingPlacerOptions
from repro.netlist import (
    GeneratorSpec,
    generate_design,
    load_design_bundle,
    save_design,
)
from repro.place import GlobalPlacer, PlacerOptions, legalize, max_overlap
from repro.sta import run_sta, worst_paths


@pytest.fixture(scope="module")
def flow_state(tmp_path_factory):
    design = generate_design(
        GeneratorSpec(name="integration", n_cells=220, depth=8, seed=99)
    )
    state = {"design": design}

    gp = TimingDrivenPlacer(
        design,
        TimingPlacerOptions(placer=PlacerOptions(max_iters=500), sta_in_trace=False),
    ).run()
    state["gp"] = gp

    lx, ly = legalize(design, gp.x, gp.y)
    state["legal"] = (lx, ly)

    bundle = str(tmp_path_factory.mktemp("flow_bundle"))
    save_design(design, bundle, lx, ly)
    state["bundle"] = bundle
    return state


class TestFlowInvariants:
    def test_global_placement_converged(self, flow_state):
        assert flow_state["gp"].stop_reason == "overflow"

    def test_gp_beats_wirelength_only_on_timing(self, flow_state):
        design = flow_state["design"]
        base = GlobalPlacer(design, PlacerOptions(max_iters=500)).run()
        r_base = run_sta(design, base.x, base.y)
        r_ours = run_sta(design, flow_state["gp"].x, flow_state["gp"].y)
        assert r_ours.tns_setup > r_base.tns_setup

    def test_each_stage_legal_and_in_die(self, flow_state):
        design = flow_state["design"]
        lx, ly = flow_state["legal"]
        assert max_overlap(design, lx, ly) < 1e-9
        xl, yl, xh, yh = design.die
        assert (lx >= xl - 1e-9).all() and (lx <= xh + 1e-9).all()
        assert (ly >= yl - 1e-9).all() and (ly <= yh + 1e-9).all()

    def test_bundle_roundtrip_preserves_final_timing(self, flow_state):
        design = flow_state["design"]
        lx, ly = flow_state["legal"]
        reference = run_sta(design, lx, ly)
        reloaded, x, y = load_design_bundle(flow_state["bundle"])
        result = run_sta(reloaded)
        assert reloaded.n_cells == design.n_cells
        # The bundle stores positions to 1e-3 um.
        assert np.allclose(x, lx, atol=1e-3) and np.allclose(y, ly, atol=1e-3)
        assert result.wns_setup == pytest.approx(reference.wns_setup, rel=0.02)
        assert result.tns_setup == pytest.approx(reference.tns_setup, rel=0.02)

    def test_reports_work_on_final_design(self, flow_state):
        reloaded, x, y = load_design_bundle(flow_state["bundle"])
        result = run_sta(reloaded, x, y, compute_hold=True, propagated_clock=True)
        assert np.isfinite(result.wns_setup) and np.isfinite(result.tns_setup)
        assert np.isfinite(result.wns_hold) and np.isfinite(result.tns_hold)
        assert result.clock is not None and result.clock.skew >= 0.0
        paths = worst_paths(result, 2)
        assert len(paths) == 2
