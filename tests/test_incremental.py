"""Validation of the incremental STA engine against full re-analysis."""

import numpy as np
import pytest

from repro.sta import IncrementalTimer, run_sta


@pytest.fixture()
def timer(small_design, spread_positions):
    x, y = spread_positions
    t = IncrementalTimer(small_design)
    t.reset(x, y)
    return t


class TestBaseline:
    def test_reset_matches_golden(self, timer, small_design, spread_positions):
        x, y = spread_positions
        ref = run_sta(small_design, x, y)
        assert timer.wns == pytest.approx(ref.wns_setup)
        assert timer.tns == pytest.approx(ref.tns_setup)
        np.testing.assert_allclose(timer.ep_slack, ref.endpoint_slack)

    def test_verify_passes_initially(self, timer):
        assert timer.verify()

    def test_verify_report_fields_on_pass(self, timer):
        from repro.sta import VerifyReport

        report = timer.verify()
        assert isinstance(report, VerifyReport)
        assert report.ok and bool(report)
        assert report.n_endpoints == len(timer.ep_slack)
        assert "OK" in str(report)

    def test_verify_report_names_worst_endpoint_on_mismatch(
        self, timer, small_design
    ):
        # Corrupt one endpoint's cached slack: verify must fail and point
        # at that exact endpoint with the deviation magnitude.
        k = 2
        timer.ep_slack[k] += 123.0
        timer._refresh_totals()
        report = timer.verify()
        assert not report
        pin = int(timer.graph.endpoint_pins[k])
        assert report.worst_endpoint_pin == pin
        assert report.worst_endpoint_name == small_design.pin_name[pin]
        assert report.worst_slack_delta == pytest.approx(123.0)
        assert "FAILED" in str(report)
        assert report.worst_endpoint_name in str(report)


class TestSingleMoves:
    def test_random_moves_match_golden(self, timer, small_design):
        rng = np.random.default_rng(3)
        movable = np.nonzero(~small_design.cell_fixed)[0]
        xl, yl, xh, yh = small_design.die
        for _ in range(12):
            ci = int(rng.choice(movable))
            nx = float(np.clip(timer.x[ci] + rng.normal(0, 5), xl, xh))
            ny = float(np.clip(timer.y[ci] + rng.normal(0, 5), yl, yh))
            wns, tns = timer.move([ci], [nx], [ny])
            ref = run_sta(small_design, timer.x, timer.y)
            assert wns == pytest.approx(ref.wns_setup, abs=1e-6)
            assert tns == pytest.approx(ref.tns_setup, abs=1e-5)

    def test_null_move_is_identity(self, timer):
        wns0, tns0 = timer.wns, timer.tns
        ci = int(np.nonzero(~timer.design.cell_fixed)[0][0])
        timer.move([ci], [timer.x[ci]], [timer.y[ci]])
        assert timer.wns == pytest.approx(wns0)
        assert timer.tns == pytest.approx(tns0)

    def test_move_and_undo_restores_state(self, timer, small_design):
        rng = np.random.default_rng(4)
        movable = np.nonzero(~small_design.cell_fixed)[0]
        cells = rng.choice(movable, 4, replace=False)
        old_x = timer.x[cells].copy()
        old_y = timer.y[cells].copy()
        at0 = timer.at.copy()
        slew0 = timer.slew.copy()
        wns0, tns0 = timer.wns, timer.tns
        timer.move(cells, old_x + 4.0, old_y - 3.0)
        timer.move(cells, old_x, old_y)
        assert timer.wns == pytest.approx(wns0, abs=1e-9)
        assert timer.tns == pytest.approx(tns0, abs=1e-8)
        np.testing.assert_allclose(timer.at, at0, atol=1e-8)
        np.testing.assert_allclose(timer.slew, slew0, atol=1e-8)

    def test_moving_critical_cell_changes_wns(self, timer, small_design):
        # Find a cell on the worst path and yank it far away.
        from repro.sta import StaticTimingAnalyzer, worst_paths

        sta = StaticTimingAnalyzer(small_design, timer.graph)
        res = sta.run(timer.x, timer.y)
        path = worst_paths(res, 1)[0]
        cell = next(
            int(small_design.pin2cell[p.pin])
            for p in path.points
            if not small_design.cell_fixed[small_design.pin2cell[p.pin]]
        )
        wns0 = timer.wns
        xl, yl, xh, yh = small_design.die
        timer.move([cell], [xl + 1.0], [yl + 1.0])
        assert timer.wns != pytest.approx(wns0)

    def test_batch_move_matches_golden(self, timer, small_design):
        rng = np.random.default_rng(5)
        movable = np.nonzero(~small_design.cell_fixed)[0]
        cells = rng.choice(movable, 6, replace=False)
        timer.move(cells, timer.x[cells] + 2.0, timer.y[cells] - 2.0)
        ref = run_sta(small_design, timer.x, timer.y)
        assert timer.wns == pytest.approx(ref.wns_setup, abs=1e-6)
        assert timer.tns == pytest.approx(ref.tns_setup, abs=1e-5)


class TestEfficiency:
    def test_recompute_count_is_local(self, timer, small_design):
        """A single move should touch far fewer pins than the design has."""
        rng = np.random.default_rng(6)
        movable = np.nonzero(~small_design.cell_fixed)[0]
        before = timer.n_pins_recomputed
        ci = int(rng.choice(movable))
        timer.move([ci], [timer.x[ci] + 1.0], [timer.y[ci]])
        touched = timer.n_pins_recomputed - before
        assert touched < small_design.n_pins / 2

    def test_fixed_port_move_rejected_semantics(self, timer, small_design):
        """Moving a port is allowed by the API (caller decides legality);
        the timing update must still be exact."""
        ports = np.nonzero(small_design.cell_is_port)[0]
        pi = int(ports[1])
        timer.move([pi], [timer.x[pi] + 1.0], [timer.y[pi]])
        ref = run_sta(small_design, timer.x, timer.y)
        assert timer.wns == pytest.approx(ref.wns_setup, abs=1e-6)


class TestVerify:
    def test_verify_after_moves(self, timer, small_design):
        """verify() cross-checks slacks, WNS *and* TNS after real moves."""
        rng = np.random.default_rng(9)
        movable = np.nonzero(~small_design.cell_fixed)[0]
        cells = rng.choice(movable, 5, replace=False)
        timer.move(cells, timer.x[cells] + 3.0, timer.y[cells] - 2.0)
        assert timer.verify()

    def test_verify_catches_corrupted_tns(self, timer):
        """TNS is part of the cross-check (it used to be skipped)."""
        timer.tns -= 10.0
        assert not timer.verify()

    def test_verify_catches_corrupted_wns(self, timer):
        timer.wns -= 10.0
        assert not timer.verify()


class TestBatchedSweepEquivalence:
    def test_batched_level_matches_scalar_recompute(
        self, timer, small_design, spread_positions
    ):
        """The engine restricted to the pins of a level equals the scalar
        oracle ``_recompute_pin`` on every pin, and - swept over every
        level from a blank state - the full golden sweep bit for bit."""
        from repro.core.propagate import propagate

        plan, g = timer.plan, timer.graph
        has_fanin = plan.net_arc_of >= 0
        has_fanin[g.c_dst] = True
        for level_pins in plan.level_pins:
            expected = [timer._recompute_pin(int(p)) for p in level_pins]
            # Stale values must be overwritten (start points keep theirs).
            timer.at[level_pins[has_fanin[level_pins]]] += 7.0
            tape = propagate(
                plan, g.lutbank, timer.net_delay, timer.impulse2,
                timer.driver_load, timer.at, timer.slew, "max",
                pins=level_pins,
            )
            assert tape.cand.shape == (2, len(plan.fanin(level_pins)))
            for p, (at, slew) in zip(level_pins, expected):
                np.testing.assert_allclose(timer.at[p], at, atol=1e-12)
                np.testing.assert_allclose(timer.slew[p], slew, atol=1e-12)

        full = run_sta(small_design, *spread_positions)
        at = np.full_like(full.at, -1e30)
        slew = np.zeros_like(full.slew)
        at[g.start_pins] = g.start_at[g.start_pins]
        slew[g.start_pins] = g.start_slew[g.start_pins]
        for level_pins in plan.level_pins:
            propagate(
                plan, g.lutbank, full.net_delay, full.impulse**2,
                full.driver_load, at, slew, "max", pins=level_pins,
            )
        assert np.array_equal(at, full.at)
        assert np.array_equal(slew, full.slew)

    def test_batched_endpoint_slacks_match_scalar(self, timer):
        g = timer.graph
        expected = np.array(
            [timer._endpoint_slack(int(p)) for p in g.endpoint_pins]
        )
        timer.ep_slack[:] = 0.0
        timer._refresh_endpoint_slacks(g.endpoint_pins)
        np.testing.assert_allclose(timer.ep_slack, expected, atol=1e-12)


class TestOneRoutingPolicy:
    """Re-routed nets and the `reset`/`verify` baseline share one builder
    and one Steiner policy (`repro.route.MAX_STEINER_DEGREE`); there is
    no per-timer knob to make them differ."""

    def test_no_policy_knobs(self, small_design):
        from repro.route import build_forest, build_forest_from_pins, build_rsmt

        with pytest.raises(TypeError):
            IncrementalTimer(small_design, max_steiner_degree=8)
        px, py = small_design.pin_positions()
        with pytest.raises(TypeError):
            build_forest(small_design, max_steiner_degree=8)
        with pytest.raises(TypeError):
            build_forest_from_pins(small_design, px, py, max_candidates=16)
        with pytest.raises(TypeError):
            build_rsmt(px[:12], py[:12], np.arange(12), max_steiner_degree=24)

    def test_moves_on_high_degree_nets_verify(self, timer, small_design):
        # Degree-18/19 nets sit in a padded plain-RMST bucket; moving their
        # cells re-routes them through the sub-forest build, which must
        # give the trees the full re-analysis builds.
        design = small_design
        big = np.nonzero((design.net_degrees >= 9) & ~design.net_is_clock)[0]
        assert len(big)
        rng = np.random.default_rng(9)
        xl, yl, xh, yh = design.die
        for ni in big:
            cells = np.unique(design.pin2cell[design.net_pins(int(ni))])
            cells = cells[~design.cell_fixed[cells]][:3]
            timer.move(
                cells, rng.uniform(xl, xh, len(cells)), rng.uniform(yl, yh, len(cells))
            )
            assert timer.verify()
