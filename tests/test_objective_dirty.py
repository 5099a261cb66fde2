"""Dirty-net incremental forest rebuilds (TimingObjective + Forest.splice).

The policy's contract: between full RSMT rebuilds, only nets whose pins
drifted past the threshold are re-routed and spliced into the cached
forest - and the spliced forest is *exactly* the forest a fresh build
from each net's build-time pin coordinates would produce, so Elmore
delays, telemetry counters, and checkpoint/resume schedules all stay
deterministic.
"""

import glob
import json
import os

import numpy as np
import pytest

from repro.core.objective import TimingObjective, TimingObjectiveOptions
from repro.core.timing_placer import TimingDrivenPlacer, TimingPlacerOptions
from repro.place.placer import PlacerOptions
from repro.route.rsmt import build_forest, build_forest_from_pins
from repro.sta.elmore import elmore_forward, node_caps
from repro.telemetry.events import MetricsRecorder, recording


def _options(**kw):
    defaults = dict(start_iteration=0, rsmt_period=10)
    defaults.update(kw)
    return TimingObjectiveOptions(**defaults)


def _forests_equal(a, b) -> bool:
    for attr in (
        "parent",
        "node_net",
        "node_pin",
        "owner_x_pin",
        "owner_y_pin",
        "depth",
        "node_offset",
        "is_root",
    ):
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            return False
    return True


def _elmore_delays(design, forest, x, y):
    px, py = design.pin_positions(x, y)
    nx, ny = forest.node_coords(px, py)
    caps = node_caps(forest, design.pin_cap)
    return elmore_forward(forest, nx, ny, caps, design.library.wire).delay


def _moved(design, rng, x, y, frac=0.05, dist=30.0):
    idx = rng.choice(
        design.n_cells, size=max(int(design.n_cells * frac), 1), replace=False
    )
    x2, y2 = x.copy(), y.copy()
    x2[idx] += rng.uniform(dist / 2, dist, len(idx))
    y2[idx] -= rng.uniform(dist / 2, dist, len(idx))
    return x2, y2


class TestSplicePolicy:
    def test_clean_positions_do_not_rebuild(self, small_design):
        obj = TimingObjective(small_design, _options(rsmt_dirty_threshold=1.0))
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        obj.forest_for(x, y, 0)
        obj.forest_for(x, y, 1)  # identical positions: nothing dirty
        assert obj.n_rsmt_calls == 1
        assert obj.n_dirty_nets == 0
        assert obj.n_rsmt_reuses == 1

    def test_splice_equals_snapshot_rebuild(self, small_design):
        """The spliced forest == a fresh build from per-pin snapshots."""
        obj = TimingObjective(small_design, _options(rsmt_dirty_threshold=1.0))
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        obj.forest_for(x, y, 0)
        x2, y2 = _moved(small_design, rng, x, y)
        forest = obj.forest_for(x2, y2, 1)
        assert obj.n_dirty_nets > 0
        ref = build_forest_from_pins(
            small_design, obj._built_px, obj._built_py
        )
        assert _forests_equal(forest, ref)

    def test_threshold_zero_splice_matches_full_rebuild_elmore(
        self, small_design
    ):
        """threshold=0 + full_frac>1 forces every moved net through the
        splice path; the result must match a forced full rebuild at the
        current coordinates, down to identical Elmore delays."""
        obj = TimingObjective(
            small_design,
            _options(rsmt_dirty_threshold=0.0, rsmt_dirty_full_frac=2.0),
        )
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        obj.forest_for(x, y, 0)
        x2 = x + rng.uniform(0.5, 4.0, small_design.n_cells)
        y2 = y - rng.uniform(0.5, 4.0, small_design.n_cells)
        spliced = obj.forest_for(x2, y2, 1)
        full = build_forest(small_design, x2, y2)
        assert _forests_equal(spliced, full)
        d_spliced = _elmore_delays(small_design, spliced, x2, y2)
        d_full = _elmore_delays(small_design, full, x2, y2)
        np.testing.assert_array_equal(d_spliced, d_full)

    def test_full_rebuild_fallback_when_most_nets_dirty(self, small_design):
        obj = TimingObjective(
            small_design,
            _options(rsmt_dirty_threshold=0.0, rsmt_dirty_full_frac=0.25),
        )
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        obj.forest_for(x, y, 0)
        assert obj.n_rsmt_calls == 1
        # Move everything: the dirty fraction exceeds 25% and the policy
        # promotes to a full rebuild (restarting the period counter).
        obj.forest_for(x + 5.0, y + 5.0, 1)
        assert obj.n_rsmt_calls == 2
        assert obj._iters_since_rsmt == 1

    def test_disabled_by_default_keeps_legacy_schedule(self, small_design):
        obj = TimingObjective(small_design, _options())
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        obj.forest_for(x, y, 0)
        for i in range(1, 10):
            obj.forest_for(x + i, y + i, i)  # moving, but threshold off
        assert obj.n_rsmt_calls == 1
        assert obj.n_rsmt_reuses == 9
        assert obj.n_dirty_nets == 0


class TestTelemetryCounters:
    def test_dirty_counters_stream_to_jsonl(self, small_design, tmp_path):
        path = str(tmp_path / "events.jsonl")
        obj = TimingObjective(small_design, _options(rsmt_dirty_threshold=1.0))
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        recorder = MetricsRecorder(path)
        with recording(recorder):
            obj.forest_for(x, y, 0)
            x2, y2 = _moved(small_design, rng, x, y)
            obj.forest_for(x2, y2, 1)
        recorder.close()
        events = [json.loads(line) for line in open(path)]
        names = {e.get("name") for e in events}
        assert "rsmt_rebuilds" in names
        assert "rsmt_dirty_nets" in names
        assert "rsmt_rebuilt_nets" in names
        dirty = [e for e in events if e.get("name") == "rsmt_dirty_nets"]
        assert dirty[-1]["value"] == obj.n_dirty_nets


class TestCheckpointReplay:
    def test_state_roundtrip_restores_spliced_forest(self, small_design):
        opts = _options(rsmt_dirty_threshold=1.0)
        obj = TimingObjective(small_design, opts)
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        obj.forest_for(x, y, 0)
        x2, y2 = _moved(small_design, rng, x, y)
        forest = obj.forest_for(x2, y2, 1)

        restored = TimingObjective(small_design, opts)
        restored.set_state(obj.get_state())
        assert _forests_equal(restored._forest, forest)
        assert restored.n_dirty_nets == obj.n_dirty_nets
        assert restored.n_rebuilt_nets == obj.n_rebuilt_nets

        # The next call must make the same rebuild decision on both.
        x3, y3 = _moved(small_design, rng, x2, y2)
        fa = obj.forest_for(x3, y3, 2)
        fb = restored.forest_for(x3, y3, 2)
        assert _forests_equal(fa, fb)
        assert restored.n_dirty_nets == obj.n_dirty_nets

    def test_legacy_state_without_pin_snapshot_still_loads(self, small_design):
        obj = TimingObjective(small_design, _options())
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 120, small_design.n_cells)
        y = rng.uniform(0, 120, small_design.n_cells)
        obj.forest_for(x, y, 0)
        state = obj.get_state()
        state.pop("built_pin_coords")  # pre-dirty-net checkpoint shape
        restored = TimingObjective(small_design, _options())
        restored.set_state(state)
        assert _forests_equal(restored._forest, obj._forest)

    def test_placer_resume_replays_dirty_schedule(self, small_design, tmp_path):
        """Kill/resume with the dirty policy on: same final positions,
        same cumulative dirty/rebuild counters (the rebuild schedule is a
        pure function of the replayed trajectory)."""
        timing = _options(
            start_iteration=5, rsmt_dirty_threshold=0.5, rsmt_period=8
        )
        popts = PlacerOptions(
            max_iters=30, min_iters=5, seed=3,
            checkpoint_every=10, checkpoint_dir=str(tmp_path),
        )
        placer = TimingDrivenPlacer(
            small_design, TimingPlacerOptions(placer=popts, timing=timing)
        )
        full = placer.run()
        counters_full = (
            placer.objective.n_dirty_nets,
            placer.objective.n_rebuilt_nets,
        )
        assert counters_full[1] > 0
        files = glob.glob1(str(tmp_path), "*iter000010*")
        assert files, "expected a checkpoint at iteration 10"
        checkpoint = str(tmp_path / files[0])

        resumed_placer = TimingDrivenPlacer(
            small_design,
            TimingPlacerOptions(
                placer=PlacerOptions(
                    max_iters=30, min_iters=5, seed=3, resume_from=checkpoint
                ),
                timing=timing,
            ),
        )
        resumed = resumed_placer.run()
        np.testing.assert_array_equal(full.x, resumed.x)
        np.testing.assert_array_equal(full.y, resumed.y)
        counters_resumed = (
            resumed_placer.objective.n_dirty_nets,
            resumed_placer.objective.n_rebuilt_nets,
        )
        assert counters_resumed == counters_full

    def test_parent_written_checkpoint_resumes_bit_identically(self, small_design):
        """A checkpoint written before the array-native forest build (the
        fixture comes from the PR 12 tree: iteration 20 of a 40-iteration
        `ours` run with dirty-net splicing) resumes to that tree's exact
        final positions and counters - the forests are bit-identical, so
        neither the format nor the trajectory moved."""
        data = os.path.join(os.path.dirname(__file__), "data")
        final = np.load(os.path.join(data, "ours_parent_pr12_final.npz"))
        timing = _options(
            start_iteration=5, rsmt_period=4, rsmt_dirty_threshold=0.5
        )

        def run(**placer_opts):
            placer = TimingDrivenPlacer(
                small_design,
                TimingPlacerOptions(
                    placer=PlacerOptions(
                        max_iters=40, min_iters=5, seed=3, **placer_opts
                    ),
                    timing=timing,
                ),
            )
            result = placer.run()
            obj = placer.objective
            return result, [obj.n_rsmt_calls, obj.n_dirty_nets, obj.n_rebuilt_nets]

        resumed, counters = run(
            resume_from=os.path.join(data, "ours_parent_pr12_iter20.ckpt")
        )
        np.testing.assert_array_equal(resumed.x, final["x"])
        np.testing.assert_array_equal(resumed.y, final["y"])
        assert counters == final["counters"].tolist()
        fresh, counters = run()
        np.testing.assert_array_equal(fresh.x, final["x"])
        np.testing.assert_array_equal(fresh.y, final["y"])
        assert counters == final["counters"].tolist()
