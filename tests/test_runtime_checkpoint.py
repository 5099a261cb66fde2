"""Checkpoint/restart tests (repro.runtime.checkpoint + placer resume).

Covers the file format round-trip, the manager's retention policy, and
the headline property: killing a run and resuming from its last
checkpoint reproduces the remaining trajectory bit for bit.
"""

import glob
import os

import numpy as np
import pytest

from repro.place.placer import GlobalPlacer, PlacerOptions
from repro.runtime import (
    CheckpointManager,
    PlacerCheckpoint,
    load_checkpoint,
    save_checkpoint,
)


def _dummy_checkpoint(iteration=5, overflow=0.5):
    rng = np.random.default_rng(0)
    return PlacerCheckpoint(
        design="dummy",
        iteration=iteration,
        pos=np.arange(8.0),
        optimizer={"kind": "nesterov", "u": np.arange(8.0),
                   "v": np.arange(8.0), "a": 2.0, "lr": 0.1},
        lam=0.25,
        net_weights=np.ones(3),
        overflow=overflow,
        prev_overflow=overflow + 0.01,
        best_overflow=overflow,
        best_pos=np.arange(8.0),
        recent_hpwl=[1.0, 2.0],
        rng_state=rng.bit_generator.state,
    )


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        cp = _dummy_checkpoint()
        save_checkpoint(cp, path)
        back = load_checkpoint(path)
        assert back.iteration == cp.iteration
        np.testing.assert_array_equal(back.pos, cp.pos)
        assert back.lam == cp.lam
        assert back.rng_state == cp.rng_state

    def test_rejects_non_checkpoint(self, tmp_path):
        import pickle

        path = str(tmp_path / "junk.ckpt")
        with open(path, "wb") as handle:
            pickle.dump({"not": "a checkpoint"}, handle)
        with pytest.raises(ValueError, match="not a placer checkpoint"):
            load_checkpoint(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(_dummy_checkpoint(), path)
        assert os.listdir(tmp_path) == ["a.ckpt"]


class TestManager:
    def test_disabled_by_default(self, tmp_path):
        manager = CheckpointManager(directory=str(tmp_path))
        assert not manager.enabled
        assert manager.maybe_save(10, _dummy_checkpoint) is None

    def test_period_and_skip_iteration_zero(self, tmp_path):
        manager = CheckpointManager(directory=str(tmp_path), every=5)
        assert manager.maybe_save(0, _dummy_checkpoint) is None
        assert manager.maybe_save(3, _dummy_checkpoint) is None
        path = manager.maybe_save(5, _dummy_checkpoint)
        assert path is not None and os.path.exists(path)

    def test_retention_keeps_latest_and_best(self, tmp_path):
        manager = CheckpointManager(directory=str(tmp_path), every=1, keep=2)
        overflows = {1: 0.9, 2: 0.1, 3: 0.8, 4: 0.7, 5: 0.6}
        for it, ov in overflows.items():
            manager.maybe_save(it, lambda it=it, ov=ov: _dummy_checkpoint(it, ov))
        files = set(glob.glob(str(tmp_path / "*.ckpt")))
        # Best (iteration 2, overflow 0.1) survives pruning...
        assert manager.best_path() in files
        assert load_checkpoint(manager.best_path()).iteration == 2
        # ...and so does the most recent one.
        assert manager.latest_path() in files
        assert load_checkpoint(manager.latest_path()).iteration == 5

    def test_load_best_none_when_empty(self, tmp_path):
        manager = CheckpointManager(directory=str(tmp_path), every=5)
        assert manager.best_path() is None
        assert manager.load_best() is None


class TestPlacerResume:
    def test_resume_is_bit_identical(self, small_design, tmp_path):
        """Kill/resume: the resumed run must replay the remaining
        trajectory exactly - same iteration series, same HPWL values,
        same final positions."""
        opts = PlacerOptions(
            max_iters=40, min_iters=5, seed=3,
            checkpoint_every=10, checkpoint_dir=str(tmp_path),
        )
        full = GlobalPlacer(small_design, opts).run()
        checkpoint = str(tmp_path / glob.glob1(str(tmp_path), "*iter000020*")[0])

        resumed = GlobalPlacer(
            small_design,
            PlacerOptions(
                max_iters=40, min_iters=5, seed=3, resume_from=checkpoint
            ),
        ).run()

        it_full, hp_full = full.series("hpwl")
        it_res, hp_res = resumed.series("hpwl")
        overlap = it_full >= 20
        np.testing.assert_array_equal(it_full[overlap], it_res)
        np.testing.assert_array_equal(hp_full[overlap], hp_res)
        _, ov_full = full.series("overflow")
        _, ov_res = resumed.series("overflow")
        np.testing.assert_array_equal(ov_full[overlap], ov_res)
        np.testing.assert_array_equal(full.x, resumed.x)
        np.testing.assert_array_equal(full.y, resumed.y)
        assert resumed.stop_reason == full.stop_reason

    def test_resume_timing_mode_bit_identical(self, tmp_path):
        """Same property with the differentiable timing objective active
        (exercises the Steiner-forest state provider)."""
        from repro.core.objective import TimingObjectiveOptions
        from repro.core.timing_placer import (
            TimingDrivenPlacer,
            TimingPlacerOptions,
        )
        from repro.harness import load_design

        design = load_design("miniblue1")

        def run(**placer_kwargs):
            return TimingDrivenPlacer(
                design,
                TimingPlacerOptions(
                    placer=PlacerOptions(
                        max_iters=25, min_iters=5, seed=0, **placer_kwargs
                    ),
                    timing=TimingObjectiveOptions(
                        start_iteration=5, rsmt_period=7,
                    ),
                    sta_every=5,
                ),
            ).run()

        full = run(checkpoint_every=8, checkpoint_dir=str(tmp_path))
        checkpoint = str(tmp_path / glob.glob1(str(tmp_path), "*iter000016*")[0])
        resumed = run(resume_from=checkpoint)

        it_full, hp_full = full.series("hpwl")
        overlap = it_full >= 16
        np.testing.assert_array_equal(hp_full[overlap], resumed.series("hpwl")[1])
        for key in ("tns_smoothed", "wns_smoothed", "tns", "wns"):
            it1, v1 = full.series(key)
            np.testing.assert_array_equal(
                v1[it1 >= 16], resumed.series(key)[1]
            )
        np.testing.assert_array_equal(full.x, resumed.x)

    def test_parent_checkpoint_resumes_bit_identically(self, monkeypatch):
        """A checkpoint written by the PR 21 tree, which still stored the
        dirty-net path's ``built_pin_coords`` next to ``forest_coords``
        (iteration 20 of this 40-iteration `ours` run, dirty path off),
        loads here, the extra key is ignored, and the run resumes to the
        positions of a fresh run on this tree.  The design has no net
        above degree 5, so both trees route it identically."""
        from repro.core.objective import TimingObjectiveOptions
        from repro.core.timing_placer import (
            TimingDrivenPlacer,
            TimingPlacerOptions,
        )
        from repro.netlist.generator import GeneratorSpec, generate_design

        # The fixture was written fault-free (CI's fault matrix arms one
        # before iteration 20 in every placer of the process).
        monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)
        design = generate_design(
            GeneratorSpec(
                name="small", n_cells=150, depth=6, seed=7, n_high_fanout_nets=0
            )
        )
        assert design.net_degrees[~design.net_is_clock].max() <= 8
        fixture = os.path.join(
            os.path.dirname(__file__), "data", "ours_parent_pr21_iter20.ckpt"
        )
        stored = load_checkpoint(fixture).extra["timing_objective"]
        assert stored["built_pin_coords"] is not None

        def run(**placer_opts):
            placer = TimingDrivenPlacer(
                design,
                TimingPlacerOptions(
                    placer=PlacerOptions(
                        max_iters=40, min_iters=5, seed=3, **placer_opts
                    ),
                    timing=TimingObjectiveOptions(start_iteration=5, rsmt_period=4),
                ),
            )
            return placer.run(), placer.objective

        fresh, fresh_obj = run()
        resumed, resumed_obj = run(resume_from=fixture)
        np.testing.assert_array_equal(resumed.x, fresh.x)
        np.testing.assert_array_equal(resumed.y, fresh.y)
        assert resumed_obj.n_rsmt_calls == fresh_obj.n_rsmt_calls
        assert set(stored) - set(resumed_obj.get_state()) == {
            "built_pin_coords", "n_dirty_nets", "n_rebuilt_nets",
        }

    def test_optimizer_state_round_trip(self):
        from repro.place.optimizer import NesterovOptimizer

        rng = np.random.default_rng(0)
        a = NesterovOptimizer(rng.normal(size=16), lr=0.1)
        for _ in range(3):
            a.step(rng.normal(size=16))
        b = NesterovOptimizer(np.zeros(16), lr=0.5)
        b.set_state(a.get_state())
        grad = rng.normal(size=16)
        np.testing.assert_array_equal(a.step(grad.copy()), b.step(grad.copy()))

    def test_optimizer_state_kind_mismatch(self):
        from repro.place.optimizer import NesterovOptimizer

        # A checkpoint written by another optimizer kind is refused.
        nesterov = NesterovOptimizer(np.zeros(4), lr=0.1)
        with pytest.raises(ValueError, match="'adam'"):
            nesterov.set_state({"kind": "adam", "x": np.zeros(4)})
