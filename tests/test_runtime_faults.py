"""Fault-injection tests: the recovery paths demonstrably fire.

The acceptance scenarios of the guarded runtime:

- a seeded NaN injected into the timing gradient mid-run is detected,
  quarantined and logged, and the run still converges to the same stop
  reason with final HPWL within 2% of the fault-free run;
- a divergence event (exploding iterate) triggers rollback to the best
  checkpoint and the run recovers;
- faults are inert outside armed placer runs, so unit tests of the timer
  kernels are unaffected by a process-wide ``REPRO_INJECT_FAULT``.
"""

import numpy as np
import pytest

from repro.harness import load_design
from repro.netlist import GeneratorSpec, generate_design
from repro.place.placer import GlobalPlacer, PlacerOptions
from repro.runtime import (
    FaultInjectionError,
    FaultInjector,
    FaultSpec,
    maybe_kill_worker,
)
from repro.runtime.faults import armed, current_injector, worker_kill_task


class TestFaultSpec:
    def test_parse_full(self):
        spec = FaultSpec.parse("grad_nan:density@7")
        assert spec.kind == "grad_nan"
        assert spec.term == "density"
        assert spec.iteration == 7

    def test_parse_defaults(self):
        spec = FaultSpec.parse("lut_corrupt")
        assert spec.kind == "lut_corrupt"
        assert spec.iteration == 10

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.parse("segfault@3")

    def test_parse_rejects_unknown_term(self):
        with pytest.raises(ValueError, match="unknown gradient term"):
            FaultSpec.parse("grad_nan:voltage@3")

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "timer_exc@4")
        spec = FaultSpec.from_env()
        assert spec.kind == "timer_exc" and spec.iteration == 4
        monkeypatch.setenv("REPRO_INJECT_FAULT", "off")
        assert FaultSpec.from_env() is None
        monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)
        assert FaultSpec.from_env() is None


class TestInjectorMechanics:
    def test_fires_exactly_once(self):
        inj = FaultInjector(FaultSpec(kind="grad_nan", term="timing", iteration=3))
        gx, gy = np.ones(32), np.ones(32)
        inj.begin_iteration(2)
        assert not inj.corrupt_grad("timing", gx, gy)
        inj.begin_iteration(3)
        assert inj.corrupt_grad("timing", gx, gy)
        assert np.isnan(gx).any()
        gx2, gy2 = np.ones(32), np.ones(32)
        inj.begin_iteration(4)
        assert not inj.corrupt_grad("timing", gx2, gy2)
        assert np.isfinite(gx2).all()
        assert inj.fired_iteration == 3
        assert len(inj.log) == 1

    def test_wrong_term_does_not_fire(self):
        inj = FaultInjector(FaultSpec(kind="grad_nan", term="density", iteration=0))
        gx, gy = np.ones(8), np.ones(8)
        inj.begin_iteration(5)
        assert not inj.corrupt_grad("timing", gx, gy)
        assert not inj.fired

    def test_inert_injector_is_noop(self):
        inj = FaultInjector(None)
        assert not inj.active
        gx, gy = np.ones(8), np.ones(8)
        inj.begin_iteration(0)
        assert not inj.corrupt_grad("timing", gx, gy)
        inj.maybe_raise("anywhere")  # must not raise

    def test_fired_state_round_trips(self):
        inj = FaultInjector(FaultSpec(kind="timer_exc", iteration=1))
        inj.begin_iteration(1)
        with pytest.raises(FaultInjectionError):
            inj.maybe_raise("test")
        other = FaultInjector(FaultSpec(kind="timer_exc", iteration=1))
        other.set_state(inj.get_state())
        other.begin_iteration(2)
        other.maybe_raise("test")  # already fired -> no raise

    def test_armed_scope(self):
        inj = FaultInjector(FaultSpec(kind="grad_nan"))
        assert current_injector() is None
        with armed(inj):
            assert current_injector() is inj
        assert current_injector() is None

    def test_lut_corruption_is_transient(self, chain_design):
        from repro.sta.graph import TimingGraph

        graph = TimingGraph(chain_design)
        original = graph.lutbank.values.copy()
        inj = FaultInjector(FaultSpec(kind="lut_corrupt", iteration=0))
        inj.begin_iteration(0)
        assert inj.corrupt_lutbank(graph.lutbank)
        assert np.isnan(graph.lutbank.values).any()
        inj.begin_iteration(1)  # transient: restored at the next iteration
        np.testing.assert_array_equal(graph.lutbank.values, original)

    def test_env_fault_ignored_outside_armed_run(self, monkeypatch, chain_design):
        """A process-wide REPRO_INJECT_FAULT must not perturb direct timer
        use - faults only fire inside armed placer runs."""
        from repro.core.difftimer import DifferentiableTimer

        monkeypatch.setenv("REPRO_INJECT_FAULT", "lut_corrupt@0")
        timer = DifferentiableTimer(chain_design)
        tape = timer.forward()
        gx, gy = timer.backward(tape, d_tns=-1.0)
        assert np.isfinite(tape.tns)
        assert np.isfinite(gx).all() and np.isfinite(gy).all()


def _timing_run(design, **placer_kwargs):
    from repro.core.objective import TimingObjectiveOptions
    from repro.core.timing_placer import TimingDrivenPlacer, TimingPlacerOptions

    return TimingDrivenPlacer(
        design,
        TimingPlacerOptions(
            placer=PlacerOptions(max_iters=25, min_iters=5, seed=0, **placer_kwargs),
            timing=TimingObjectiveOptions(start_iteration=5),
            sta_in_trace=False,
        ),
    )


class TestInjectedRuns:
    """End-to-end: injected faults are quarantined and runs still converge."""

    @pytest.fixture(scope="class")
    def design(self):
        return load_design("miniblue1")

    @pytest.fixture(scope="class")
    def clean(self, design):
        return _timing_run(design).run()

    def test_nan_in_timing_grad_quarantined_and_converges(
        self, design, clean, monkeypatch
    ):
        """The headline acceptance scenario: grad_nan:timing@10."""
        monkeypatch.setenv("REPRO_INJECT_FAULT", "grad_nan:timing@10")
        faulted = _timing_run(design).run()
        # Detected, quarantined, and logged - not silently scrubbed.
        assert faulted.nonfinite_events.get("timing", 0) >= 1
        assert faulted.quarantined_iterations >= 1
        assert any("NaN" in line for line in faulted.fault_log)
        # The run survives: same stop reason, HPWL within 2%.
        assert faulted.stop_reason == clean.stop_reason
        assert abs(faulted.hpwl - clean.hpwl) <= 0.02 * clean.hpwl

    def test_timer_exception_quarantined(self, design, clean, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "timer_exc@12")
        faulted = _timing_run(design).run()
        assert faulted.nonfinite_events.get("timing_exceptions", 0) == 1
        assert faulted.stop_reason == clean.stop_reason
        assert abs(faulted.hpwl - clean.hpwl) <= 0.02 * clean.hpwl

    def test_lut_corruption_quarantined(self, design, clean, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "lut_corrupt@8")
        faulted = _timing_run(design).run()
        assert faulted.nonfinite_events.get("timing", 0) >= 1
        assert faulted.stop_reason == clean.stop_reason
        assert abs(faulted.hpwl - clean.hpwl) <= 0.02 * clean.hpwl

    def test_density_grad_nan_at_iteration_zero(self, design, monkeypatch):
        """Quarantining density at iteration 0 must not blow up the
        lambda initialisation (it is deferred to the first healthy
        iteration)."""
        monkeypatch.setenv("REPRO_INJECT_FAULT", "grad_nan:density@0")
        result = GlobalPlacer(
            design, PlacerOptions(max_iters=15, min_iters=5, seed=0)
        ).run()
        assert result.nonfinite_events.get("density", 0) >= 1
        assert np.isfinite(result.hpwl)
        _, lams = result.series("lambda")
        assert np.isfinite(lams).all()


class TestDivergenceRollback:
    def test_exploding_iterate_rolls_back_to_best_checkpoint(self, tmp_path):
        """Once overflow is low, a one-off exploding gradient must trigger
        the divergence branch, which rolls back to the best checkpoint
        and recovers instead of bailing out with stop_reason='diverged'."""
        design = generate_design(
            GeneratorSpec(name="rollback", n_cells=220, depth=8, seed=99)
        )
        bomb = {"armed": True}

        def explode(iteration, x, y):
            if bomb["armed"] and iteration == 210:
                bomb["armed"] = False
                huge = np.full(design.n_cells, 1e9)
                return huge, huge, {}
            return None

        opts = PlacerOptions(
            max_iters=400, min_iters=10, seed=0,
            checkpoint_every=25, checkpoint_dir=str(tmp_path),
        )
        placer = GlobalPlacer(design, opts, extra_grad_fn=explode)
        # Pin an inert injector so a process-wide REPRO_INJECT_FAULT (the
        # CI fault matrix) cannot quarantine the deliberate explosion.
        placer.fault_injector = FaultInjector(None)
        result = placer.run()
        assert result.recoveries >= 1
        assert result.stop_reason != "diverged"
        assert result.stop_reason == "overflow"
        assert result.overflow < 0.4  # genuinely recovered and re-spread

    def test_without_checkpoints_divergence_still_bails_safely(self):
        """Legacy behaviour preserved when checkpointing is off: the run
        stops with the best iterate instead of the exploded one."""
        design = generate_design(
            GeneratorSpec(name="rollback2", n_cells=220, depth=8, seed=99)
        )
        bomb = {"armed": True}

        def explode(iteration, x, y):
            if bomb["armed"] and iteration == 210:
                bomb["armed"] = False
                huge = np.full(design.n_cells, 1e9)
                return huge, huge, {}
            return None

        opts = PlacerOptions(max_iters=400, min_iters=10, seed=0)
        placer = GlobalPlacer(design, opts, extra_grad_fn=explode)
        placer.fault_injector = FaultInjector(None)
        result = placer.run()
        assert result.stop_reason == "diverged"
        assert np.isfinite(result.hpwl)

    def test_persistent_fault_escalates_through_retries(self, tmp_path):
        """A fault that never clears walks the whole ladder: quarantine ->
        step-shrink retries -> checkpoint rollback -> degraded but finite
        completion."""
        design = generate_design(
            GeneratorSpec(name="persist", n_cells=150, depth=6, seed=7)
        )

        def poison(iteration, x, y):
            if iteration >= 30:
                bad = np.full(design.n_cells, np.nan)
                return bad, bad, {}
            return None

        opts = PlacerOptions(
            max_iters=60, min_iters=5, seed=0,
            checkpoint_every=10, checkpoint_dir=str(tmp_path),
            guard_retry_limit=3, max_recoveries=2,
        )
        result = GlobalPlacer(design, opts, extra_grad_fn=poison).run()
        assert result.recoveries >= 1
        assert result.nonfinite_events.get("timing", 0) >= 3
        assert np.isfinite(result.hpwl)
        assert np.isfinite(result.x).all() and np.isfinite(result.y).all()


def test_resumed_run_does_not_refire_taken_fault(tmp_path, monkeypatch):
    """The fired flag rides in checkpoints: resuming after the fault was
    taken replays the faulted run bit for bit instead of injecting again."""
    design = load_design("miniblue1")
    monkeypatch.setenv("REPRO_INJECT_FAULT", "grad_nan:wirelength@12")

    opts = dict(max_iters=30, min_iters=5, seed=0)
    full = GlobalPlacer(
        design,
        PlacerOptions(checkpoint_every=10, checkpoint_dir=str(tmp_path), **opts),
    ).run()
    assert full.nonfinite_events.get("wirelength", 0) == 1

    import glob

    checkpoint = glob.glob(str(tmp_path / "*iter000020*"))[0]
    resumed = GlobalPlacer(
        design, PlacerOptions(resume_from=checkpoint, **opts)
    ).run()
    # No second injection on the resumed leg (the guard counter equals the
    # original run's because it is *carried* in the checkpoint - the empty
    # fault log proves nothing new fired after the resume point)...
    assert resumed.nonfinite_events.get("wirelength", 0) == 1
    assert resumed.fault_log == []
    # ...and the trajectory matches the original faulted run exactly.
    it_full, hp_full = full.series("hpwl")
    np.testing.assert_array_equal(hp_full[it_full >= 20], resumed.series("hpwl")[1])
    np.testing.assert_array_equal(full.x, resumed.x)


class TestProcessFaultSpec:
    """The one process-level fault, ``worker_kill[:task]``."""

    def test_parse_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "worker_kill:2")
        assert worker_kill_task() == 2

    def test_parse_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULT", "worker_kill")
        assert worker_kill_task() == 0

    def test_parse_rejects_unknown_kind(self, monkeypatch):
        # A process kind this tree does not have is not silently ignored:
        # the in-process parser, which every guarded run consults,
        # rejects it.
        monkeypatch.setenv("REPRO_INJECT_FAULT", "worker_hang:0@600")
        assert worker_kill_task() is None
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec.from_env()

    def test_env_families_do_not_cross(self, monkeypatch):
        # A process-level spec must be invisible to the in-process
        # family (guarded placer runs keep working under it) and vice
        # versa: both read the same REPRO_INJECT_FAULT variable.
        monkeypatch.setenv("REPRO_INJECT_FAULT", "worker_kill:1")
        assert FaultSpec.from_env() is None
        assert worker_kill_task() == 1
        monkeypatch.setenv("REPRO_INJECT_FAULT", "grad_nan:timing@10")
        assert worker_kill_task() is None
        assert FaultSpec.from_env().kind == "grad_nan"
        monkeypatch.delenv("REPRO_INJECT_FAULT", raising=False)
        assert worker_kill_task() is None

    def test_parent_process_never_killed(self, monkeypatch):
        # worker_kill must be inert outside spawned workers: firing it
        # in-process would kill pytest itself.
        monkeypatch.setenv("REPRO_INJECT_FAULT", "worker_kill:0")
        maybe_kill_worker(0)
