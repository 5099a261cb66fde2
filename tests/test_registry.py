"""A run's directory is its registry.

``manifest.json`` and ``events.jsonl`` are the only record a run leaves;
:func:`repro.telemetry.run_state` reads back from them where the run was
last seen:

- an unfinalized run keeps its last position on disk;
- ``run_mode`` records the run's start, iterations and end, finalizes
  the manifest with the run's metrics and resource roll-up, and leaves
  the run directory and nothing else;
- a torn trailing record (the writer caught mid-write) is skipped.
"""

import os

from repro.harness.runners import run_mode
from repro.place.placer import PlacerOptions
from repro.telemetry import load_manifest, read_events, run_state, start_run

RUN_ID = "miniblue1_ours_s0"


def _start(base):
    """A run directory whose stream holds one ``run_start``."""
    session = start_run(
        str(base), design="miniblue1", mode="ours", seed=0, run_id=RUN_ID
    )
    session.recorder.event(
        "run_start", iteration=0, design="miniblue1", seed=0,
        max_iters=600, resumed=False,
    )
    return session


class TestLifecycle:
    def test_close_without_remove_keeps_post_mortem_record(self, tmp_path):
        """An unfinalized run keeps its last position on disk."""
        session = _start(tmp_path)
        session.recorder.iteration(412, {"hpwl": 1.0})
        session.recorder.close()
        assert not load_manifest(session.run_dir).final_metrics
        assert run_state(session.run_dir).where() == "at iteration 412 in place"


class TestRunModeIntegration:
    def test_run_registers_beats_and_cleans_up(self, small_design, tmp_path):
        base = str(tmp_path / "tel")
        record = run_mode(
            small_design,
            "dreamplace",
            placer_options=PlacerOptions(max_iters=8, min_iters=2, seed=0),
            telemetry_dir=base,
            run_id="lifecycle",
        )
        run_dir = os.path.join(base, "lifecycle")
        events = read_events(os.path.join(run_dir, "events.jsonl"))
        # The run announced itself, progressed and ended ...
        assert events[0]["kind"] == "run_start"
        assert any(e["kind"] == "iteration" for e in events)
        assert run_state(run_dir).phase == "sta"
        # ... and the clean finalize wrote its metrics and rolled up its
        # resource usage (POSIX only) into the manifest.
        manifest = load_manifest(run_dir)
        assert manifest.final_metrics
        if record.resources is not None:
            assert manifest.resources["peak_rss_bytes"] > 0
            assert manifest.resources["cpu_user_s"] >= 0.0

    def test_run_leaves_only_manifest_and_events(self, small_design, tmp_path):
        base = tmp_path / "tel"
        run_mode(
            small_design,
            "dreamplace",
            placer_options=PlacerOptions(max_iters=4, min_iters=2, seed=0),
            telemetry_dir=str(base),
            run_id="only",
        )
        assert os.listdir(base) == ["only"]
        assert sorted(os.listdir(base / "only")) == [
            "events.jsonl", "manifest.json"
        ]

    def test_torn_registry_record_reads_as_absent(self, tmp_path):
        """A torn trailing event (the writer caught mid-write) is skipped."""
        session = _start(tmp_path)
        session.recorder.iteration(7, {"hpwl": 1.0})
        session.recorder.close()
        with open(os.path.join(session.run_dir, "events.jsonl"), "a") as fh:
            fh.write('{"ts": 1.0, "kind": "iteration", "iter')
        assert run_state(session.run_dir).iteration == 7
        assert run_state(str(tmp_path / "no-such-run")) is None
