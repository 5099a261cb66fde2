"""The suite runner's fan-out: determinism, manifests, CLI plumbing.

``--jobs N`` must be a wall-clock-only knob: the per-design final
metrics it produces are identical to a serial run, the merged suite
manifest aggregates per-run telemetry and span stats, and the CLI
``suite`` subcommand writes byte-stable metric files.  The warm-worker
path (spawn workers + design-bundle cache) must be byte-identical to the
cold path - the cache is a wall-clock optimisation only.
"""

import json
import os

import numpy as np
import pytest

import repro.harness.supervisor as supervisor_mod
from repro.__main__ import main
from repro.harness.supervisor import (
    SUITE_MANIFEST_FILENAME,
    SuiteTask,
    run_tasks,
    suite_metrics,
    write_suite_manifest,
)


# Small matrix over two designs and two seeds; it stops before the timing
# objective engages (iteration 100), which _TIMING_TASKS runs past.
_TASKS = [
    SuiteTask(design="miniblue4", mode="ours", max_iters=40),
    SuiteTask(design="miniblue18", mode="ours", max_iters=40),
    SuiteTask(design="miniblue4", mode="ours", seed=1, max_iters=40),
]
_TIMING_TASKS = [
    SuiteTask(design="miniblue4", mode="ours", max_iters=200),
    SuiteTask(design="miniblue18", mode="ours", max_iters=200),
]


class TestRunParallelDeterminism:
    def test_jobs2_metrics_identical_to_serial(self):
        serial = run_tasks(_TASKS, 1)
        parallel = run_tasks(_TASKS, 2)
        assert suite_metrics(_TASKS, serial) == suite_metrics(_TASKS, parallel)

    def test_jobs2_identical_with_timing_objective_engaged(self):
        serial = run_tasks(_TIMING_TASKS, 1)
        parallel = run_tasks(_TIMING_TASKS, 2)
        assert all(r.iterations > 100 for r in serial)
        assert suite_metrics(_TIMING_TASKS, serial) == suite_metrics(
            _TIMING_TASKS, parallel
        )
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.y, b.y)

    def test_results_in_task_order(self):
        records = run_tasks(_TASKS, 2)
        assert [r.design for r in records] == [t.design for t in _TASKS]

    def test_seeds_keyed_separately(self):
        records = run_tasks(_TASKS, 1)
        metrics = suite_metrics(_TASKS, records)
        assert set(metrics["miniblue4"]["ours"]) == {"s0", "s1"}
        assert set(metrics["miniblue18"]["ours"]) == {"s0"}


class TestWarmWorkers:
    def test_pool_pinned_to_spawn(self, monkeypatch):
        """Fork would inherit warmed NumPy/RNG state; spawn must be used."""
        seen = []
        real = supervisor_mod.multiprocessing.get_context

        def spy(method=None):
            seen.append(method)
            return real(method)

        monkeypatch.setattr(
            supervisor_mod.multiprocessing, "get_context", spy
        )
        run_tasks(_TASKS[:2], 2)
        assert seen == ["spawn"]

    def test_cold_and_warm_serial_byte_identical(self, tmp_path):
        """The cache is wall-clock-only: records must not change at all."""
        cold = run_tasks(_TASKS, 1, use_cache=False)
        warm = run_tasks(
            _TASKS, 1, use_cache=True, cache_dir=str(tmp_path)
        )
        assert suite_metrics(_TASKS, cold) == suite_metrics(_TASKS, warm)
        for c, w in zip(cold, warm):
            np.testing.assert_array_equal(c.x, w.x)
            np.testing.assert_array_equal(c.y, w.y)
            assert c.wns == w.wns and c.tns == w.tns and c.hpwl == w.hpwl

    def test_cold_serial_vs_warm_parallel_byte_identical(self, tmp_path):
        cold = run_tasks(_TASKS, 1, use_cache=False)
        warm = run_tasks(
            _TASKS, 2, use_cache=True, cache_dir=str(tmp_path)
        )
        for c, w in zip(cold, warm):
            np.testing.assert_array_equal(c.x, w.x)
            np.testing.assert_array_equal(c.y, w.y)
        assert suite_metrics(_TASKS, cold) == suite_metrics(_TASKS, warm)

    def test_warm_records_carry_cache_provenance(self, tmp_path):
        records = run_tasks(
            _TASKS, 1, use_cache=True, cache_dir=str(tmp_path)
        )
        for rec in records:
            assert rec.setup_s >= 0.0
            assert rec.design_cache is not None
            assert rec.design_cache["key"]
            # The parent primed the cache, so loads are hits.
            assert rec.design_cache["hit"]

    def test_cold_records_have_no_cache_provenance(self):
        (rec,) = run_tasks(_TASKS[:1], 1, use_cache=False)
        assert rec.design_cache is None
        assert rec.setup_s > 0.0


class TestSuiteManifest:
    def test_manifest_merges_runs_and_span_trees(self, tmp_path):
        tdir = str(tmp_path)
        tasks = [
            SuiteTask(design="miniblue4", mode="ours", max_iters=40,
                      telemetry_dir=tdir),
            SuiteTask(design="miniblue18", mode="ours", max_iters=40,
                      telemetry_dir=tdir),
        ]
        records = run_tasks(tasks, 2)
        path = write_suite_manifest(tdir, tasks, records, jobs=2)
        assert os.path.basename(path) == SUITE_MANIFEST_FILENAME
        payload = json.loads(open(path).read())
        assert payload["jobs"] == 2
        assert payload["n_runs"] == 2
        run_ids = [r["run_id"] for r in payload["runs"]]
        assert run_ids == ["miniblue4_ours_s0", "miniblue18_ours_s0"]
        # Deterministic run ids double as telemetry directory names.
        for entry in payload["runs"]:
            assert entry["manifest"] is not None
            assert os.path.isdir(os.path.join(tdir, entry["run_id"]))
            # Cache provenance: setup split + bundle key/hit recorded in
            # both the suite entry and the per-run manifest.
            assert entry["setup_s"] >= 0.0
            assert entry["design_cache"]["key"]
            assert entry["manifest"]["design_cache"]["key"] == (
                entry["design_cache"]["key"]
            )
        # Per-layer span stats are summed over the runs.
        spans = payload["spans"]
        per_run = [rec.spans for rec in records]
        assert spans["harness.run_mode"]["calls"] == 2
        for name in ("place.wirelength.evaluate", "place.density.prepass"):
            assert spans[name]["calls"] == sum(s[name]["calls"] for s in per_run)
            assert spans[name]["self_s"] == pytest.approx(
                sum(s[name]["self_s"] for s in per_run)
            )

    def test_no_telemetry_runs_produce_null_tree(self, tmp_path):
        tasks = [SuiteTask(design="miniblue4", mode="ours", max_iters=30)]
        records = run_tasks(tasks, 1)
        path = write_suite_manifest(str(tmp_path), tasks, records, jobs=1)
        payload = json.loads(open(path).read())
        assert payload["spans"] is None
        assert payload["runs"][0]["final_metrics"]["iterations"] > 0


class TestSuiteCLI:
    def test_suite_subcommand_metrics_byte_identical_across_jobs(
        self, tmp_path
    ):
        out1 = str(tmp_path / "m1.json")
        out2 = str(tmp_path / "m2.json")
        base = [
            "suite", "--designs", "miniblue4", "--modes", "ours",
            "--max-iters", "40", "--metrics-out",
        ]
        assert main(base + [out1, "--jobs", "1"]) == 0
        assert main(base + [out2, "--jobs", "2"]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_suite_subcommand_writes_manifest(self, tmp_path):
        tdir = str(tmp_path / "telemetry")
        rc = main(
            [
                "suite", "--designs", "miniblue4", "--modes", "ours",
                "--max-iters", "40", "--jobs", "1", "--telemetry", tdir,
            ]
        )
        assert rc == 0
        assert os.path.exists(os.path.join(tdir, SUITE_MANIFEST_FILENAME))
