"""Inputs from the seed, output checks, and the driver contract."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import child
import run
import workloads
from workloads import BY_NAME

from repro.harness.suite import design_spec
from repro.netlist.cache import design_cache_key
from repro.netlist.generator import generate_design

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), *[os.pardir] * 3))


def test_manifest_matches_the_tables():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        assert json.load(handle) == workloads.manifest()
    names = [row[0] for row in workloads.END_TO_END + workloads.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in workloads.WORKLOADS)
    assert all(0 < row[3] <= 0.25 for row in workloads.END_TO_END)


@pytest.mark.parametrize("name", ["ours_mini18", "nw_mini18", "dp_mini18"])
def test_seed_zero_is_the_published_design(name):
    workload = BY_NAME[name]
    published = design_spec(workload.design)
    assert child.spec_for(workload, 0, 0) == published
    other = child.spec_for(workload, 1, 0)
    assert other == dataclasses.replace(
        published, seed=published.seed + workload.n_inputs
    )
    assert design_cache_key(other) != design_cache_key(published)
    # No two (seed, input) pairs of a workload share a seed.
    pairs = [(s, i) for s in range(4) for i in range(workload.n_inputs)]
    assert len({child.spec_for(workload, s, i).seed for s, i in pairs}) == len(pairs)
    assert len(
        {child.placer_options(workload, s, i, False).seed for s, i in pairs}
    ) == len(pairs)


def test_fixed_design_workload_seeds_the_placement_only():
    workload = BY_NAME["ours_midi50"]
    assert not workload.vary_design
    assert child.spec_for(workload, 7, 0) == design_spec(workload.design)
    assert child.placer_options(workload, 0, 0, False).seed == 0
    assert child.placer_options(workload, 7, 0, False).seed == 7


def test_seed_changes_the_generated_bytes():
    workload = BY_NAME["dp_mini18"]
    published = generate_design(design_spec(workload.design))
    same = generate_design(child.spec_for(workload, 0, 0))
    other = generate_design(child.spec_for(workload, 1, 0))
    for attr in ("cell_x", "cell_y", "net2pin", "pin2cell"):
        assert getattr(published, attr).tobytes() == getattr(same, attr).tobytes()
    assert published.cell_x.tobytes() != other.cell_x.tobytes()


@pytest.fixture(scope="module")
def smoke_flow(tmp_path_factory):
    workload = BY_NAME["dp_mini18"]
    bundle, _ = child.load_bundle(
        child.spec_for(workload, 0, 0),
        directory=str(tmp_path_factory.mktemp("cache")),
    )
    rec = child.run_mode(
        bundle.design, workload.mode,
        child.placer_options(workload, 0, 0, smoke=True),
        sta_graph=bundle.graph,
    )
    return bundle.design, rec


def test_checks_pass_on_a_good_flow(smoke_flow):
    design, rec = smoke_flow
    assert child.check_flow(design, rec, "max_iters") == []
    assert child.check_signoff(design, rec) == []


def test_checks_catch_broken_outputs(smoke_flow):
    design, rec = smoke_flow
    movable = int(np.flatnonzero(~design.cell_fixed)[0])
    fixed = int(np.flatnonzero(design.cell_fixed)[0])

    def broken(index, value, **fields):
        x = rec.x.copy()
        x[index] = value
        return child.check_flow(
            design, dataclasses.replace(rec, x=x, **fields), "max_iters"
        )

    assert "non-finite cell coordinates" in broken(movable, np.nan)
    assert "cell outside the die" in broken(movable, design.die[2] + 1.0)
    assert "fixed cell moved" in broken(fixed, rec.x[fixed] + 0.5)
    assert any("stop_reason" in f for f in child.check_flow(design, rec, "overflow"))
    assert any("recoveries" in f for f in broken(movable, rec.x[movable], recoveries=1))
    assert any(
        "nonfinite" in f
        for f in broken(movable, rec.x[movable], nonfinite_events={"timing": 2})
    )
    assert any(
        "sign-off wns" in f
        for f in child.check_signoff(design, dataclasses.replace(rec, wns=rec.wns * 1.01))
    )


def test_a_broken_flow_is_counted_as_failed(tmp_path, monkeypatch):
    workload = BY_NAME["dp_mini18"]
    cache = str(tmp_path / "cache")
    child.clear_memo()  # an earlier test loaded this very design
    child.load_bundle(child.spec_for(workload, 0, 0), directory=cache)
    child.clear_memo()
    real = child.run_mode

    def nan_in_x(design, *args, **kwargs):
        rec = real(design, *args, **kwargs)
        rec.x[np.flatnonzero(~design.cell_fixed)[0]] = np.nan
        return rec

    monkeypatch.setattr(child, "run_mode", nan_in_x)
    result = child.run_flows({
        "workload": workload.name, "seed": 0, "seconds": 0.0, "smoke": True,
        "trace": False, "n_inputs": 1, "cache_dirs": [cache],
    })
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["failures"] == ["non-finite cell coordinates"]
    row = result["rows"][0]
    assert 0 < row["solve_s"] < row["flow_s"]  # measured all the same
    assert 0 < row["solve_ref_s"] < row["flow_ref_s"]


def test_compare_sets_flags_gaps_and_count_changes(capsys):
    def suite(solve, calls):
        block = {
            "end_to_end": {m[0]: {"median": 1.0} for m in workloads.END_TO_END},
            "per_layer": {m[0]: {"value": 7} for m in workloads.PER_LAYER},
        }
        block["end_to_end"]["solve_iter_ms"] = {"median": solve}
        block["per_layer"]["route.build_forest.calls"] = {"value": calls}
        return {"workloads": {"dp_mini18": block}}

    assert run.compare_sets(suite(1.0, 7), suite(1.2, 7)) == []
    problems = run.compare_sets(suite(1.0, 7), suite(1.3, 8))
    assert len(problems) == 2
    assert "solve_iter_ms" in problems[0] and "route.build_forest.calls" in problems[1]


def test_driver_contract_end_to_end():
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
         "--workload", "dp_mini18", "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=REPO, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= BY_NAME["dp_mini18"].n_inputs
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {row[0]: row[1] for row in workloads.END_TO_END}
    assert all(value["value"] > 0 for value in result["metrics"].values())


def test_a_run_is_the_median_over_inputs_of_the_median_over_repeats():
    rows = [
        {"input": 0, "x": 1.0}, {"input": 0, "x": 9.0}, {"input": 0, "x": 2.0},
        {"input": 1, "x": 5.0},
        {"input": 2, "x": 7.0}, {"input": 2},  # a flow that raised has no time
    ]
    assert run._median_of_inputs(rows, "x") == 5.0
