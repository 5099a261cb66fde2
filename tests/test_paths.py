"""Unit tests for critical-path extraction and reporting."""

import numpy as np
import pytest

from repro.sta import extract_path, format_path, run_sta, worst_paths


@pytest.fixture(scope="module")
def chain_result(chain_design):
    return run_sta(chain_design)


class TestExtraction:
    def test_path_starts_at_start_point(self, chain_design, chain_result):
        path = extract_path(chain_result, int(chain_result.graph.endpoint_pins[0]))
        assert path.points[0].arc_kind == "start"
        assert path.points[0].pin_name in ("in0/O", "ff0/CK")

    def test_path_alternates_net_and_cell_arcs(self, chain_result):
        path = extract_path(chain_result, int(chain_result.graph.endpoint_pins[0]))
        kinds = [p.arc_kind for p in path.points[1:]]
        for a, b in zip(kinds, kinds[1:]):
            assert a != b  # chain design strictly alternates

    def test_increments_sum_to_path_delay(self, chain_result):
        path = extract_path(chain_result, int(chain_result.graph.endpoint_pins[0]))
        total = sum(p.incr for p in path.points)
        assert total == pytest.approx(path.delay, abs=1e-6)
        # The recorded arc delays are the ones the arrival times were
        # built from: they add up to the endpoint's arrival time.
        assert total == pytest.approx(path.points[-1].at, abs=1e-9)

    def test_at_values_monotone(self, chain_result):
        path = extract_path(chain_result, int(chain_result.graph.endpoint_pins[0]))
        ats = [p.at for p in path.points]
        assert all(b >= a - 1e-9 for a, b in zip(ats, ats[1:]))

    def test_slack_matches_endpoint_slack(self, chain_result):
        graph = chain_result.graph
        for k, ep in enumerate(graph.endpoint_pins):
            path = extract_path(chain_result, int(ep))
            assert path.slack == pytest.approx(
                float(chain_result.endpoint_slack[k]), abs=1e-9
            )

    def test_inverter_chain_flips_transitions(self, chain_result):
        path = extract_path(chain_result, int(chain_result.graph.endpoint_pins[0]))
        cell_points = [p for p in path.points if p.arc_kind == "cell"]
        for a, b in zip(cell_points, cell_points[1:]):
            assert a.transition != b.transition


class TestWorstPaths:
    def test_sorted_by_slack(self, small_design):
        result = run_sta(small_design)
        paths = worst_paths(result, k=5)
        slacks = [p.slack for p in paths]
        assert slacks == sorted(slacks)
        assert slacks[0] == pytest.approx(result.wns_setup)

    def test_path_through_generated_design_terminates(self, small_design):
        result = run_sta(small_design)
        for path in worst_paths(result, k=3):
            assert 2 <= path.length <= small_design.n_pins


class TestFormatting:
    def test_format_contains_pins_and_slack(self, chain_result):
        path = worst_paths(chain_result, 1)[0]
        text = format_path(path)
        assert "slack" in text
        for p in path.points:
            assert p.pin_name in text

    def test_format_has_one_row_per_point(self, chain_result):
        path = worst_paths(chain_result, 1)[0]
        text = format_path(path)
        assert len(text.splitlines()) == path.length + 2
