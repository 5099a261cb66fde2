"""Structural design validation (repro.runtime.validate).

Each test builds a deliberately broken design with the DesignBuilder and
checks that exactly the right check fires with the right severity, that
healthy designs pass cleanly, and that the placer refuses to start on a
design with errors when ``PlacerOptions.validate`` is set.
"""

import numpy as np
import pytest

from repro.netlist import DesignBuilder
from repro.place.placer import GlobalPlacer, PlacerOptions
from repro.runtime import (
    DesignValidationError,
    ValidationReport,
    validate_design,
)
from repro.sta import CombinationalCycleError, TimingGraph


def _healthy(library):
    b = DesignBuilder("ok", library, die=(0, 0, 40, 20))
    b.add_input("clk", x=0, y=0)
    b.add_input("a", x=0, y=10)
    b.add_output("z", x=40, y=10)
    b.add_cell("u1", "INV_X1")
    b.add_net("na", ["a", "u1/A"])
    b.add_net("nz", ["u1/Y", "z"])
    return b.build()


class TestHealthyDesign:
    def test_passes(self, library):
        report = validate_design(_healthy(library))
        assert isinstance(report, ValidationReport)
        assert report.ok
        assert not report.errors
        assert "PASS" in report.format()

    def test_all_checks_ran(self, library):
        report = validate_design(_healthy(library))
        assert set(report.checks_run) >= {
            "dangling_pin",
            "undriven_net",
            "multi_driver_net",
            "zero_area_cell",
            "nldm_lut",
            "pin_outside_die",
            "combinational_cycle",
        }

    def test_generated_suite_design_passes(self):
        from repro.harness import load_design

        report = validate_design(load_design("miniblue1"))
        assert report.ok  # warnings allowed, errors not

    def test_raise_if_failed_noop_when_ok(self, library):
        validate_design(_healthy(library)).raise_if_failed()


class TestBrokenDesigns:
    def test_dangling_input_pin_is_error(self, library):
        b = DesignBuilder("dangle", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        b.add_cell("u1", "INV_X1")
        # u1/A left unconnected; u1/Y unconnected too (warning only)
        d = b.build()
        report = validate_design(d, check_graph=False)
        assert not report.ok
        messages = [i.message for i in report.errors]
        assert any("u1/A" in m for m in messages)
        # The unconnected *output* must be a warning, not an error.
        assert any(
            "u1/Y" in i.message for i in report.warnings
        )

    def test_multi_driver_net_is_error(self, library):
        # The builder rejects multi-driver nets at construction, so this
        # corruption can only arrive via file loaders; emulate it by
        # flipping a sink pin's direction on a built design.
        d = _healthy(library)
        sink = d.pin_name.index("u1/A")
        assert d.pin_dir[sink] == 0
        d.pin_dir[sink] = 1  # net "na" now has drivers a/O and u1/A
        report = validate_design(d, check_graph=False)
        assert "multi_driver_net" in report.counts()
        assert not report.ok

    def test_messages_name_the_pins(self, library):
        """Pin names are derived per access; the messages still read them."""
        d = _healthy(library)
        d.pin_dir[d.pin_name.index("u1/A")] = 1
        d.cell_x[d.cell_index("a")] = -500.0  # a fixed port far outside
        report = validate_design(d, check_graph=False)
        messages = [i.message for i in report.errors]
        assert "net 'na' has 2 drivers (a/O, u1/A)" in messages
        assert any(m.startswith("pin 'a/O' at (-500.00, ") for m in messages)

    def test_undriven_net_is_error(self, library):
        b = DesignBuilder("undriven", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        b.add_cell("u1", "INV_X1")
        b.add_cell("u2", "INV_X1")
        b.add_net("bad", ["u1/A", "u2/A"])  # sinks only
        report = validate_design(b.build(), check_graph=False)
        assert "undriven_net" in report.counts()
        assert not report.ok

    def test_combinational_cycle_reported_with_pin_names(self, library):
        b = DesignBuilder("loop", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        b.add_cell("u1", "INV_X1")
        b.add_cell("u2", "INV_X1")
        b.add_net("n1", ["u1/Y", "u2/A"])
        b.add_net("n2", ["u2/Y", "u1/A"])
        report = validate_design(b.build())
        cycle_issues = [
            i for i in report.errors if i.check == "combinational_cycle"
        ]
        assert cycle_issues
        # The report names actual pins on the cycle, not just "a cycle".
        assert "u1" in cycle_issues[0].message or "u2" in cycle_issues[0].message

    def test_pin_outside_die_fixed_cell_is_error(self, library):
        b = DesignBuilder("outside", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        b.add_input("a", x=-500.0, y=10)  # fixed port far outside
        b.add_output("z", x=40, y=10)
        b.add_cell("u1", "INV_X1")
        b.add_net("na", ["a", "u1/A"])
        b.add_net("nz", ["u1/Y", "z"])
        report = validate_design(b.build())
        assert "pin_outside_die" in report.counts()
        assert not report.ok

    def test_degenerate_net_is_warning_only(self, library):
        b = DesignBuilder("degen", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        b.add_input("a", x=0, y=10)
        b.add_output("z", x=40, y=10)
        b.add_cell("u1", "INV_X1")
        b.add_net("na", ["a", "u1/A"])
        b.add_net("nz", ["u1/Y", "z"])
        b.add_net("lonely", ["clk"])  # single-pin net
        report = validate_design(b.build())
        assert "degenerate_net" in report.counts()
        assert report.ok  # warning does not fail the design


class TestCycleError:
    def test_levelize_raises_typed_error_naming_pins(self, library):
        b = DesignBuilder("loop", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        b.add_cell("u1", "INV_X1")
        b.add_cell("u2", "INV_X1")
        b.add_net("n1", ["u1/Y", "u2/A"])
        b.add_net("n2", ["u2/Y", "u1/A"])
        d = b.build()
        with pytest.raises(CombinationalCycleError) as info:
            TimingGraph(d)
        err = info.value
        assert err.n_unreachable > 0
        assert len(err.cycle_pins) >= 2
        named = [d.pin_name[p] for p in err.cycle_pins]
        assert any(n.startswith(("u1/", "u2/")) for n in named)
        # The message itself names pins from the cycle.
        assert any(n in str(err) for n in named)
        # Backwards compatible with except ValueError handlers.
        assert isinstance(err, ValueError)


class TestPlacerIntegration:
    def test_placer_refuses_invalid_design(self, library):
        b = DesignBuilder("dangle", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        b.add_input("a", x=0, y=10)
        b.add_cell("u1", "INV_X1")
        b.add_cell("u2", "INV_X1")
        b.add_net("na", ["a", "u1/A"])
        # u2/A dangling input -> validation error
        opts = PlacerOptions(max_iters=5, validate=True)
        with pytest.raises(DesignValidationError) as info:
            GlobalPlacer(b.build(), opts).run()
        assert not info.value.report.ok

    def test_placer_attaches_report_on_pass(self, small_design):
        opts = PlacerOptions(max_iters=5, min_iters=1, validate=True)
        result = GlobalPlacer(small_design, opts).run()
        assert result.validation is not None
        assert result.validation.ok

    def test_report_example_cap(self, library):
        b = DesignBuilder("many", library, die=(0, 0, 40, 20))
        b.add_input("clk", x=0, y=0)
        for k in range(20):
            b.add_cell(f"u{k}", "INV_X1")  # 20 dangling inputs
        report = validate_design(b.build(), check_graph=False)
        errors = [i for i in report.errors if i.check == "dangling_pin"]
        # Capped listing plus a "... and N more" summary line.
        assert len(errors) <= 9
        assert any("more" in i.message for i in errors)
