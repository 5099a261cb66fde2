"""Unit tests for the Design / DesignBuilder data model."""

import numpy as np
import pytest

from repro.netlist import Constraints, DesignBuilder, GeneratorSpec, PinDirection
from repro.netlist.cache import clear_memo, load_bundle


class TestBuilderBasics:
    def test_simple_design(self, tiny_builder):
        b = tiny_builder
        b.add_cell("u1", "INV_X1")
        b.add_net("n_in", ["a", "u1/A"])
        b.add_net("n_out", ["u1/Y", "z"])
        d = b.build()
        assert d.n_cells == 4  # clk, a, z, u1
        assert d.n_nets == 2
        assert d.n_pins == 2 + 1 + 2  # INV has 2 pins, ports 1 each

    def test_duplicate_cell_rejected(self, tiny_builder):
        tiny_builder.add_cell("u1", "INV_X1")
        with pytest.raises(ValueError, match="duplicate cell"):
            tiny_builder.add_cell("u1", "INV_X1")

    def test_duplicate_net_rejected(self, tiny_builder):
        tiny_builder.add_cell("u1", "INV_X1")
        tiny_builder.add_net("n", ["a", "u1/A"])
        with pytest.raises(ValueError, match="duplicate net"):
            tiny_builder.add_net("n", ["u1/Y", "z"])

    def test_multiple_drivers_rejected(self, tiny_builder):
        tiny_builder.add_cell("u1", "INV_X1")
        tiny_builder.add_cell("u2", "INV_X1")
        with pytest.raises(ValueError, match="multiple drivers"):
            tiny_builder.add_net("n", ["u1/Y", "u2/Y"])
            tiny_builder.build()

    def test_pin_double_connection_rejected(self, tiny_builder):
        tiny_builder.add_cell("u1", "INV_X1")
        tiny_builder.add_net("n1", ["a", "u1/A"])
        tiny_builder.add_net("n2", ["u1/A"])
        with pytest.raises(ValueError, match="connected to two nets"):
            tiny_builder.build()

    def test_unknown_cell_in_net_rejected(self, tiny_builder):
        tiny_builder.add_net("n", ["ghost/A"])
        with pytest.raises(KeyError):
            tiny_builder.build()

    def test_unknown_pin_rejected(self, tiny_builder):
        tiny_builder.add_cell("u1", "INV_X1")
        tiny_builder.add_net("n", ["u1/Q"])
        with pytest.raises(KeyError):
            tiny_builder.build()

    def test_bare_port_reference_resolves(self, tiny_builder):
        tiny_builder.add_cell("u1", "INV_X1")
        tiny_builder.add_net("n1", ["a", "u1/A"])
        tiny_builder.add_net("n2", ["u1/Y", "z"])
        d = tiny_builder.build()
        # "a" resolves to the port's O pin (a driver).
        ni = d.net_index("n1")
        assert d.net_driver[ni] >= 0
        assert d.pin_name[d.net_driver[ni]] == "a/O"


class TestDesignQueries:
    def test_pin_positions_follow_cells(self, chain_design):
        d = chain_design
        x = d.cell_x.copy()
        y = d.cell_y.copy()
        px0, py0 = d.pin_positions()
        x2 = x + 3.0
        px1, py1 = d.pin_positions(x2, y)
        np.testing.assert_allclose(px1 - px0, 3.0)
        np.testing.assert_allclose(py1, py0)

    def test_net_pins_and_degree(self, chain_design):
        d = chain_design
        for ni in range(d.n_nets):
            pins = d.net_pins(ni)
            assert len(pins) == d.net_degree(ni)
            assert d.net_driver[ni] in pins

    def test_clock_net_marked(self, chain_design):
        d = chain_design
        ni = d.net_index("clknet")
        assert d.net_is_clock[ni]
        assert not d.net_is_clock[d.net_index("n_d")]

    def test_ports_are_fixed_zero_area(self, chain_design):
        d = chain_design
        for i in range(d.n_cells):
            if d.cell_is_port[i]:
                assert d.cell_fixed[i]
                assert d.cell_w[i] == 0.0

    def test_stats(self, chain_design):
        s = chain_design.stats()
        assert s["cells"] == chain_design.n_cells
        assert s["pins"] == chain_design.n_pins

    def test_movable_area_excludes_fixed(self, chain_design):
        d = chain_design
        manual = float(
            np.sum((d.cell_w * d.cell_h)[~d.cell_fixed])
        )
        assert d.movable_area == pytest.approx(manual)

    def test_cell_index_roundtrip(self, chain_design, tmp_path):
        """Names index their cells, nets and pins, also on a design read
        back from a bundle file, which stores neither the name indexes nor
        the per-pin names."""
        spec = GeneratorSpec(name="names", n_cells=120, depth=5, seed=4)
        clear_memo()
        load_bundle(spec, str(tmp_path))
        clear_memo()
        reloaded, info = load_bundle(spec, str(tmp_path))
        assert info.hit
        state = vars(reloaded.design)
        assert "pin_name" not in state
        assert not any(isinstance(value, dict) for value in state.values())
        for d in (chain_design, reloaded.design):
            for i, name in enumerate(d.cell_name):
                assert d.cell_index(name) == i
            for j, name in enumerate(d.net_name):
                assert d.net_index(name) == j
            for p, name in enumerate(d.pin_name):
                assert d.pin_name.index(name) == p
            assert len(d.pin_name) == d.n_pins
        clear_memo()

    def test_repr(self, chain_design):
        assert "chain" in repr(chain_design)


class TestConstraints:
    def test_defaults(self):
        c = Constraints(clock_period=500.0)
        assert c.input_delay("whatever") == c.default_input_delay
        assert c.output_load("x") == c.default_output_load

    def test_overrides(self):
        c = Constraints(
            clock_period=500.0,
            input_delays={"a": 17.0},
            input_slews={"a": 33.0},
            output_delays={"z": 5.0},
            output_loads={"z": 9.0},
        )
        assert c.input_delay("a") == 17.0
        assert c.input_slew("a") == 33.0
        assert c.output_delay("z") == 5.0
        assert c.output_load("z") == 9.0
