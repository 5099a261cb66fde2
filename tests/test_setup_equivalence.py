"""Set-up as array programs == the per-object constructors they replaced.

``DesignBuilder.build()`` and ``TimingGraph.__init__`` expand per-type
templates over cells; ``tests/reference_setup.py`` keeps the loops they
replaced.  Every ``Design`` field, every ``TimingGraph`` table and the
finalized ``LutBank`` must be equal - values *and* dtypes - so that no
flow metric can move with the construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.suite import SUITE, design_spec
from repro.netlist import (
    Constraints,
    DesignBuilder,
    GeneratorSpec,
    apply_def_placement,
    default_library,
    generate_design,
    parse_def,
    parse_verilog,
    write_def,
    write_verilog,
)
from repro.netlist import generator, verilog
from repro.sta.graph import LevelizedArcs, TimingGraph
from repro.sta.nldm import LutBank
from tests.reference_setup import (
    ReferenceBuilder,
    ReferenceGraph,
    design_digest,
    rebuild_design,
    reference_cell_fields,
    reference_pin_names,
)


_LIB = default_library()


# ----------------------------------------------------------------------
# Field-by-field equality
# ----------------------------------------------------------------------
def _assert_same(ref, new, where):
    assert type(ref) is type(new), f"{where}: {type(ref)} vs {type(new)}"
    if isinstance(ref, np.ndarray):
        assert ref.dtype == new.dtype, f"{where}: {ref.dtype} vs {new.dtype}"
        assert np.array_equal(ref, new), where
    elif isinstance(ref, LevelizedArcs):
        _assert_same(ref.offsets, new.offsets, f"{where}.offsets")
    elif isinstance(ref, LutBank):
        assert len(ref) == len(new), where
        assert all(a is b for a, b in zip(ref._luts, new._luts)), where
        for name in ("x", "y", "values", "x_len", "y_len"):
            _assert_same(getattr(ref, name), getattr(new, name), f"{where}.{name}")
    else:
        assert ref == new, where


def assert_same_design(ref, new):
    assert vars(ref).keys() == vars(new).keys()
    for name, value in vars(ref).items():
        if name == "cell_types":
            # Library types are shared objects; the two port types are
            # made per builder.
            assert [t.name for t in value] == [t.name for t in new.cell_types]
            assert all(a is b for a, b in zip(value[2:], new.cell_types[2:]))
        elif name == "library":
            assert value is new.library
        else:
            _assert_same(value, getattr(new, name), f"design.{name}")
    for name, value in reference_cell_fields(new).items():
        _assert_same(value, getattr(new, name), f"design.{name}")
    # Derived, not stored: the names the per-object builder stored.
    _assert_same(reference_pin_names(ref), list(new.pin_name), "design.pin_name")


def assert_same_graph(design):
    ref, new = ReferenceGraph(design), TimingGraph(design)
    assert vars(ref).keys() == vars(new).keys()
    for name, value in vars(ref).items():
        if name == "design":
            assert new.design is design
        else:
            _assert_same(value, getattr(new, name), f"graph.{name}")
    return new


def _both(monkeypatch, module, make):
    """``make()`` with the module's builder as shipped, then as it was."""
    new = make()
    monkeypatch.setattr(module, "DesignBuilder", ReferenceBuilder)
    ref = make()
    monkeypatch.undo()
    return ref, new


# ----------------------------------------------------------------------
# Generated designs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [e.name for e in SUITE] + ["midiblue50"])
def test_suite_design_and_graph(name, monkeypatch):
    spec = design_spec(name)
    ref, new = _both(monkeypatch, generator, lambda: generate_design(spec, _LIB))
    assert_same_design(ref, new)
    graph = assert_same_graph(new)
    if name == "midiblue50":
        assert graph.n_levels == 71
    if name == "miniblue18":
        assert graph.n_levels == 27


#: ``design_digest`` of designs generated while the vectorized engine
#: still named every pin (``"u123/A"``) for the builder to parse back:
#: what its index hand-off must keep producing.  ``vec_wide`` has layers
#: wider than the one before (sampled first inputs), ``vec_manyhf`` draws
#: port signals for high-fanout nets (skipped) and sweeps many buffers.
_DIGESTS = [
    (
        GeneratorSpec(name="vec_small", n_cells=600, depth=6, seed=3, engine="vectorized"),
        "22be1e2fb7b346a6aaeb02525753c0d6a8130ca9885e8781de328f0df2f7f360",
    ),
    (
        GeneratorSpec(
            name="vec_wide", n_cells=900, depth=3, seed=5, engine="vectorized",
            ff_fraction=0.02, n_inputs=3,
        ),
        "03556e3840387a5d429593a0c994acb35566bc0fcb5df936874f7d979c7333cb",
    ),
    (
        GeneratorSpec(
            name="vec_nohf", n_cells=300, depth=12, seed=9, engine="vectorized",
            n_high_fanout_nets=0,
        ),
        "b8183665c7cec07451bbbc276fadc758d1e270e2932be3585d0fc54f2ff0bee0",
    ),
    (
        GeneratorSpec(
            name="vec_manyhf", n_cells=200, depth=4, seed=1, engine="vectorized",
            n_high_fanout_nets=40, n_inputs=60,
        ),
        "94d3f42793f7245879700607cd91bb5bac7c648bbd2b5f56633e50d2eb9b4cb0",
    ),
    (
        design_spec("midiblue50"),
        "8a0639ea1eda29c61c08f72375093cb60db9baaa8703b38639838968d12d93d3",
    ),
    (
        design_spec("miniblue18"),
        "d2ffab0a2778319d0911b4a6f0a98ac2859a7c4d0599a1f2f3a8810295d8ba66",
    ),
]


@pytest.mark.parametrize(
    "spec, digest", _DIGESTS, ids=[s.name for s, _ in _DIGESTS]
)
def test_generator_hand_off_keeps_the_designs(spec, digest):
    assert design_digest(generate_design(spec)) == digest


# ----------------------------------------------------------------------
# Designs that came through the text readers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def netlist_text():
    design = generate_design(GeneratorSpec(name="rt", n_cells=120, depth=5, seed=2))
    return write_verilog(design)


def test_verilog_read_design(netlist_text, monkeypatch):
    ref, new = _both(monkeypatch, verilog, lambda: parse_verilog(netlist_text, _LIB))
    assert_same_design(ref, new)
    assert_same_graph(new)


def _moved(design, seed):
    rng = np.random.default_rng(seed)
    xl, yl, xh, yh = design.die
    return rng.uniform(xl, xh, design.n_cells), rng.uniform(yl, yh, design.n_cells)


def test_def_read_design(netlist_text):
    design = parse_verilog(netlist_text, _LIB)
    text = write_def(design, *_moved(design, 2))
    design.cell_x, design.cell_y = apply_def_placement(design, parse_def(text))
    ref, new = rebuild_design(design, ReferenceBuilder), rebuild_design(design)
    assert_same_design(ref, new)
    assert_same_graph(new)


# ----------------------------------------------------------------------
# Tiny drawn designs
# ----------------------------------------------------------------------
_TYPES = ["INV_X1", "NAND2_X1", "XOR2_X1", "MUX2_X1", "BUF_X2", "DFF_X1"]


@st.composite
def tiny_netlists(draw):
    """Builder calls of a small acyclic design.

    Every draw holds a non-unate arc (the XOR, the flip-flop's CK->Q), a
    hold arc (the flip-flop), a clock net, a pin left unconnected, a net
    without a driver and a net of one pin; cells, fan-in choices, port
    placement and the SDC values vary around that.
    """
    types = ["DFF_X1", "XOR2_X1"] + draw(
        st.lists(st.sampled_from(_TYPES), min_size=1, max_size=8)
    )
    n_in = draw(st.integers(1, 3))
    calls = [("add_input", "clk", draw(st.sampled_from([(0.0, 0.0), (None, None)])))]
    for i in range(n_in):
        xy = draw(st.sampled_from([(0.0, 5.0 + i), (None, None), (None, 3.0)]))
        calls.append(("add_input", f"in{i}", xy))
    calls.append(("add_output", "out0", draw(st.sampled_from([(40.0, 9.0), (None, None)]))))
    calls.append(("add_output", "out1", (None, None)))  # stays unconnected
    for i, t in enumerate(types):
        calls.append(("add_cell", f"c{i}", t))

    sinks_of = {}  # driver ref -> sink refs
    drivers = [f"in{i}" for i in range(n_in)]
    loose, clocked = [], []
    for i, t in enumerate(types):
        ctype = _LIB[t]
        for pin in ctype.input_pins:
            ref = f"c{i}/{pin.name}"
            if pin.is_clock:
                if i == 0 or draw(st.booleans()):
                    clocked.append(ref)
            elif draw(st.integers(0, 4)) == 0:
                loose.append(ref)
            else:
                sinks_of.setdefault(draw(st.sampled_from(drivers)), []).append(ref)
        drivers.append(f"c{i}/{ctype.output_pins[0].name}")
    sinks_of.setdefault(draw(st.sampled_from(drivers)), []).append("out0")
    nets = [[d] + s for d, s in sinks_of.items()]
    nets.append(["clk"] + clocked)
    lone = draw(st.sampled_from(drivers[n_in:]))
    if lone not in sinks_of:
        nets.append([lone])  # a driver alone: degree 1
    if len(loose) >= 2:
        nets.append(loose[: len(loose) // 2])  # sinks only: no driver
    calls.append(("add_cell", "floating", "NAND2_X1"))
    nets.append(["floating/A"])  # no driver and degree 1; B stays unconnected
    order = draw(st.permutations(range(len(nets))))
    for k in order:
        calls.append(("add_net", f"n{k}", nets[k]))
    constraints = Constraints(
        clock_period=draw(st.sampled_from([150.0, 400.0])),
        clock_port="clk",
        input_delays={"in0": draw(st.floats(0.0, 30.0))},
        output_loads={"out0": draw(st.floats(1.0, 9.0))},
    )
    return calls, constraints


def _replay(cls, calls, constraints):
    builder = cls("tiny", _LIB, die=(0.0, 0.0, 40.0, 20.0), constraints=constraints)
    for method, name, arg in calls:
        if method == "add_cell":
            builder.add_cell(name, arg)
        elif method == "add_net":
            builder.add_net(name, arg)
        else:
            getattr(builder, method)(name, x=arg[0], y=arg[1])
    return builder.build()


@settings(max_examples=60, deadline=None)
@given(tiny_netlists())
def test_tiny_designs(drawn):
    calls, constraints = drawn
    new = _replay(DesignBuilder, calls, constraints)
    assert_same_design(_replay(ReferenceBuilder, calls, constraints), new)
    graph = assert_same_graph(new)
    assert len(graph.hold_d) >= 1 and (new.pin2net == -1).any()
    assert (new.net_driver == -1).any() and (new.net_degrees == 1).any()
    assert new.net_is_clock.sum() == 1


def test_forward_reference_resolves_at_build():
    """A net may name a cell that is only added later."""
    def calls(builder):
        builder.add_input("a")
        builder.add_net("n0", ["a", "late/A"])
        builder.add_cell("late", "INV_X1")
        builder.add_net("n1", ["late/Y", "top/u1/A"])
        builder.add_cell("top/u1", "INV_X1")  # a "/" in the cell's own name
        return builder.build()

    assert_same_design(
        calls(ReferenceBuilder("fwd", _LIB)), calls(DesignBuilder("fwd", _LIB))
    )


def test_bulk_entry_points_equal_the_calls_they_stand_for():
    names = ["a", "b", "c", "d"]
    types = ["NAND2_X1", "INV_X1", "DFF_X1"]
    type_of = np.array([1, 0, 1, 2])
    start = np.array([0, 3, 5, 6])
    cell = np.array([0, 1, 2, 1, 3, 4])  # 0: the port; cells from 1
    slot = np.array([0, 0, 0, 1, 0, 2])

    def calls(builder):
        builder.add_input("p")
        builder.add_cells(names, types, type_of)
        builder.add_nets(["x", "y", "z"], start, cell, slot)
        return builder.build()

    new = calls(DesignBuilder("bulk", _LIB))
    assert_same_design(calls(ReferenceBuilder("bulk", _LIB)), new)
    # Types register in order of first appearance, not palette order.
    assert [t.name for t in new.cell_types[2:]] == ["INV_X1", "NAND2_X1", "DFF_X1"]
    assert [new.pin_name[p] for p in new.net_pins(0)] == ["p/O", "a/A", "b/A"]

    builder = DesignBuilder("bulk", _LIB)
    builder.add_cells(names, types, type_of)
    with pytest.raises(ValueError, match="duplicate cell 'c'"):
        builder.add_cells(["e", "c"], types, np.array([0, 0]))
    with pytest.raises(ValueError, match="duplicate cell 'e'"):
        builder.add_cells(["e", "e"], types, np.array([0, 0]))
    with pytest.raises(IndexError, match="cell that was not added"):
        builder.add_nets(["x"], np.array([0, 1]), np.array([4]), np.array([0]))
    with pytest.raises(IndexError, match="pin slot"):
        builder.add_nets(["x"], np.array([0, 1]), np.array([0]), np.array([2]))
    with pytest.raises(ValueError, match="net CSR"):
        builder.add_nets(["x"], np.array([0, 2]), np.array([0]), np.array([0]))
    builder.add_nets(["x"], np.array([0, 1]), np.array([0]), np.array([0]))
    with pytest.raises(ValueError, match="duplicate net 'x'"):
        builder.add_nets(["x"], np.array([0, 1]), np.array([1]), np.array([0]))


# ----------------------------------------------------------------------
# Error paths: same exception type, same message, same precedence
# ----------------------------------------------------------------------
def _err_two_nets(b):
    b.add_net("n1", ["a", "u1/A"])
    b.add_net("n2", ["u1/A"])


def _err_same_pin_twice_in_a_net(b):
    b.add_net("n1", ["u1/Y", "u2/A", "u1/Y"])


def _err_multiple_drivers(b):
    b.add_net("n1", ["a", "u1/A"])
    b.add_net("n2", ["u2/A", "u1/Y", "u2/Y"])


def _err_unknown_cell(b):
    b.add_net("n1", ["a", "ghost/A"])


def _err_unknown_port(b):
    b.add_net("n1", ["ghost", "u1/A"])


def _err_unknown_pin(b):
    b.add_net("n1", ["a", "u1/Q"])


def _err_cell_named_like_a_port(b):
    b.add_net("n1", ["a", "u1"])


def _err_two_nets_before_a_later_unknown(b):
    _err_two_nets(b)
    b.add_net("n3", ["ghost/A"])


def _err_unknown_before_later_drivers(b):
    b.add_net("n0", ["ghost/A"])
    _err_multiple_drivers(b)


def _err_first_of_two_unknowns(b):
    b.add_net("n0", ["u1/A", "ghost/A", "nobody"])


def _err_unknown_after_drivers_in_one_net(b):
    b.add_net("n0", ["u1/Y", "u2/Y", "ghost/A"])


_ERRORS = [
    (_err_two_nets, ValueError),
    (_err_same_pin_twice_in_a_net, ValueError),
    (_err_multiple_drivers, ValueError),
    (_err_unknown_cell, KeyError),
    (_err_unknown_port, KeyError),
    (_err_unknown_pin, KeyError),
    (_err_cell_named_like_a_port, KeyError),
    (_err_two_nets_before_a_later_unknown, ValueError),
    (_err_unknown_before_later_drivers, KeyError),
    (_err_first_of_two_unknowns, KeyError),
    (_err_unknown_after_drivers_in_one_net, ValueError),
]


@pytest.mark.parametrize("scenario, kind", _ERRORS, ids=[f.__name__ for f, _ in _ERRORS])
def test_build_errors_keep_type_message_and_order(scenario, kind):
    raised = []
    for cls in (ReferenceBuilder, DesignBuilder):
        builder = cls("err", _LIB)
        builder.add_input("a")
        builder.add_cell("u1", "INV_X1")
        builder.add_cell("u2", "INV_X1")
        scenario(builder)  # nothing raises before build()
        with pytest.raises(kind) as info:
            builder.build()
        raised.append(info.value)
    assert type(raised[0]) is type(raised[1]) is kind
    assert str(raised[0]) == str(raised[1])


def test_pin_order_invariant_is_checked():
    def design():
        builder = DesignBuilder("inv", _LIB)
        builder.add_input("a")
        builder.add_cell("u1", "NAND2_X1")
        builder.add_net("n", ["a", "u1/A"])
        return builder.build()

    # Names are derived in library pin order, so they cannot be swapped.
    named = design()
    p = named.pin_name.index("u1/A")
    assert named.pin_name[p + 1] == "u1/B"
    with pytest.raises(TypeError):
        named.pin_name[p] = "u1/B"
    regrouped = design()
    regrouped.pin2cell = regrouped.pin2cell[::-1].copy()
    with pytest.raises(ValueError, match="library pin order"):
        TimingGraph(regrouped)
    TimingGraph(design())


# ----------------------------------------------------------------------
# The boundary-port scatter draws one stream, however it is asked for
# ----------------------------------------------------------------------
def test_uniform_stream_scalar_vs_sized():
    one_by_one = np.random.default_rng(0)
    scalars = [one_by_one.uniform(0.0, 4.0) for _ in range(37)]
    assert np.random.default_rng(0).uniform(0.0, 4.0, size=37).tolist() == scalars
    assert np.random.default_rng(0).uniform(0.0, 4.0, size=0).shape == (0,)


def test_unplaced_ports_scatter_as_before():
    def calls(builder):
        for i in range(40):  # all four sides come up
            builder.add_input(f"i{i}")
            builder.add_output(f"o{i}", x=None, y=float(i))  # half placed: centred x
            builder.add_cell(f"u{i}", "INV_X1")  # unplaced cells draw nothing
        builder.add_input("placed", x=1.0, y=2.0)
        return builder.build()

    die = (2.0, 3.0, 50.0, 31.0)
    new = calls(DesignBuilder("ports", _LIB, die=die))
    assert_same_design(calls(ReferenceBuilder("ports", _LIB, die=die)), new)
    xs, ys = new.cell_x[0::3][:40], new.cell_y[0::3][:40]
    on_edge = (xs == 2.0) | (xs == 50.0) | (ys == 3.0) | (ys == 31.0)
    assert on_edge.all()
    assert {(xs == 2.0).any(), (xs == 50.0).any(), (ys == 3.0).any(), (ys == 31.0).any()} == {True}
