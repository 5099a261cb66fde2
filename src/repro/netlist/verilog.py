"""Gate-level structural Verilog reader/writer.

The ICCAD 2015 kit the paper evaluates on ships its netlists as flat
structural Verilog.  This module supports that subset: one module with
``input``/``output``/``wire`` declarations and named-port instantiations::

    module top (a, b, clk, z);
      input a, b, clk;
      output z;
      wire n1, n2;
      NAND2_X1 u1 ( .A(a), .B(b), .Y(n1) );
      DFF_X1 ff0 ( .D(n1), .CK(clk), .Q(n2) );
      ...
    endmodule

:func:`write_verilog` emits a design; :func:`parse_verilog` reads one back
against a :class:`~repro.netlist.library.Library` (cell types must
resolve).  Ports become the zero-area port cells of the design model;
positions are not part of Verilog and default to the die boundary, so a
placement is typically restored separately (DEF).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from .design import Constraints, Design, DesignBuilder, PORT_IN_TYPE, PORT_OUT_TYPE
from .library import Library, PinDirection

__all__ = [
    "VerilogError",
    "parse_verilog",
    "write_verilog",
    "read_verilog_file",
    "write_verilog_file",
]


class VerilogError(ValueError):
    """Raised on malformed or unsupported Verilog input."""


_IDENT = r"[A-Za-z_\\][A-Za-z0-9_$\[\]\.\\]*"


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def _split_statements(text: str) -> List[str]:
    return [s.strip() for s in text.split(";") if s.strip()]


def _expand_names(decl: str) -> List[str]:
    return [n.strip() for n in decl.split(",") if n.strip()]


_INSTANCE_RE = re.compile(
    rf"^(?P<type>{_IDENT})\s+(?P<name>{_IDENT})\s*\((?P<ports>.*)\)\s*$",
    re.DOTALL,
)
_PORT_CONN_RE = re.compile(
    rf"\.\s*(?P<pin>{_IDENT})\s*\(\s*(?P<net>{_IDENT})?\s*\)"
)


def parse_verilog(
    text: str,
    library: Library,
    die: Tuple[float, float, float, float] = (0.0, 0.0, 100.0, 100.0),
    constraints: Optional[Constraints] = None,
    row_height: Optional[float] = None,
) -> Design:
    """Parse flat structural Verilog into a :class:`Design`.

    ``constraints.clock_port`` decides which input is the clock; without
    explicit constraints a port named ``clk``/``clock`` (if any) is used.
    """
    text = _strip_comments(text)
    m = re.search(
        r"module\s+(" + _IDENT + r")\s*\((.*?)\)\s*;(.*?)endmodule",
        text,
        re.DOTALL,
    )
    if m is None:
        raise VerilogError("no module ... endmodule block found")
    module_name, _header_ports, body = m.group(1), m.group(2), m.group(3)

    inputs: List[str] = []
    outputs: List[str] = []
    wires: List[str] = []
    instances: List[Tuple[str, str, Dict[str, str]]] = []
    aliases: Dict[str, str] = {}  # lhs net is electrically rhs net

    for statement in _split_statements(body):
        keyword = statement.split(None, 1)[0] if statement.split() else ""
        if keyword == "input":
            inputs.extend(_expand_names(statement[len("input"):]))
        elif keyword == "output":
            outputs.extend(_expand_names(statement[len("output"):]))
        elif keyword == "wire":
            wires.extend(_expand_names(statement[len("wire"):]))
        elif keyword == "assign":
            # Only simple net aliases (assign a = b) are structural.
            m_assign = re.fullmatch(
                rf"assign\s+({_IDENT})\s*=\s*({_IDENT})", statement.strip()
            )
            if m_assign is None:
                raise VerilogError(
                    f"unsupported statement (only 'assign a = b' aliases "
                    f"are structural): {statement[:40]!r}"
                )
            aliases[m_assign.group(1)] = m_assign.group(2)
        elif keyword in ("parameter", "supply0", "supply1"):
            raise VerilogError(f"unsupported statement: {statement[:40]!r}")
        else:
            inst = _INSTANCE_RE.match(statement)
            if inst is None:
                raise VerilogError(f"cannot parse statement: {statement[:60]!r}")
            type_name = inst.group("type")
            if type_name not in library:
                raise VerilogError(f"unknown cell type {type_name!r}")
            conns: Dict[str, str] = {}
            for pm in _PORT_CONN_RE.finditer(inst.group("ports")):
                if pm.group("net"):
                    conns[pm.group("pin")] = pm.group("net")
            instances.append((type_name, inst.group("name"), conns))

    if constraints is None:
        clock = next(
            (p for p in inputs if p.lower() in ("clk", "clock", "iccad_clk")),
            inputs[0] if inputs else "clk",
        )
        constraints = Constraints(clock_port=clock)

    builder = DesignBuilder(
        module_name,
        library,
        die=die,
        row_height=row_height,
        constraints=constraints,
    )
    xl, yl, xh, yh = die
    for i, port in enumerate(inputs):
        frac = (i + 1) / (len(inputs) + 1)
        builder.add_input(port, x=xl, y=yl + frac * (yh - yl))
    for i, port in enumerate(outputs):
        frac = (i + 1) / (len(outputs) + 1)
        builder.add_output(port, x=xh, y=yl + frac * (yh - yl))
    for type_name, inst_name, _ in instances:
        builder.add_cell(inst_name, type_name)

    # Group connections by net name, resolving assign aliases to their
    # electrical root so aliased nets merge.
    def resolve(name: str) -> str:
        seen = set()
        while name in aliases:
            if name in seen:
                raise VerilogError(f"cyclic assign chain through {name!r}")
            seen.add(name)
            name = aliases[name]
        return name

    net_pins: Dict[str, List[str]] = {}
    for port in inputs + outputs:
        net_pins.setdefault(resolve(port), []).append(port)
    for type_name, inst_name, conns in instances:
        ctype = library[type_name]
        for pin_name, net_name in conns.items():
            ctype.pin(pin_name)  # validates the pin exists
            net_pins.setdefault(resolve(net_name), []).append(
                f"{inst_name}/{pin_name}"
            )

    for net_name, refs in net_pins.items():
        if len(refs) >= 2:
            builder.add_net(net_name, refs)
    return builder.build()


def write_verilog(design: Design) -> str:
    """Serialise a design as flat structural Verilog."""
    inputs: List[str] = []
    outputs: List[str] = []
    for ci in range(design.n_cells):
        tname = design.cell_types[design.cell_type[ci]].name
        if tname == PORT_IN_TYPE:
            inputs.append(design.cell_name[ci])
        elif tname == PORT_OUT_TYPE:
            outputs.append(design.cell_name[ci])

    # Net name per pin (ports connect by their own name).  A net touching
    # several ports cannot be expressed structurally; the extra ports are
    # tied in with `assign` aliases.
    port_cells = set(inputs) | set(outputs)
    net_of_pin: Dict[int, str] = {}
    wires: List[str] = []
    assigns: List[Tuple[str, str]] = []
    for ni in range(design.n_nets):
        pins = design.net_pins(ni)
        port_names = []
        for p in pins:
            cname = design.cell_name[design.pin2cell[p]]
            if cname in port_cells:
                port_names.append(cname)
        net_name = port_names[0] if port_names else design.net_name[ni]
        if not port_names:
            wires.append(net_name)
        for extra in port_names[1:]:
            assigns.append((extra, net_name))
        for p in pins:
            net_of_pin[int(p)] = net_name

    lines = [f"module {design.name} ("]
    lines.append("  " + ", ".join(inputs + outputs))
    lines.append(");")
    if inputs:
        lines.append(f"  input {', '.join(inputs)};")
    if outputs:
        lines.append(f"  output {', '.join(outputs)};")
    if wires:
        lines.append(f"  wire {', '.join(wires)};")
    for lhs, rhs in assigns:
        lines.append(f"  assign {lhs} = {rhs};")
    lines.append("")

    # A cell's pins are its first pin plus their slots (flatten_pins order).
    first_pin = np.searchsorted(design.pin2cell, np.arange(design.n_cells)).tolist()
    for ci in range(design.n_cells):
        ctype = design.cell_types[design.cell_type[ci]]
        if ctype.name in (PORT_IN_TYPE, PORT_OUT_TYPE):
            continue
        conns = []
        for slot, spec in enumerate(ctype.pins):
            p = first_pin[ci] + slot
            if p in net_of_pin:
                conns.append(f".{spec.name}({net_of_pin[p]})")
        lines.append(
            f"  {ctype.name} {design.cell_name[ci]} ( {', '.join(conns)} );"
        )
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def read_verilog_file(path: str, library: Library, **kwargs) -> Design:
    """Read and parse a Verilog file."""
    with open(path) as handle:
        return parse_verilog(handle.read(), library, **kwargs)


def write_verilog_file(design: Design, path: str) -> None:
    """Write a design to a Verilog file."""
    with open(path, "w") as handle:
        handle.write(write_verilog(design))
