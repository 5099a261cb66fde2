"""Bookshelf placement-format reader/writer.

Implements the UCLA Bookshelf files used by academic placement contests:
``.aux``, ``.nodes``, ``.nets``, ``.pl`` and ``.scl``.  A
:class:`~repro.netlist.design.Design` can be exported with
:func:`write_bookshelf` and placements can be round-tripped with
:func:`save_placement` / :func:`load_placement`.  :func:`read_bookshelf`
parses a full Bookshelf bundle into a raw :class:`BookshelfData` structure
(Bookshelf carries no cell-library or timing information, so it cannot by
itself reconstruct a timing-capable :class:`Design`).

Bookshelf stores lower-left corners; :class:`Design` uses cell centers.
The conversion happens at the boundary of this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .design import Design

__all__ = [
    "BookshelfData",
    "BookshelfRow",
    "read_bookshelf",
    "write_bookshelf",
    "save_placement",
    "load_placement",
]


@dataclass
class BookshelfRow:
    """One ``CoreRow`` of the ``.scl`` file."""

    y: float
    height: float
    x: float
    num_sites: int
    site_width: float = 1.0


@dataclass
class BookshelfData:
    """Raw contents of a Bookshelf bundle."""

    name: str = ""
    node_name: List[str] = field(default_factory=list)
    node_width: List[float] = field(default_factory=list)
    node_height: List[float] = field(default_factory=list)
    node_terminal: List[bool] = field(default_factory=list)
    node_x: List[float] = field(default_factory=list)
    node_y: List[float] = field(default_factory=list)
    node_fixed: List[bool] = field(default_factory=list)
    net_name: List[str] = field(default_factory=list)
    net_pins: List[List[Tuple[str, str, float, float]]] = field(default_factory=list)
    rows: List[BookshelfRow] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return len(self.node_name)

    @property
    def num_nets(self) -> int:
        return len(self.net_name)

    @property
    def num_pins(self) -> int:
        return sum(len(p) for p in self.net_pins)


def _data_lines(path: str) -> List[str]:
    """Non-comment, non-empty lines of a Bookshelf file (header dropped)."""
    lines = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line or line.startswith("UCLA"):
                continue
            lines.append(line)
    return lines


def _parse_nodes(path: str, data: BookshelfData) -> None:
    for line in _data_lines(path):
        if line.startswith(("NumNodes", "NumTerminals")):
            continue
        parts = line.split()
        data.node_name.append(parts[0])
        data.node_width.append(float(parts[1]))
        data.node_height.append(float(parts[2]))
        data.node_terminal.append(len(parts) > 3 and parts[3] == "terminal")
        data.node_x.append(0.0)
        data.node_y.append(0.0)
        data.node_fixed.append(False)


def _parse_nets(path: str, data: BookshelfData) -> None:
    current: Optional[List[Tuple[str, str, float, float]]] = None
    for line in _data_lines(path):
        if line.startswith(("NumNets", "NumPins")):
            continue
        if line.startswith("NetDegree"):
            _, rest = line.split(":", 1)
            parts = rest.split()
            name = parts[1] if len(parts) > 1 else f"net{len(data.net_name)}"
            current = []
            data.net_name.append(name)
            data.net_pins.append(current)
            continue
        if current is None:
            raise ValueError(f"{path}: pin line before any NetDegree: {line!r}")
        parts = line.replace(":", " ").split()
        node, direction = parts[0], parts[1]
        xoff = float(parts[2]) if len(parts) > 2 else 0.0
        yoff = float(parts[3]) if len(parts) > 3 else 0.0
        current.append((node, direction, xoff, yoff))


def _parse_pl(path: str, data: BookshelfData) -> None:
    index = {n: i for i, n in enumerate(data.node_name)}
    for line in _data_lines(path):
        parts = line.replace(":", " ").split()
        if parts[0] not in index:
            continue
        i = index[parts[0]]
        data.node_x[i] = float(parts[1])
        data.node_y[i] = float(parts[2])
        data.node_fixed[i] = line.rstrip().endswith("/FIXED")


def _parse_scl(path: str, data: BookshelfData) -> None:
    row: Dict[str, float] = {}
    for line in _data_lines(path):
        key = line.split()[0].lower()
        if key == "corerow":
            row = {}
        elif key == "end":
            if row:
                data.rows.append(
                    BookshelfRow(
                        y=row.get("coordinate", 0.0),
                        height=row.get("height", 0.0),
                        x=row.get("subroworigin", 0.0),
                        num_sites=int(row.get("numsites", 0)),
                        site_width=row.get("sitewidth", 1.0),
                    )
                )
            row = {}
        elif ":" in line:
            # "SubrowOrigin : 0 NumSites : 100" may share a line; after
            # stripping colons, keys and numeric values alternate.
            tokens = line.replace(":", " ").split()
            k = 0
            while k + 1 < len(tokens):
                try:
                    row[tokens[k].lower()] = float(tokens[k + 1])
                    k += 2
                except ValueError:
                    k += 1


def read_bookshelf(aux_path: str) -> BookshelfData:
    """Read a Bookshelf bundle via its ``.aux`` file."""
    directory = os.path.dirname(os.path.abspath(aux_path))
    with open(aux_path) as handle:
        content = handle.read()
    if ":" not in content:
        raise ValueError(f"{aux_path}: malformed .aux file")
    files = content.split(":", 1)[1].split()
    data = BookshelfData(name=os.path.splitext(os.path.basename(aux_path))[0])
    by_ext = {os.path.splitext(f)[1]: os.path.join(directory, f) for f in files}
    if ".nodes" in by_ext:
        _parse_nodes(by_ext[".nodes"], data)
    if ".nets" in by_ext:
        _parse_nets(by_ext[".nets"], data)
    if ".pl" in by_ext:
        _parse_pl(by_ext[".pl"], data)
    if ".scl" in by_ext:
        _parse_scl(by_ext[".scl"], data)
    return data


# ----------------------------------------------------------------------
# Design -> Bookshelf
# ----------------------------------------------------------------------
def write_bookshelf(design: Design, directory: str, name: Optional[str] = None) -> str:
    """Export a design (with its stored placement) as a Bookshelf bundle.

    Returns the path of the written ``.aux`` file.
    """
    name = name or design.name
    os.makedirs(directory, exist_ok=True)

    def path(ext: str) -> str:
        return os.path.join(directory, f"{name}.{ext}")

    n_terminals = int(np.count_nonzero(design.cell_fixed))
    with open(path("nodes"), "w") as handle:
        handle.write("UCLA nodes 1.0\n")
        handle.write(f"NumNodes : {design.n_cells}\n")
        handle.write(f"NumTerminals : {n_terminals}\n")
        for i in range(design.n_cells):
            terminal = "\tterminal" if design.cell_fixed[i] else ""
            handle.write(
                f"\t{design.cell_name[i]}\t{design.cell_w[i]:g}"
                f"\t{design.cell_h[i]:g}{terminal}\n"
            )

    with open(path("nets"), "w") as handle:
        handle.write("UCLA nets 1.0\n")
        handle.write(f"NumNets : {design.n_nets}\n")
        handle.write(f"NumPins : {design.n_pins}\n")
        for ni in range(design.n_nets):
            pins = design.net_pins(ni)
            handle.write(f"NetDegree : {len(pins)} {design.net_name[ni]}\n")
            for p in pins:
                direction = "O" if design.pin_dir[p] == 1 else "I"
                handle.write(
                    f"\t{design.cell_name[design.pin2cell[p]]} {direction} : "
                    f"{design.pin_offset_x[p]:g} {design.pin_offset_y[p]:g}\n"
                )

    save_placement(design, design.cell_x, design.cell_y, path("pl"))

    xl, yl, xh, yh = design.die
    row_h = design.row_height
    n_rows = max(int((yh - yl) / row_h), 1)
    with open(path("scl"), "w") as handle:
        handle.write("UCLA scl 1.0\n")
        handle.write(f"NumRows : {n_rows}\n")
        for r in range(n_rows):
            handle.write("CoreRow Horizontal\n")
            handle.write(f"  Coordinate : {yl + r * row_h:g}\n")
            handle.write(f"  Height : {row_h:g}\n")
            handle.write("  Sitewidth : 1\n")
            handle.write("  Sitespacing : 1\n")
            handle.write(f"  SubrowOrigin : {xl:g} NumSites : {int(xh - xl)}\n")
            handle.write("End\n")

    aux = path("aux")
    with open(aux, "w") as handle:
        handle.write(
            f"RowBasedPlacement : {name}.nodes {name}.nets {name}.pl {name}.scl\n"
        )
    return aux


def save_placement(design: Design, x: np.ndarray, y: np.ndarray, path: str) -> None:
    """Write a ``.pl`` file from cell-center coordinates."""
    with open(path, "w") as handle:
        handle.write("UCLA pl 1.0\n")
        for i in range(design.n_cells):
            llx = x[i] - 0.5 * design.cell_w[i]
            lly = y[i] - 0.5 * design.cell_h[i]
            fixed = " /FIXED" if design.cell_fixed[i] else ""
            handle.write(f"{design.cell_name[i]}\t{llx:.6f}\t{lly:.6f}\t: N{fixed}\n")


def load_placement(design: Design, path: str) -> Tuple[np.ndarray, np.ndarray]:
    """Read a ``.pl`` file back into cell-center coordinate arrays."""
    x = design.cell_x.copy()
    y = design.cell_y.copy()
    for line in _data_lines(path):
        parts = line.replace(":", " ").split()
        try:
            i = design.cell_index(parts[0])
        except KeyError:
            continue
        x[i] = float(parts[1]) + 0.5 * design.cell_w[i]
        y[i] = float(parts[2]) + 0.5 * design.cell_h[i]
    return x, y
