"""Circuit data model: library, design, parsers, and benchmark generation."""

from .lut import LUT
from .library import (
    ArcKind,
    CellType,
    FALL,
    Library,
    PinDirection,
    PinSpec,
    RISE,
    TimingArc,
    Unateness,
    WireModel,
    default_library,
)
from .design import Constraints, Design, DesignBuilder
from .liberty import (
    LibertyError,
    parse_liberty,
    read_liberty_file,
    write_liberty,
    write_liberty_file,
)
from .sdc import SDCError, parse_sdc, read_sdc_file, write_sdc, write_sdc_file
from .generator import GeneratorSpec, generate_design, make_chain_design
from .verilog import (
    VerilogError,
    parse_verilog,
    read_verilog_file,
    write_verilog,
    write_verilog_file,
)
from .def_io import (
    DefData,
    DefError,
    apply_def_placement,
    parse_def,
    read_def_file,
    write_def,
    write_def_file,
)
from .bundle import load_design_bundle, save_design
from .cache import (
    CacheInfo,
    DesignBundle,
    design_cache_key,
    ensure_cached,
    load_bundle,
)

__all__ = [
    "LUT",
    "ArcKind",
    "CellType",
    "FALL",
    "Library",
    "PinDirection",
    "PinSpec",
    "RISE",
    "TimingArc",
    "Unateness",
    "WireModel",
    "default_library",
    "Constraints",
    "Design",
    "DesignBuilder",
    "LibertyError",
    "parse_liberty",
    "read_liberty_file",
    "write_liberty",
    "write_liberty_file",
    "SDCError",
    "parse_sdc",
    "read_sdc_file",
    "write_sdc",
    "write_sdc_file",
    "GeneratorSpec",
    "generate_design",
    "make_chain_design",
    "VerilogError",
    "parse_verilog",
    "read_verilog_file",
    "write_verilog",
    "write_verilog_file",
    "DefData",
    "DefError",
    "apply_def_placement",
    "parse_def",
    "read_def_file",
    "write_def",
    "write_def_file",
    "load_design_bundle",
    "save_design",
    "CacheInfo",
    "DesignBundle",
    "design_cache_key",
    "ensure_cached",
    "load_bundle",
]
