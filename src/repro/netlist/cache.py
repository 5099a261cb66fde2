"""Content-keyed on-disk cache of generated design bundles.

Generating a midiblue-scale design and levelizing its timing graph costs
seconds; the suite runner used to pay that cost *per task per process*,
which is why ``BENCH_placer.json`` once recorded a 0.99x parallel
"speedup".  This module makes design construction happen once, ever:

- a **bundle** is the immutable design state every run needs - the
  :class:`~repro.netlist.design.Design` (netlist CSRs, library with its
  NLDM LUTs, constraints) plus the levelized
  :class:`~repro.sta.graph.TimingGraph` (banked LUT tables, arc tables
  sorted by level) built from it;
- bundles are pickled to ``benchmarks/.design_cache/`` (override with
  ``REPRO_DESIGN_CACHE`` or an explicit ``cache_dir=``), keyed by the
  full :class:`~repro.netlist.generator.GeneratorSpec` (generator name,
  every parameter, seed) *and* a hash of the source of the generator and
  of every module whose instances a bundle pickles (design, library,
  LUT, timing graph, LUT bank), so a change to any of that code or to a
  single knob invalidates the entry;
- files carry a magic header and a SHA-256 payload checksum: a
  truncated, corrupted or stale-format file is detected, reported as a
  miss and regenerated in place (atomic ``os.replace``), never trusted;
- a per-process memo returns the same bundle object for repeated loads,
  which is what makes the suite runner's workers *warm*: the process
  unpickles a design once and every subsequent task reuses it (designs
  are never mutated by runs - the placers copy the coordinate arrays).

Pickle round-trips NumPy float arrays bit-exactly, so a cache hit is
bit-identical to regeneration; ``tests/test_netlist_cache.py`` holds that
contract.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import pickle
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from .design import Design
from .generator import GeneratorSpec, generate_design

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CACHE_ENV_VAR",
    "DesignBundle",
    "CacheInfo",
    "cache_dir",
    "design_cache_key",
    "generator_code_version",
    "load_bundle",
    "ensure_cached",
    "clear_memo",
]

#: Default cache location (relative to the working directory, matching
#: where the benchmark scripts run from).
DEFAULT_CACHE_DIR = os.path.join("benchmarks", ".design_cache")

#: Environment override for the cache directory.
CACHE_ENV_VAR = "REPRO_DESIGN_CACHE"

#: Bundle file magic + format version.  Bump when the payload layout
#: changes; old files then read as misses and are regenerated.
_MAGIC = b"RDCB0001"

_CHECKSUM_BYTES = hashlib.sha256(b"").digest_size


@dataclass
class DesignBundle:
    """Immutable per-design state shared by every run on that design."""

    design: Design
    #: Levelized timing graph (arc tables + banked NLDM LUTs).  Built at
    #: generation time so warm consumers skip the per-run rebuild.
    graph: Any  # TimingGraph; typed loosely to avoid a sta import cycle
    #: Cache key the bundle was stored under.
    key: str = ""
    #: JSON-ready snapshot of the producing GeneratorSpec.
    spec: Dict[str, Any] = field(default_factory=dict)


@dataclass
class CacheInfo:
    """Provenance of one bundle load (recorded in telemetry manifests)."""

    key: str
    path: str
    hit: bool
    #: True when an existing file failed validation and was regenerated.
    corrupt_recovered: bool = False
    #: Seconds spent generating + levelizing (miss) / unpickling (hit).
    setup_s: float = 0.0
    #: Load was served from the per-process memo (no disk touched).
    memo_hit: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


#: Per-process bundle memo: (cache key) -> DesignBundle.
_MEMO: Dict[str, DesignBundle] = {}

_CODE_VERSION: Optional[str] = None


def cache_dir(explicit: Optional[str] = None) -> str:
    """Resolve the cache directory: explicit > env override > default."""
    if explicit:
        return explicit
    return os.environ.get(CACHE_ENV_VAR) or DEFAULT_CACHE_DIR


#: The generator, and every module that defines a class a bundle
#: pickles an instance of: a bundle written by other code of any of
#: them is stale.
_BUNDLE_MODULES = (
    "repro.netlist.generator",
    "repro.netlist.cache",
    "repro.netlist.design",
    "repro.netlist.library",
    "repro.netlist.lut",
    "repro.sta.graph",
    "repro.sta.nldm",
)


def generator_code_version() -> str:
    """Hash of the sources behind a bundle: code changes invalidate the cache."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        digest = hashlib.sha256()
        for name in _BUNDLE_MODULES:
            with open(importlib.import_module(name).__file__, "rb") as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def _spec_snapshot(spec: GeneratorSpec) -> Dict[str, Any]:
    """JSON-stable view of every generator knob."""
    return asdict(spec)


def design_cache_key(spec: GeneratorSpec) -> str:
    """Content key: generator name + every param + seed + code version."""
    payload = json.dumps(
        {
            "spec": _spec_snapshot(spec),
            "generator_code": generator_code_version(),
            "format": _MAGIC.decode("ascii"),
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


def _bundle_path(directory: str, spec: GeneratorSpec, key: str) -> str:
    return os.path.join(directory, f"{spec.name}-{key[:16]}.bundle.pkl")


def _build_bundle(spec: GeneratorSpec, key: str) -> DesignBundle:
    from ..sta.graph import TimingGraph

    design = generate_design(spec)
    return DesignBundle(
        design=design,
        graph=TimingGraph(design),
        key=key,
        spec=_spec_snapshot(spec),
    )


def _read_bundle(path: str, key: str) -> Optional[DesignBundle]:
    """Load + verify one bundle file; ``None`` on any validation failure."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    header = len(_MAGIC) + _CHECKSUM_BYTES
    if len(blob) <= header or not blob.startswith(_MAGIC):
        return None
    checksum = blob[len(_MAGIC):header]
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != checksum:
        return None
    try:
        bundle = pickle.loads(payload)
    except Exception:
        return None
    if not isinstance(bundle, DesignBundle) or bundle.key != key:
        return None
    return bundle


def _write_bundle(path: str, bundle: DesignBundle) -> None:
    """Atomic write: concurrent writers race benignly to identical bytes."""
    payload = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
    blob = _MAGIC + hashlib.sha256(payload).digest() + payload
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    finally:
        # Gone after the replace; a failed write must not leave it behind.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def load_bundle(
    spec: GeneratorSpec,
    directory: Optional[str] = None,
    memoize: bool = True,
) -> Tuple[DesignBundle, CacheInfo]:
    """The bundle for ``spec``: memo > disk > generate-and-store.

    Returns ``(bundle, info)`` where ``info`` records the key, hit/miss,
    corruption recovery, and the setup wall-clock spent.
    """
    key = design_cache_key(spec)
    base = cache_dir(directory)
    path = _bundle_path(base, spec, key)
    if memoize and key in _MEMO:
        return _MEMO[key], CacheInfo(
            key=key, path=path, hit=True, memo_hit=True
        )

    t0 = time.perf_counter()
    existed = os.path.exists(path)
    bundle = _read_bundle(path, key)
    hit = bundle is not None
    if bundle is None:
        bundle = _build_bundle(spec, key)
        _write_bundle(path, bundle)
    info = CacheInfo(
        key=key,
        path=path,
        hit=hit,
        corrupt_recovered=existed and not hit,
        setup_s=time.perf_counter() - t0,
    )
    if memoize:
        _MEMO[key] = bundle
    return bundle, info


def ensure_cached(
    spec: GeneratorSpec, directory: Optional[str] = None
) -> CacheInfo:
    """Populate the on-disk entry without keeping the bundle in memory.

    Used by the suite runner's parent process before fanning out, so
    spawned workers always hit a valid file instead of racing to
    generate the same design.
    """
    _, info = load_bundle(spec, directory=directory, memoize=False)
    return info


def clear_memo() -> None:
    """Drop the per-process memo (tests; frees large bundles)."""
    _MEMO.clear()
