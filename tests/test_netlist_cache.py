"""Design-bundle cache: bit-identical hits, key sensitivity, corruption.

The cache may never change results: a hit must be bit-identical to
regeneration (CSRs, LUT banks, levelization), any generator knob or
seed change must produce a different key, and a damaged file must be
detected and regenerated, never trusted.
"""

import dataclasses
import importlib
import os
import pickle

import numpy as np
import pytest

from repro.harness.suite import design_spec
from repro.netlist import cache
from repro.netlist.cache import (
    CACHE_ENV_VAR,
    cache_dir,
    clear_memo,
    design_cache_key,
    ensure_cached,
    load_bundle,
)
from repro.netlist.generator import GeneratorSpec, generate_design
from repro.sta.graph import TimingGraph

_SPEC = GeneratorSpec(name="cachetest", n_cells=150, depth=6, seed=7)

#: The design arrays that make up the netlist CSRs.
_DESIGN_ARRAYS = (
    "cell_type",
    "cell_x",
    "cell_y",
    "cell_fixed",
    "pin2cell",
    "pin2net",
    "net2pin_start",
    "net2pin",
    "net_driver",
    "pin_cap",
)

#: Levelization + banked-LUT arc tables of the timing graph.
_GRAPH_ARRAYS = ("level", "c_src", "c_dst", "c_lut_delay", "net_sink")


@pytest.fixture()
def cdir(tmp_path):
    clear_memo()
    yield str(tmp_path / "cache")
    clear_memo()


def _bundle_file(directory):
    (name,) = os.listdir(directory)
    return os.path.join(directory, name)


class TestBitIdenticalHit:
    def test_miss_then_hit_roundtrip(self, cdir):
        fresh = generate_design(_SPEC)
        bundle, info = load_bundle(_SPEC, cdir)
        assert not info.hit and not info.memo_hit
        clear_memo()
        cached, info2 = load_bundle(_SPEC, cdir)
        assert info2.hit and not info2.memo_hit
        for attr in _DESIGN_ARRAYS:
            np.testing.assert_array_equal(
                getattr(cached.design, attr), getattr(fresh, attr)
            )
        fresh_graph = TimingGraph(fresh)
        for attr in _GRAPH_ARRAYS:
            np.testing.assert_array_equal(
                getattr(cached.graph, attr), getattr(fresh_graph, attr)
            )
        assert len(cached.graph.lutbank) == len(fresh_graph.lutbank)
        assert cached.graph.n_levels == fresh_graph.n_levels

    def test_graph_shares_the_bundled_design(self, cdir):
        load_bundle(_SPEC, cdir)
        clear_memo()
        bundle, _ = load_bundle(_SPEC, cdir)
        # The pickled graph must reference the pickled design, not a copy.
        assert bundle.graph.design is bundle.design

    def test_memo_returns_same_object(self, cdir):
        b1, _ = load_bundle(_SPEC, cdir)
        b2, info = load_bundle(_SPEC, cdir)
        assert b1 is b2
        assert info.memo_hit

    def test_sta_identical_with_and_without_cache(self, cdir):
        from repro.sta.analysis import run_sta

        fresh = generate_design(_SPEC)
        bundle, _ = load_bundle(_SPEC, cdir)
        a = run_sta(fresh)
        b = run_sta(bundle.design, graph=bundle.graph)
        assert a.wns_setup == b.wns_setup
        assert a.tns_setup == b.tns_setup

    def test_ours_flow_identical_on_miss_and_hit(self, cdir):
        """The whole timing-driven flow (differentiable timer from
        iteration 100, golden sign-off) on the bundle as generated and on
        the one read back from disk, whose arrays all carry unpickled
        dtype objects: same trajectory, same result."""
        from repro.harness.runners import run_mode
        from repro.place import PlacerOptions

        records = []
        for expect_hit in (False, True):
            clear_memo()
            bundle, info = load_bundle(_SPEC, cdir)
            assert info.hit is expect_hit
            records.append(
                run_mode(
                    bundle.design, "ours", PlacerOptions(seed=3, max_iters=140),
                    sta_graph=bundle.graph,
                )
            )
        miss, hit = records
        assert miss.iterations == hit.iterations > 100
        assert (miss.wns, miss.tns, miss.hpwl) == (hit.wns, hit.tns, hit.hpwl)
        assert np.array_equal(miss.x, hit.x) and np.array_equal(miss.y, hit.y)


def test_bundle_bytes_per_pin(cdir):
    """A bundle holds each fact once: pin names and name indexes are
    derived on demand, arc columns stored at their natural widths and
    start values one row per start pin.  Storing them all took ~260 bytes
    a pin on miniblue18."""
    bundle, info = load_bundle(design_spec("miniblue18"), cdir)
    assert os.path.getsize(info.path) / bundle.design.n_pins < 200


class TestKeySensitivity:
    def test_every_field_changes_the_key(self):
        base = design_cache_key(_SPEC)
        perturbed = {
            "name": "other",
            "n_cells": _SPEC.n_cells + 1,
            "depth": _SPEC.depth + 1,
            "seed": _SPEC.seed + 1,
            "n_inputs": _SPEC.n_inputs + 1,
            "n_outputs": _SPEC.n_outputs + 1,
            "engine": "vectorized",
        }
        for field, value in perturbed.items():
            spec = dataclasses.replace(_SPEC, **{field: value})
            assert design_cache_key(spec) != base, field

    def test_key_is_stable(self):
        assert design_cache_key(_SPEC) == design_cache_key(
            dataclasses.replace(_SPEC)
        )

    def test_distinct_specs_get_distinct_files(self, cdir):
        load_bundle(_SPEC, cdir)
        load_bundle(dataclasses.replace(_SPEC, seed=8), cdir)
        assert len(os.listdir(cdir)) == 2

    @pytest.mark.parametrize("module", cache._BUNDLE_MODULES)
    def test_touching_a_source_behind_the_bundle_changes_the_key(
        self, module, tmp_path, monkeypatch
    ):
        """A bundle pickles instances of classes from these modules; one
        written by other code of any of them must not be served."""
        monkeypatch.setattr(cache, "_CODE_VERSION", None)
        base = design_cache_key(_SPEC)
        mod = importlib.import_module(module)
        touched = tmp_path / "touched.py"
        with open(mod.__file__, "rb") as handle:
            touched.write_bytes(handle.read() + b"\n")
        monkeypatch.setattr(mod, "__file__", str(touched))
        monkeypatch.setattr(cache, "_CODE_VERSION", None)
        assert design_cache_key(_SPEC) != base

    def test_every_module_a_bundle_pickles_from_is_hashed(self, cdir):
        load_bundle(_SPEC, cdir)
        modules = set()

        class Recorder(pickle.Unpickler):
            def find_class(self, module, name):
                modules.add(module)
                return super().find_class(module, name)

        with open(_bundle_file(cdir), "rb") as handle:
            handle.seek(len(cache._MAGIC) + cache._CHECKSUM_BYTES)
            Recorder(handle).load()
        ours = {m for m in modules if m.startswith("repro.")}
        assert ours and ours <= set(cache._BUNDLE_MODULES)


class TestFailedWrite:
    """A write that fails leaves neither a bundle nor its temp file."""

    def test_unpicklable_bundle(self, cdir):
        bundle = cache.DesignBundle(design=lambda: None, graph=None, key="k")
        path = os.path.join(cdir, "x.bundle.pkl")
        with pytest.raises((pickle.PicklingError, AttributeError)):
            cache._write_bundle(path, bundle)
        assert not os.path.exists(cdir) or os.listdir(cdir) == []

    def test_replace_fails(self, cdir, monkeypatch):
        bundle, _ = load_bundle(_SPEC, cdir, memoize=False)
        before = os.listdir(cdir)

        def refuse(src, dst):
            raise OSError("disk says no")

        monkeypatch.setattr(cache.os, "replace", refuse)
        with pytest.raises(OSError, match="disk says no"):
            cache._write_bundle(os.path.join(cdir, "y.bundle.pkl"), bundle)
        assert os.listdir(cdir) == before


class TestCorruptionRecovery:
    def _prime(self, cdir):
        ensure_cached(_SPEC, cdir)
        clear_memo()
        return _bundle_file(cdir)

    def test_truncated_file_regenerated(self, cdir):
        path = self._prime(cdir)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        bundle, info = load_bundle(_SPEC, cdir)
        assert not info.hit and info.corrupt_recovered
        assert bundle.design.n_cells > 0
        # The rewritten file must be valid again.
        clear_memo()
        _, info2 = load_bundle(_SPEC, cdir)
        assert info2.hit and not info2.corrupt_recovered

    def test_flipped_payload_byte_fails_checksum(self, cdir):
        path = self._prime(cdir)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        _, info = load_bundle(_SPEC, cdir)
        assert not info.hit and info.corrupt_recovered

    def test_bad_magic_is_a_miss(self, cdir):
        path = self._prime(cdir)
        blob = bytearray(open(path, "rb").read())
        blob[:4] = b"XXXX"
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        _, info = load_bundle(_SPEC, cdir)
        assert not info.hit and info.corrupt_recovered

    def test_previous_format_is_a_miss(self, cdir):
        """A sound ``RDCB0001`` file (stored pin names and name indexes)
        is not read as the current format."""
        path = self._prime(cdir)
        blob = bytearray(open(path, "rb").read())
        blob[: len(cache._MAGIC)] = b"RDCB0001"
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        _, info = load_bundle(_SPEC, cdir)
        assert not info.hit and info.corrupt_recovered

    def test_empty_file_is_a_miss(self, cdir):
        path = self._prime(cdir)
        open(path, "wb").close()
        bundle, info = load_bundle(_SPEC, cdir)
        assert not info.hit
        assert bundle.graph.n_levels > 0


class TestDirectoryResolution:
    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert cache_dir(str(tmp_path / "explicit")) == str(
            tmp_path / "explicit"
        )

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert cache_dir() == str(tmp_path / "env")
        clear_memo()
        _, info = load_bundle(_SPEC)
        assert info.path.startswith(str(tmp_path / "env"))
        clear_memo()
