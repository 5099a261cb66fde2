"""Building the compiled kernels (timing sweep and Steiner-forest builder):
cached per user, safe to race, keyed on every C source, and a missing
compiler is one line naming what is needed.

Each test points ``XDG_CACHE_HOME`` at an empty directory, so the spawned
interpreters build the kernel themselves.
"""

import os
import subprocess
import sys

from repro.core import cbuild

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
IMPORT = (
    "import repro.core.sweep as s, repro.route.rsmt as r; "
    "print(s.lib.sweep_exact is not None and r.lib is s.lib)"
)


def _python(code, cache, **env):
    environ = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(cache), **env)
    return subprocess.Popen(
        [sys.executable, "-c", code], env=environ,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_cache_is_per_user_not_the_bundle_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert cbuild.cache_directory() == str(tmp_path / "repro" / "kernels")
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert cbuild.cache_directory().startswith(os.path.expanduser("~"))


def test_two_processes_building_at_once_both_import(tmp_path):
    first, second = (_python(IMPORT, tmp_path) for _ in range(2))
    for process in (first, second):
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err
        assert out.strip() == "True"
    built = os.listdir(tmp_path / "repro" / "kernels")
    assert len(built) == 1 and built[0].startswith("_repro_kernels_")


def test_cache_key_covers_every_c_source_of_the_package():
    # A C file left out of _SOURCES would be compiled from a stale cached
    # library whose name does not change with it.
    shipped = {
        os.path.relpath(os.path.join(root, name), cbuild._PACKAGE)
        for root, _, names in os.walk(cbuild._PACKAGE)
        for name in names
        if name.endswith((".c", ".h"))
    }
    assert set(cbuild._SOURCES) == shipped
    assert len(cbuild._SOURCES) == len(shipped)


def test_missing_compiler_is_one_line_naming_gcc_and_cffi(tmp_path):
    process = _python(IMPORT, tmp_path, CC="/nonexistent")
    _, err = process.communicate(timeout=300)
    assert process.returncode != 0
    last = err.strip().splitlines()[-1]
    assert last.startswith("repro.core.cbuild.KernelBuildError: ")
    assert "/nonexistent" in last and "gcc" in last and "cffi" in last


def test_an_unusable_cache_directory_falls_back_to_a_temp_one(monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(cbuild.tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    directory = cbuild._writable_directory()
    assert directory.startswith(str(tmp_path / "tmp"))
    assert os.path.isdir(directory)
