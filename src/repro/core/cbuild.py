"""Build and load the compiled kernels with cffi and gcc: the timing sweep
(``core/sweep.c``), the Steiner-forest builder (``route/rsmt.c``) and the
net pass of the wirelength terms (``place/wirelength.c``), one library.

The library is built on first import, once per hash of its sources and
Python ABI, into a per-user cache (``$XDG_CACHE_HOME/repro/kernels``, default
``~/.cache/repro/kernels``): not the design-bundle directory, which a
cold start may empty.  Every build writes a temporary file and renames it
into place, so processes that build at the same time all load a whole
library.  The compiler is ``$CC`` (default ``gcc``); ``-ffp-contract=off``
keeps every product and sum separately rounded, as NumPy's are.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from typing import Tuple

__all__ = ["KernelBuildError", "cache_directory", "load_kernels"]

#: The package directory; every C source is named relative to it.
_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Every C source of the library: all of them are hashed into its name.
_SOURCES = (
    "core/sweep.h", "route/rsmt.h", "place/wirelength.h",
    "core/sweep.c", "route/rsmt.c", "place/wirelength.c",
)
_CFLAGS = ("-O2", "-fPIC", "-ffp-contract=off", "-fno-math-errno")


class KernelBuildError(ImportError):
    """The compiled kernels could not be built (no cffi, no C compiler)."""


def cache_directory() -> str:
    """Where built kernels are kept: a per-user cache directory."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "repro", "kernels")


def _writable_directory() -> str:
    directory = cache_directory()
    try:
        os.makedirs(directory, exist_ok=True)
        if os.access(directory, os.W_OK):
            return directory
    except OSError:
        pass
    directory = os.path.join(tempfile.gettempdir(), f"repro-kernels-{os.getuid()}")
    os.makedirs(directory, exist_ok=True)
    return directory


def _fail(reason: str) -> KernelBuildError:
    return KernelBuildError(
        f"cannot build the compiled kernels: {reason}; "
        "repro needs gcc (or $CC) and cffi"
    )


def _compile(ffi, name: str, directory: str, suffix: str) -> str:
    """Build ``name`` into ``directory``; returns the library's path."""
    compiler = shlex.split(os.environ.get("CC") or "gcc")
    work = tempfile.mkdtemp(prefix=name + ".", dir=directory)
    try:
        source = os.path.join(work, name + ".c")
        ffi.emit_c_code(source)
        target = os.path.join(work, name + suffix)
        command = [
            *compiler, "-shared", *_CFLAGS,
            "-I", sysconfig.get_paths()["include"], "-I", _PACKAGE, source,
            *(os.path.join(_PACKAGE, s) for s in _SOURCES if s.endswith(".c")),
            "-o", target, "-lm",
        ]
        try:
            done = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise _fail(f"C compiler {compiler[0]!r} not found ({exc.strerror})") from None
        if done.returncode:
            first = next(
                (line for line in done.stderr.splitlines() if "error" in line),
                done.stderr.strip().splitlines()[-1] if done.stderr.strip() else "",
            )
            raise _fail(f"{compiler[0]} exited {done.returncode}: {first.strip()}")
        path = os.path.join(directory, name + suffix)
        os.replace(target, path)
        return path
    finally:
        shutil.rmtree(work, ignore_errors=True)


@functools.lru_cache(maxsize=None)
def load_kernels() -> Tuple[object, object]:
    """``(ffi, lib)`` of the compiled kernels, built first if not cached.

    Loading a built library needs cffi's backend only; the ``cffi``
    package itself (its C parser) is imported to build one.  Each C file
    is its own translation unit; the headers are the cdef.
    """
    try:
        import _cffi_backend
    except ImportError:
        raise _fail("cffi is not installed") from None
    sources = {}
    for filename in _SOURCES:
        with open(os.path.join(_PACKAGE, filename)) as handle:
            sources[filename] = handle.read()
    key = "\0".join([_cffi_backend.__version__, *_CFLAGS, *sources.values()])
    name = f"_repro_kernels_{hashlib.sha256(key.encode()).hexdigest()[:16]}"
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    directory = _writable_directory()
    path = os.path.join(directory, name + suffix)
    if not os.path.exists(path):
        import cffi

        headers = [s for s in _SOURCES if s.endswith(".h")]
        ffi = cffi.FFI()
        ffi.cdef("\n".join(sources[h] for h in headers))
        ffi.set_source(
            name,
            "#include <stdint.h>\n" + "".join(f'#include "{h}"\n' for h in headers),
            compiler_verbose=False,
        )
        path = _compile(ffi, name, directory, suffix)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib
