"""reprolint v2 engine: semantic index and whole-program rules.

The whole-program families each get a seeded counterexample proving
they fire (plus the clean variants proving they don't over-fire), and
every one of their rule ids gets an inline-suppression test.
"""

import os

import pytest

from repro.analysis import run_analysis
from repro.analysis.core import ProjectIndex

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_EVENTS_FIXTURE = 'EVENT_KINDS = ("alpha", "beta", "gamma_ray")\n'


def make_repo(tmp_path, files):
    defaults = {"src/repro/telemetry/events.py": _EVENTS_FIXTURE}
    defaults.update(files)
    for rel, content in defaults.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return str(tmp_path)


def findings_of(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ----------------------------------------------------------------------
# Seeded counterexamples, one dict per rule family.  Each is also reused
# by the suppression parametrisation below.
# ----------------------------------------------------------------------
_SPAWN_SAFETY_FILES = {
    "src/repro/work.py": (
        "import multiprocessing\n"
        "_STATE = {}\n"
        "_COUNT = 0\n"
        "def _helper():\n"
        "    global _COUNT\n"
        "    _COUNT = 1\n"
        "def _worker(payload):\n"
        "    _STATE['k'] = payload\n"
        "    _helper()\n"
        "def launch():\n"
        "    ctx = multiprocessing.get_context('spawn')\n"
        "    p = ctx.Process(target=_worker, args=(1,))\n"
        "    p.start()\n"
        "def not_reachable():\n"
        "    _STATE['fine'] = 1\n"
    ),
}

_DETERMINISM_FILES = {
    "src/repro/mod.py": (
        "import time\n"
        "def record(rec):\n"
        "    rec.event('alpha', value=time.time())\n"
        "    rec.event('beta', ts=time.time())\n"
        "    t0 = time.time()\n"
        "    rec.event('gamma_ray', value=t0)\n"
        "    rec.event('alpha', value=sorted({1, 2}))\n"
        "    rec.event('beta', value=list({1, 2}))\n"
    ),
}

_CONTRACT_FILES = {
    "src/repro/core/kern.py": (
        "from repro.contracts import differentiable\n"
        '@differentiable(backward="repro.core.kern.foo_backward", '
        'gradcheck="tests/test_kern.py::test_something")\n'
        "def foo_forward_level(x):\n"
        "    return x\n"
        "def foo_backward(x):\n"
        "    return x\n"
    ),
    # The gradcheck resolves but never references the kernel: orphaned.
    "tests/test_kern.py": "def test_something():\n    assert True\n",
}

_FAMILY_FIXTURES = {
    "spawn-safety": (_SPAWN_SAFETY_FILES, 2),
    "determinism-taint": (_DETERMINISM_FILES, 3),
    "contract-closure": (_CONTRACT_FILES, 1),
}


# ----------------------------------------------------------------------
class TestSpawnSafety:
    def test_writes_on_worker_closure_flagged(self, tmp_path):
        root = make_repo(tmp_path, _SPAWN_SAFETY_FILES)
        found = findings_of(run_analysis(root), "spawn-safety")
        assert len(found) == 2
        messages = " ".join(f.message for f in found)
        # Both the entrypoint's own write and the one reached through
        # the call graph are caught; the unreachable function is not.
        assert "_STATE" in messages and "_COUNT" in messages
        assert "not_reachable" not in messages

    def test_allowlisted_global_is_accepted(self, tmp_path):
        files = {
            "src/repro/telemetry/resources.py": (
                "_PAGE_SIZE = None\n"
                "def _worker():\n"
                "    global _PAGE_SIZE\n"
                "    _PAGE_SIZE = 4096\n"
                "def launch():\n"
                "    import multiprocessing\n"
                "    multiprocessing.Process(target=_worker).start()\n"
            ),
        }
        root = make_repo(tmp_path, files)
        assert findings_of(run_analysis(root), "spawn-safety") == []

    def test_imported_module_calls_are_not_state_writes(self, tmp_path):
        # Regression: os.remove() is not set.remove() on a global.
        files = {
            "src/repro/work.py": (
                "import os\n"
                "import multiprocessing\n"
                "def _worker(path):\n"
                "    os.remove(path)\n"
                "def launch():\n"
                "    multiprocessing.Process(target=_worker).start()\n"
            ),
        }
        root = make_repo(tmp_path, files)
        assert findings_of(run_analysis(root), "spawn-safety") == []


class TestDeterminismTaint:
    def test_clock_and_order_taint_reach_sinks(self, tmp_path):
        root = make_repo(tmp_path, _DETERMINISM_FILES)
        found = findings_of(run_analysis(root), "determinism-taint")
        assert len(found) == 3
        kinds = sorted(f.message.split("-tainted")[0] for f in found)
        assert kinds == ["clock", "clock", "order"]

    def test_exempt_wall_clock_fields_pass(self, tmp_path):
        files = {
            "src/repro/mod.py": (
                "import time\n"
                "def record(rec):\n"
                "    t0 = time.time()\n"
                "    rec.event('alpha', ts=t0, runtime_s=time.time() - t0)\n"
            ),
        }
        root = make_repo(tmp_path, files)
        assert findings_of(run_analysis(root), "determinism-taint") == []

    def test_entropy_source_into_manifest_sink(self, tmp_path):
        files = {
            "src/repro/mod.py": (
                "import os\n"
                "from repro.telemetry.manifest import RunManifest\n"
                "def make():\n"
                "    token = os.urandom(8).hex()\n"
                "    return RunManifest(token)\n"
            ),
        }
        root = make_repo(tmp_path, files)
        found = findings_of(run_analysis(root), "determinism-taint")
        assert len(found) == 1
        assert "entropy-tainted" in found[0].message


class TestContractClosure:
    def test_resolvable_but_orphaned_gradcheck_flagged(self, tmp_path):
        root = make_repo(tmp_path, _CONTRACT_FILES)
        found = findings_of(run_analysis(root), "contract-closure")
        assert len(found) == 1
        assert "never references" in found[0].message

    def test_backward_resolved_through_import_alias(self, tmp_path):
        # The declared dotted path goes through a re-export; the index
        # must follow the alias instead of demanding the literal module.
        files = {
            "src/repro/core/kern.py": (
                "from repro.contracts import differentiable\n"
                '@differentiable(backward="repro.core.api.foo_backward", '
                'gradcheck="tests/test_kern.py::test_foo")\n'
                "def foo_forward_level(x):\n"
                "    return x\n"
                "def foo_backward(x):\n"
                "    return x\n"
            ),
            "src/repro/core/api.py": (
                "from repro.core.kern import foo_backward\n"
            ),
            "tests/test_kern.py": (
                "from repro.core.kern import foo_forward_level\n"
                "def test_foo():\n"
                "    assert foo_forward_level(0) == 0\n"
            ),
        }
        root = make_repo(tmp_path, files)
        assert findings_of(run_analysis(root), "contract-closure") == []


# ----------------------------------------------------------------------
class TestBaselineAndSuppressionPerFamily:
    @pytest.mark.parametrize("rule_id", sorted(_FAMILY_FIXTURES))
    def test_inline_suppression(self, tmp_path, rule_id):
        files, expected = _FAMILY_FIXTURES[rule_id]
        root = make_repo(tmp_path, files)
        report = run_analysis(root)
        findings = findings_of(report, rule_id)
        assert len(findings) == expected

        # Append a suppression comment to every flagged line (all the
        # fixtures keep one statement per line).
        by_file = {}
        for f in findings:
            by_file.setdefault(f.path, set()).add(f.line)
        for rel, lines in by_file.items():
            path = os.path.join(root, rel)
            with open(path) as handle:
                text = handle.read().splitlines()
            for line in lines:
                text[line - 1] += (
                    f"  # reprolint: allow[{rule_id}] seeded counterexample"
                )
            with open(path, "w") as handle:
                handle.write("\n".join(text) + "\n")

        report = run_analysis(root)
        assert findings_of(report, rule_id) == []
        assert findings_of(report, "unused-suppression") == []
        assert report.suppressed_count >= len(by_file)


# ----------------------------------------------------------------------
class TestSemanticIndexUnit:
    def _index(self, tmp_path, files):
        root = make_repo(tmp_path, files)
        return ProjectIndex.build(root).semantic

    def test_resolve_symbol_follows_aliases(self, tmp_path):
        sem = self._index(
            tmp_path,
            {
                "src/repro/core/impl.py": "def kernel(x):\n    return x\n",
                "src/repro/api.py": "from repro.core.impl import kernel\n",
            },
        )
        assert (
            sem.resolve_symbol("repro.api.kernel")
            == "repro.core.impl.kernel"
        )
        assert sem.resolve_symbol("repro.api.missing") is None

    def test_is_module_global_rejects_third_party_modules(self, tmp_path):
        sem = self._index(
            tmp_path,
            {"src/repro/mod.py": "import os\n_MEMO = {}\n"},
        )
        assert sem.is_module_global("repro.mod._MEMO")
        assert sem.is_module_global("repro.mod._MEMO.anything")
        assert not sem.is_module_global("os")
        assert not sem.is_module_global("os.remove")

    def test_spawn_entrypoints_and_closure(self, tmp_path):
        sem = self._index(tmp_path, _SPAWN_SAFETY_FILES)
        assert "repro.work._worker" in sem.spawn_entrypoints
        closure = sem.call_closure(sorted(sem.spawn_entrypoints))
        assert "repro.work._helper" in closure
        assert "repro.work.not_reachable" not in closure

    def test_shadowed_name_does_not_resolve(self, tmp_path):
        sem = self._index(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "def real():\n"
                    "    return np.zeros(3)\n"
                    "def shadowed(np):\n"
                    "    return np.zeros(3)\n"
                )
            },
        )
        resolver = sem.resolver("src/repro/mod.py")
        import ast as ast_mod

        mod = sem.modules["src/repro/mod.py"]
        real = mod.functions["real"].node
        shadowed = mod.functions["shadowed"].node
        def np_name(fn):
            for node in ast_mod.walk(fn):
                if isinstance(node, ast_mod.Name) and node.id == "np":
                    return node
        assert resolver.resolve(np_name(real)) == "numpy"
        assert resolver.resolve(np_name(shadowed)) is None
