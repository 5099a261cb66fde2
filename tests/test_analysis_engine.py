"""reprolint's name-resolving rules: determinism taint and the resolver.

``determinism-taint`` gets a seeded counterexample proving it fires
(plus the clean variants proving it does not over-fire) and an
inline-suppression test; :class:`NameResolver` gets a unit test of the
local shadowing the numpy rules rely on.
"""

import ast
import os

import pytest

from repro.analysis import NameResolver, run_analysis

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
# Seeded counterexample, one dict per rule family.  Each is also reused
# by the suppression parametrisation below.
# ----------------------------------------------------------------------
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

_FAMILY_FIXTURES = {
    "determinism-taint": (_DETERMINISM_FILES, 3),
}


# ----------------------------------------------------------------------
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
class TestNameResolverUnit:
    def test_shadowed_name_does_not_resolve(self):
        tree = ast.parse(
            "import numpy as np\n"
            "def real():\n"
            "    return np.zeros(3)\n"
            "def shadowed(np):\n"
            "    return np.zeros(3)\n"
        )
        resolver = NameResolver(tree, "src/repro/mod.py", "repro.mod")
        real, shadowed = tree.body[1], tree.body[2]

        def np_name(fn):
            for node in ast.walk(fn):
                if isinstance(node, ast.Name) and node.id == "np":
                    return node

        assert resolver.resolve(np_name(real)) == "numpy"
        assert resolver.resolve(np_name(shadowed)) is None
