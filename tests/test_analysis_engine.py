"""reprolint v2 engine: semantic index, whole-program rules, cache, CLI.

The four whole-program families each get a seeded counterexample proving
they fire (plus the clean variants proving they don't over-fire), every
new rule id gets a baseline round-trip and an inline-suppression test,
and the incremental cache is proven byte-identical to a cold run on both
the full-hit (nothing parsed) and partial-hit (one file changed) paths.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import RULES_VERSION, run_analysis
from repro.analysis.baseline import BASELINE_FILENAME
from repro.analysis.cache import ResultCache, hash_file, project_signature
from repro.analysis.cli import main as cli_main
from repro.analysis.core import Analyzer, ProjectIndex

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
    return [f for f in report.new_findings if f.rule == rule]


# ----------------------------------------------------------------------
# Seeded counterexamples, one dict per rule family.  Each is also reused
# by the baseline/suppression parametrisation below.
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
    def test_baseline_roundtrip(self, tmp_path, rule_id):
        files, expected = _FAMILY_FIXTURES[rule_id]
        root = make_repo(tmp_path, files)
        baseline_path = os.path.join(root, BASELINE_FILENAME)
        report = run_analysis(root)
        assert len(findings_of(report, rule_id)) == expected

        assert cli_main(["--root", root, "--write-baseline"]) == 0
        report = run_analysis(root, baseline_path=baseline_path)
        assert findings_of(report, rule_id) == []
        baselined = [
            f for f in report.baselined_findings if f.rule == rule_id
        ]
        assert len(baselined) == expected

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
_CACHE_FILES = {}
_CACHE_FILES.update(_SPAWN_SAFETY_FILES)
_CACHE_FILES.update(_DETERMINISM_FILES)
_CACHE_FILES["src/repro/provider.py"] = (
    # A self-suppressing rule (checkpoint-completeness consumes its
    # suppressions during the check phase): the warm path must replay
    # the consumed marks or it would emit a spurious unused-suppression.
    "class Thing:\n"
    "    def get_state(self):\n"
    "        return {'a': self.a}\n"
    "    def set_state(self, s):\n"
    "        self.a = s['a']\n"
    "    def step(self):\n"
    "        self.a = 1\n"
    "        self.cache = 2  # reprolint: allow[checkpoint-completeness] rebuilt on resume\n"
)


class TestIncrementalCache:
    def _run(self, root, cache_path):
        analyzer = Analyzer(root, cache_path=cache_path)
        findings, n_files, suppressed = analyzer.run()
        return analyzer, [f.to_dict() for f in findings], n_files, suppressed

    def test_warm_full_hit_is_byte_identical_and_parses_nothing(
        self, tmp_path
    ):
        root = make_repo(tmp_path, _CACHE_FILES)
        cache_path = os.path.join(root, ".reprolint-cache.json")
        _, cold, n1, s1 = self._run(root, cache_path)
        assert cold  # the fixtures do produce findings
        warm_analyzer, warm, n2, s2 = self._run(root, cache_path)
        assert (warm, n2, s2) == (cold, n1, s1)
        # Full hit: the warm analyzer returned from hashes alone.
        assert warm_analyzer._index is None

    def test_partial_hit_matches_cold_rerun(self, tmp_path):
        root = make_repo(tmp_path, _CACHE_FILES)
        cache_path = os.path.join(root, ".reprolint-cache.json")
        self._run(root, cache_path)

        # Change one file: add a fresh finding to the determinism module.
        mod = tmp_path / "src/repro/mod.py"
        mod.write_text(
            mod.read_text() + "def extra(rec):\n"
            "    import time\n"
            "    rec.event('alpha', value=time.time())\n"
        )
        _, warm, n2, s2 = self._run(root, cache_path)
        cold_analyzer, cold, n3, s3 = self._run(
            root, os.path.join(root, ".cold-cache.json")
        )
        assert (warm, n2, s2) == (cold, n3, s3)

    def test_rules_version_change_invalidates(self, tmp_path):
        path = str(tmp_path / "c.json")
        cache = ResultCache(path)
        cache._rules_version = "2.0"
        cache.store("sig", {"findings": [], "files_checked": 1,
                            "suppressed": 0}, {})
        cache.write()
        assert ResultCache.load(path, "2.0").full_result("sig") is not None
        assert ResultCache.load(path, "2.1").full_result("sig") is None

    def test_corrupt_cache_degrades_to_cold(self, tmp_path):
        root = make_repo(tmp_path, _DETERMINISM_FILES)
        cache_path = os.path.join(root, ".reprolint-cache.json")
        with open(cache_path, "w") as handle:
            handle.write("{ not json")
        _, findings, _, _ = self._run(root, cache_path)
        assert findings  # analysis ran despite the corrupt cache

    def test_signature_covers_rules_files_and_targets(self, tmp_path):
        hashes = {"a.py": "h1", "b.py": "h2"}
        base = project_signature("2.0", ["r1"], hashes, ["a.py"])
        assert base == project_signature("2.0", ["r1"], hashes, ["a.py"])
        assert base != project_signature("2.1", ["r1"], hashes, ["a.py"])
        assert base != project_signature("2.0", ["r2"], hashes, ["a.py"])
        assert base != project_signature(
            "2.0", ["r1"], {"a.py": "h1", "b.py": "X"}, ["a.py"]
        )
        assert base != project_signature("2.0", ["r1"], hashes, ["b.py"])

    def test_hash_file_missing_is_none(self, tmp_path):
        assert hash_file(str(tmp_path / "nope.py")) is None


class TestParallelJobs:
    def test_jobs_fanout_matches_serial(self, tmp_path):
        root = make_repo(tmp_path, _CACHE_FILES)
        serial = run_analysis(root)
        parallel = run_analysis(root, jobs=2)
        assert [f.to_dict() for f in parallel.new_findings] == [
            f.to_dict() for f in serial.new_findings
        ]
        assert parallel.suppressed_count == serial.suppressed_count


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


# ----------------------------------------------------------------------
class TestCliV2:
    def test_explain_known_rule(self, capsys):
        assert cli_main(["explain", "spawn-safety"]) == 0
        out = capsys.readouterr().out
        assert "spawn-safety" in out
        assert "module-level" in out.lower()

    def test_explain_unknown_rule(self, capsys):
        assert cli_main(["explain", "no-such-rule"]) == 1
        err = capsys.readouterr().err
        assert "unknown rule" in err

    def test_explain_meta_rule(self, capsys):
        assert cli_main(["explain", "unused-suppression"]) == 0
        assert "meta" in capsys.readouterr().out

    def test_sarif_output(self, tmp_path):
        root = make_repo(tmp_path, _DETERMINISM_FILES)
        sarif_path = str(tmp_path / "out.sarif")
        code = cli_main(["--root", root, "--no-cache", "--sarif", sarif_path])
        assert code == 1  # findings exist
        with open(sarif_path) as handle:
            data = json.load(handle)
        assert data["version"] == "2.1.0"
        run = data["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        assert run["tool"]["driver"]["version"] == RULES_VERSION
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert "determinism-taint" in rule_ids
        results = run["results"]
        assert len(results) == 3
        assert all(r["ruleId"] == "determinism-taint" for r in results)
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/repro/mod.py"
        assert loc["region"]["startLine"] >= 1

    def test_changed_mode_lints_only_diffed_files(self, tmp_path, capsys):
        root = make_repo(
            tmp_path,
            {
                "src/repro/clean.py": "x = 1\n",
                **_DETERMINISM_FILES,
            },
        )

        def git(*args):
            subprocess.run(
                ["git", *args],
                cwd=root,
                check=True,
                capture_output=True,
                env={
                    **os.environ,
                    "GIT_AUTHOR_NAME": "t",
                    "GIT_AUTHOR_EMAIL": "t@t",
                    "GIT_COMMITTER_NAME": "t",
                    "GIT_COMMITTER_EMAIL": "t@t",
                },
            )

        git("init", "-q")
        git("add", "-A")
        git("commit", "-qm", "base")
        # Nothing changed: exits 0 without linting the dirty fixture.
        assert cli_main(["--root", root, "--changed", "HEAD"]) == 0
        assert "no files changed" in capsys.readouterr().out

        # Touch only the clean file: still exits 0, lints one file.
        (tmp_path / "src/repro/clean.py").write_text("x = 2\n")
        assert cli_main(["--root", root, "--changed", "HEAD"]) == 0
        assert "1 files" in capsys.readouterr().out

        # Touch the finding-bearing file too: now it fails.
        mod = tmp_path / "src/repro/mod.py"
        mod.write_text(mod.read_text() + "\n")
        assert cli_main(["--root", root, "--changed", "HEAD"]) == 1

    def test_module_entrypoint_runs_warm_cached(self, tmp_path):
        """Two back-to-back CLI runs on the real repo: the second must
        hit the cache (cache file written, same exit/stdout summary)."""
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        cache = str(tmp_path / "cache.json")
        # Point the cache at tmp via cwd-independent --root plus a
        # symlinked home: simplest is to run in a scratch copy of the
        # CLI invocation with the default cache path under REPO_ROOT;
        # use --no-cache=absent and tolerate an existing cache file.
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.analysis", "--root", REPO_ROOT],
                capture_output=True,
                text=True,
                env=env,
                cwd=REPO_ROOT,
                timeout=240,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outs.append(proc.stdout.strip().splitlines()[-1])
        assert outs[0] == outs[1]
        assert os.path.exists(os.path.join(REPO_ROOT, ".reprolint-cache.json"))
