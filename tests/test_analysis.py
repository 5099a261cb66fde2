"""reprolint framework + rules: fixtures, suppressions, CLI, provenance.

Each rule gets a good and a bad fixture inside a synthetic mini-repo
under ``tmp_path``; the framework tests cover inline suppressions (both
placements, plus the meta findings for malformed/unused ones), CLI exit
codes, and the telemetry provenance hooks.  Finally the real repository
itself must lint clean - the self-check CI relies on.  The real-repo
tests share one session-scoped lint (``repo_lint``).
"""

import os
import subprocess
import sys

import pytest

from repro.analysis import Analyzer, RULES_VERSION, run_analysis
from repro.analysis.__main__ import main as cli_main
from repro.analysis.provenance import analysis_provenance
from repro.telemetry.compare import compare_runs
from repro.telemetry.events import (
    EVENT_KINDS,
    MetricsRecorder,
    kind_error_message,
    suggest_kind,
)
from repro.telemetry.manifest import RunManifest, write_manifest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_EVENTS_FIXTURE = 'EVENT_KINDS = ("alpha", "beta", "gamma_ray")\n'


def make_repo(tmp_path, files):
    """Materialise a synthetic repo; returns its root as str."""
    defaults = {"src/repro/telemetry/events.py": _EVENTS_FIXTURE}
    defaults.update(files)
    for rel, content in defaults.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return str(tmp_path)


def findings_of(report, rule):
    return [f for f in report.findings if f.rule == rule]


@pytest.fixture(scope="session")
def repo_lint():
    """One analyzer run over this repository: ``(analyzer, report)``."""
    analyzer = Analyzer(REPO_ROOT)
    return analyzer, analyzer.run()


# ----------------------------------------------------------------------
class TestNoScatterAddAt:
    def test_flags_add_at_and_subtract_at(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "def f(out, idx, v):\n"
                    "    np.add.at(out, idx, v)\n"
                    "    np.subtract.at(out, idx, v)\n"
                )
            },
        )
        found = findings_of(run_analysis(root), "no-scatter-add-at")
        assert len(found) == 2
        assert "repro.core.scatter" in found[0].message

    def test_flags_add_at_under_any_numpy_alias(self, tmp_path):
        """numpy is recognised by import, not by the name ``np``."""
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as numeric\n"
                    "def f(out, idx, v):\n"
                    "    numeric.add.at(out, idx, v)\n"
                )
            },
        )
        found = findings_of(run_analysis(root), "no-scatter-add-at")
        assert len(found) == 1

    def test_flags_maximum_at_and_minimum_at(self, tmp_path):
        """Scatter-max/min is how a private levelised propagator starts;
        an audited site carries an inline reason."""
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "def f(out, idx, v):\n"
                    "    np.maximum.at(out, idx, v)\n"
                    "    np.minimum.at(out, idx, v)\n"
                    "    # reprolint: allow[no-scatter-add-at] audited 1-D site\n"
                    "    np.maximum.at(out, idx, v)\n"
                )
            },
        )
        found = findings_of(run_analysis(root), "no-scatter-add-at")
        assert [f.line for f in found] == [3, 4]
        assert "segment_max" in found[0].message

    def test_good_paths_clean(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "from repro.core.scatter import scatter_add\n"
                    "def f(out, idx, v):\n"
                    "    np.minimum.reduceat(v, idx)\n"  # not a scatter
                    "    return scatter_add(idx, v, 8)\n"
                ),
                "tests/test_mod.py": (
                    "import numpy as np\n"
                    "def test_ref(out, idx, v):\n"
                    "    np.add.at(out, idx, v)\n"  # reference impl: exempt
                ),
            },
        )
        report = run_analysis(root)
        assert findings_of(report, "no-scatter-add-at") == []


class TestNoSilentNanFix:
    def test_flags_nan_to_num_and_errstate(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "def f(g):\n"
                    "    np.nan_to_num(g, copy=False)\n"
                    '    with np.errstate(invalid="ignore"):\n'
                    "        return g > 0\n"
                )
            },
        )
        assert len(findings_of(run_analysis(root), "no-silent-nanfix")) == 2

    def test_guard_module_and_benign_errstate_exempt(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/runtime/guard.py": (
                    "import numpy as np\n"
                    "def scrub(g):\n"
                    "    np.nan_to_num(g, copy=False)\n"
                ),
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "def f(g):\n"
                    '    with np.errstate(over="ignore"):\n'
                    "        return g * 2\n"
                ),
            },
        )
        assert findings_of(run_analysis(root), "no-silent-nanfix") == []


class TestDeterminismTaintRngHeritage:
    """The RNG-hygiene checks the old seeded-rng rule carried now live
    in the determinism-taint family."""

    def test_flags_global_state_and_unseeded_rng(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "def f():\n"
                    "    np.random.seed(0)\n"
                    "    a = np.random.normal(size=3)\n"
                    "    rng = np.random.default_rng()\n"
                    "    return a, rng\n"
                )
            },
        )
        found = findings_of(run_analysis(root), "determinism-taint")
        assert len(found) == 3

    def test_seeded_generator_clean(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "def f(seed):\n"
                    "    rng = np.random.default_rng(seed)\n"
                    "    return rng.normal(size=3)\n"
                )
            },
        )
        assert findings_of(run_analysis(root), "determinism-taint") == []

    def test_shadowed_np_is_not_the_backend(self, tmp_path):
        """Regression for the bare-name _is_numpy bug: a local variable
        named ``np`` shadowing nothing numpy-related must not trip the
        numpy-contract rules."""
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "def f(fake_numpy, o, i, v):\n"
                    "    np = fake_numpy\n"
                    "    np.random.seed(0)\n"
                    "    np.add.at(o, i, v)\n"
                    "    np.nan_to_num(o, copy=False)\n"
                    "    return o\n"
                )
            },
        )
        report = run_analysis(root)
        assert findings_of(report, "determinism-taint") == []
        assert findings_of(report, "no-scatter-add-at") == []
        assert findings_of(report, "no-silent-nanfix") == []


class TestTelemetryKindLiteral:
    def test_flags_unknown_kind_with_suggestion(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "def f(rec):\n"
                    '    rec.event("alpa", value=1)\n'
                )
            },
        )
        found = findings_of(run_analysis(root), "telemetry-kind-literal")
        assert len(found) == 1
        assert "unknown event kind 'alpa'" in found[0].message
        assert "did you mean 'alpha'" in found[0].message

    def test_known_kind_and_dynamic_kind_clean(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "def f(rec, kind):\n"
                    '    rec.event("beta", value=1)\n'
                    '    rec.event(kind="gamma_ray")\n'
                    "    rec.event(kind)\n"
                )
            },
        )
        assert findings_of(run_analysis(root), "telemetry-kind-literal") == []

    def test_message_matches_runtime_error(self, tmp_path):
        """The lint diagnostic and MetricsRecorder.event agree verbatim
        when the vocabulary is the real EVENT_KINDS."""
        kinds_src = f"EVENT_KINDS = {EVENT_KINDS!r}\n"
        root = make_repo(
            tmp_path,
            {
                "src/repro/telemetry/events.py": kinds_src,
                "src/repro/mod.py": 'def f(rec):\n    rec.event("iterat1on")\n',
            },
        )
        found = findings_of(run_analysis(root), "telemetry-kind-literal")
        assert len(found) == 1
        assert found[0].message == kind_error_message("iterat1on")


class TestCheckpointCompleteness:
    _PROVIDER = (
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self._count = 0\n"
        "        self.extra = None\n"
        "    def step(self):\n"
        "        self._count += 1\n"
        "        self.extra = object()\n"
        "        self.table[0] = 1\n"
        "    def get_state(self):\n"
        '        return {{"count": self._count{keys}}}\n'
        "    def set_state(self, state):\n"
        '        self._count = state["count"]\n'
    )

    def test_flags_missing_attrs_including_subscript(self, tmp_path):
        root = make_repo(
            tmp_path,
            {"src/repro/mod.py": self._PROVIDER.format(keys="")},
        )
        found = findings_of(run_analysis(root), "checkpoint-completeness")
        assert {f.message.split()[0] for f in found} == {
            "Thing.extra",
            "Thing.table",
        }

    def test_underscore_stripped_keys_match(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": self._PROVIDER.format(
                    keys=', "extra": 1, "table": 2'
                )
            },
        )
        assert findings_of(run_analysis(root), "checkpoint-completeness") == []

    def test_suppression_on_any_mutation_line(self, tmp_path):
        src = self._PROVIDER.format(keys=', "table": 2').replace(
            "self.extra = object()",
            "self.extra = object()  # reprolint: allow[checkpoint-completeness] derived cache",
        )
        root = make_repo(tmp_path, {"src/repro/mod.py": src})
        report = run_analysis(root)
        assert findings_of(report, "checkpoint-completeness") == []
        assert findings_of(report, "unused-suppression") == []

    def test_non_provider_classes_ignored(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "class Plain:\n"
                    "    def step(self):\n"
                    "        self.anything = 1\n"
                )
            },
        )
        assert findings_of(run_analysis(root), "checkpoint-completeness") == []


class TestBackwardPair:
    _TEST_FILE = (
        "from repro.core.kern import foo_forward_level\n"
        "def test_foo_grad():\n"
        "    assert foo_forward_level(1) == 1\n"
    )

    def _kernel(self, backward="repro.core.kern.foo_backward",
                gradcheck="tests/test_kern.py::test_foo_grad"):
        return (
            "from repro.contracts import differentiable\n"
            f'@differentiable(backward="{backward}", gradcheck="{gradcheck}")\n'
            "def foo_forward_level(x):\n"
            "    return x\n"
            "def foo_backward(x):\n"
            "    return x\n"
        )

    def test_contracted_kernel_clean(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/core/kern.py": self._kernel(),
                "tests/test_kern.py": self._TEST_FILE,
            },
        )
        report = run_analysis(root)
        assert findings_of(report, "backward-pair") == []
        assert findings_of(report, "contract-closure") == []

    def test_undecorated_forward_kernel_flagged(self, tmp_path):
        root = make_repo(
            tmp_path,
            {"src/repro/core/kern.py": "def foo_forward(x):\n    return x\n"},
        )
        found = findings_of(run_analysis(root), "backward-pair")
        assert len(found) == 1 and "foo_forward" in found[0].message

    def test_forward_outside_kernel_dirs_not_required(self, tmp_path):
        root = make_repo(
            tmp_path,
            {"src/repro/place/mod.py": "def push_forward(x):\n    return x\n"},
        )
        assert findings_of(run_analysis(root), "backward-pair") == []

    def test_dangling_backward_and_gradcheck_flagged(self, tmp_path):
        # Resolution of the contract strings is the project-scope
        # contract-closure rule's job (backward-pair only checks the
        # decorator's shape).
        root = make_repo(
            tmp_path,
            {
                "src/repro/core/kern.py": self._kernel(
                    backward="repro.core.kern.missing_backward",
                    gradcheck="tests/test_kern.py::test_missing",
                ),
                "tests/test_kern.py": self._TEST_FILE,
            },
        )
        report = run_analysis(root)
        assert findings_of(report, "backward-pair") == []
        found = findings_of(report, "contract-closure")
        assert len(found) == 2
        messages = " ".join(f.message for f in found)
        assert "missing_backward" in messages and "test_missing" in messages


# ----------------------------------------------------------------------
class TestSuppressions:
    _BAD = "import numpy as np\ndef f(o, i, v):\n    np.add.at(o, i, v)\n"

    def test_same_line_suppression(self, tmp_path):
        src = self._BAD.replace(
            "np.add.at(o, i, v)",
            "np.add.at(o, i, v)  # reprolint: allow[no-scatter-add-at] proven hot-path exception",
        )
        root = make_repo(tmp_path, {"src/repro/mod.py": src})
        report = run_analysis(root)
        assert report.findings == []
        assert report.suppressed_count == 1

    def test_previous_line_suppression(self, tmp_path):
        src = self._BAD.replace(
            "    np.add.at(o, i, v)",
            "    # reprolint: allow[no-scatter-add-at] proven hot-path exception\n"
            "    np.add.at(o, i, v)",
        )
        root = make_repo(tmp_path, {"src/repro/mod.py": src})
        assert run_analysis(root).findings == []

    def test_reasonless_suppression_rejected(self, tmp_path):
        src = self._BAD.replace(
            "np.add.at(o, i, v)",
            "np.add.at(o, i, v)  # reprolint: allow[no-scatter-add-at]",
        )
        root = make_repo(tmp_path, {"src/repro/mod.py": src})
        report = run_analysis(root)
        rules = {f.rule for f in report.findings}
        assert rules == {"no-scatter-add-at", "bad-suppression"}

    def test_unknown_rule_and_unused_suppressions_flagged(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "x = 1  # reprolint: allow[no-such-rule] whatever\n"
                    "y = 2  # reprolint: allow[determinism-taint] nothing to suppress\n"
                )
            },
        )
        rules = sorted(f.rule for f in run_analysis(root).findings)
        assert rules == ["bad-suppression", "unused-suppression"]

    def test_marker_in_docstring_ignored(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    '"""Mentions reprolint: allow[no-scatter-add-at] in prose."""\n'
                    "x = 1\n"
                )
            },
        )
        report = run_analysis(root)
        assert report.findings == []
        assert report.suppressed_count == 0


# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes_and_json_report(self, tmp_path, capsys):
        """Exit 1 with one stdout line per finding plus a summary line;
        exit 0 once the tree is clean."""
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "import numpy as np\n"
                    "def f(o, i, v):\n    np.add.at(o, i, v)\n"
                )
            },
        )
        assert cli_main(["--root", root]) == 1
        out = capsys.readouterr().out
        assert "src/repro/mod.py:3:4: [no-scatter-add-at]" in out
        assert "    np.add.at(o, i, v)" in out
        assert out.splitlines()[-1] == (
            f"reprolint v{RULES_VERSION}: 2 files, 1 finding(s), 0 suppressed"
        )

        (tmp_path / "src/repro/mod.py").write_text("x = 1\n")
        assert cli_main(["--root", root]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "no-scatter-add-at",
            "no-silent-nanfix",
            "telemetry-kind-literal",
            "checkpoint-completeness",
            "backward-pair",
            "supervised-pool-only",
            "spawn-safety",
            "determinism-taint",
            "contract-closure",
            "bad-suppression",
            "unused-suppression",
        ):
            assert rule_id in out
        assert len(out.splitlines()) == 11

    def test_module_entrypoint_on_tmp_repo(self, tmp_path):
        """``python -m repro.analysis`` exits 1 on a finding, 0 when clean,
        and writes nothing into the tree it lints."""
        root = make_repo(
            tmp_path,
            {"src/repro/mod.py": "import numpy as np\nnp.nan_to_num(1.0)\n"},
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))

        def lint():
            return subprocess.run(
                [sys.executable, "-m", "repro.analysis", "--root", root],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
                timeout=120,
            )

        proc = lint()
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "[no-silent-nanfix]" in proc.stdout
        (tmp_path / "src/repro/mod.py").write_text("x = 1\n")
        proc = lint()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert os.listdir(root) == ["src"]


class TestRepoSelfCheck:
    def test_repo_lints_clean(self, repo_lint):
        _, report = repo_lint
        assert report.findings == []
        assert report.suppressed_count > 0

    def test_ufunc_at_is_called_from_exactly_the_two_audited_sites(
        self, repo_lint
    ):
        """What ``no-scatter-add-at`` finds in the library before the
        inline ``allow`` markers are honoured: the float scatter-max every
        timer merge outside the compiled sweep routes through (it hands
        numpy values carrying the target's dtype object, see
        ``core/scatter.py``) and the integer levelisation that runs once
        per graph build."""
        from repro.analysis.rules import NoScatterAddAt

        index = repo_lint[0].index
        rule = NoScatterAddAt()
        sites = sorted(
            (ctx.relpath, finding.message.split(" ")[0])
            for ctx in index.files.values()
            for finding in rule.check(ctx, index)
        )
        assert sites == [
            ("src/repro/core/smoothing.py", "np.maximum.at"),
            ("src/repro/sta/graph.py", "np.maximum.at"),
        ]
        for relpath, _ in sites:
            ctx = index.files[relpath]
            (found,) = rule.check(ctx, index)
            assert ctx.is_suppressed(found.line, rule.id)


# ----------------------------------------------------------------------
class TestProvenanceAndTelemetry:
    def test_provenance_shape(self, repo_lint):
        # No root: the repo this package lives in, linted once per process
        # and memoised (the manifest test below reads the same memo).
        assert analysis_provenance() == {
            "rules_version": RULES_VERSION,
            "finding_count": 0,
            "suppressed_count": repo_lint[1].suppressed_count,
            "clean": True,
        }

    def test_provenance_never_raises(self, tmp_path):
        prov = analysis_provenance(str(tmp_path))  # not a repo at all
        assert isinstance(prov, dict)

    def test_manifest_records_analysis(self):
        manifest = RunManifest.create("d", "ours", seed=0)
        assert manifest.analysis is not None
        assert manifest.analysis["rules_version"] == RULES_VERSION
        restored = RunManifest.from_dict(manifest.to_dict())
        assert restored.analysis == manifest.analysis

    def test_compare_flags_dirty_tree_without_gating(self, tmp_path):
        base = dict(
            design="d", mode="ours", seed=0,
            final_metrics={"wns": -1.0, "tns": -5.0, "hpwl": 10.0,
                           "overflow": 0.1, "iterations": 3,
                           "stop_reason": "max_iters"},
        )
        clean = {"rules_version": RULES_VERSION, "finding_count": 0,
                 "clean": True}
        dirty = {"rules_version": "0.9", "finding_count": 4,
                 "clean": False}
        ma = RunManifest(run_id="a", analysis=clean, **base)
        mb = RunManifest(run_id="b", analysis=dirty, **base)
        write_manifest(ma, str(tmp_path / "a"))
        write_manifest(mb, str(tmp_path / "b"))
        result = compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert result.ok  # dirty tree must not gate
        notes = " ".join(result.notes)
        assert "dirty tree: 4 reprolint finding(s)" in notes
        assert "rule set differs" in notes
        assert "baseline" not in notes

    def test_event_kind_suggestion_helpers(self, tmp_path):
        assert suggest_kind("iterations") == "iteration"
        assert suggest_kind("zzzz") is None
        message = kind_error_message("checkpont")
        assert "did you mean 'checkpoint'" in message
        rec = MetricsRecorder(str(tmp_path / "events.jsonl"))
        with pytest.raises(ValueError, match="did you mean 'recovery'"):
            rec.event("recovry")
        rec.close()


class TestDeletedShimStaysDeleted:
    def test_rules_and_module_are_gone(self):
        """Guard against a half-deleted array-backend shim."""
        import importlib.util

        from repro.analysis.core import RULE_REGISTRY, load_rules

        load_rules()
        assert "backend-shim-only" not in RULE_REGISTRY
        assert "dtype-flow" not in RULE_REGISTRY
        assert importlib.util.find_spec("repro.core.backend") is None


class TestSupervisedPoolOnly:
    def test_flags_bare_pool_construction(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/mod.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n"
                    "import concurrent.futures as cf\n"
                    "def fan_out(tasks):\n"
                    "    with ProcessPoolExecutor(max_workers=2) as pool:\n"
                    "        pass\n"
                    "    pool2 = cf.ProcessPoolExecutor()\n"
                ),
            },
        )
        found = findings_of(run_analysis(root), "supervised-pool-only")
        assert len(found) == 2
        assert "repro.harness.supervisor" in found[0].message

    @pytest.mark.parametrize(
        "source, ctor",
        [
            (
                "import multiprocessing\n"
                "def fan_out():\n"
                "    return multiprocessing.Pool(2)\n",
                "Pool",
            ),
            (
                "import multiprocessing as mp\n"
                "def fan_out():\n"
                "    return mp.get_context('spawn').Pool(2)\n",
                "Pool",
            ),
            (
                "import multiprocessing\n"
                "def fan_out(work):\n"
                "    ctx = multiprocessing.get_context('spawn')\n"
                "    return ctx.Process(target=work)\n",
                "Process",
            ),
        ],
        ids=["multiprocessing-pool", "context-pool", "context-process"],
    )
    def test_flags_bare_multiprocessing_constructors(
        self, tmp_path, source, ctor
    ):
        root = make_repo(tmp_path, {"src/repro/mod.py": source})
        (finding,) = findings_of(run_analysis(root), "supervised-pool-only")
        assert f"bare {ctor} construction" in finding.message

    def test_supervisor_module_and_tests_exempt(self, tmp_path):
        root = make_repo(
            tmp_path,
            {
                "src/repro/harness/supervisor.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n"
                    "def legacy(tasks):\n"
                    "    return ProcessPoolExecutor(max_workers=2)\n"
                ),
                "tests/test_pool.py": (
                    "from concurrent.futures import ProcessPoolExecutor\n"
                    "def test_pool():\n"
                    "    assert ProcessPoolExecutor(max_workers=1)\n"
                ),
            },
        )
        report = run_analysis(root)
        assert findings_of(report, "supervised-pool-only") == []
