"""reprolint: semantic-index invariant checks for the reproduction codebase.

A small static-analysis framework built around a two-pass semantic
index (:mod:`repro.analysis.index`: import graph, per-module symbol
tables, approximate call graph) plus the repo-specific rules that keep
the paper's reproducibility contracts honest: deterministic scatters,
guarded numerics, closed telemetry vocabularies, checkpoint
completeness, declared forward/backward kernel pairs, and the
whole-program families in :mod:`repro.analysis.flowrules`
(spawn-safety, determinism-taint, contract-closure).

Entry points:

- ``python -m repro.analysis [--json] [--sarif PATH] [--changed REF]
  [--jobs N] [paths...]`` - lint the repo (incrementally cached), exit
  non-zero on findings not covered by the committed baseline;
- ``python -m repro.analysis explain <rule-id>`` - the policy behind a
  rule;
- :func:`repro.analysis.run_analysis` - programmatic equivalent;
- :func:`repro.analysis.provenance.analysis_provenance` - the summary
  dict stamped into telemetry run manifests.

See ``DESIGN.md`` ("Static analysis & enforced invariants") for the rule
catalogue and the suppression/baseline policy.
"""

from .core import (
    Analyzer,
    FileContext,
    Finding,
    ProjectIndex,
    Report,
    Rule,
    RULE_REGISTRY,
    register_rule,
    run_analysis,
)
from .baseline import (
    Baseline,
    BaselineIntegrityError,
    fingerprint,
)
from .index import SemanticIndex
from .rules import RULES_VERSION

__all__ = [
    "Analyzer",
    "Baseline",
    "BaselineIntegrityError",
    "FileContext",
    "Finding",
    "ProjectIndex",
    "Report",
    "Rule",
    "RULE_REGISTRY",
    "RULES_VERSION",
    "SemanticIndex",
    "fingerprint",
    "register_rule",
    "run_analysis",
]
