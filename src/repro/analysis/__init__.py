"""reprolint: semantic-index invariant checks for the reproduction codebase.

A small static-analysis framework built around a two-pass semantic
index (:mod:`repro.analysis.index`: import graph, per-module symbol
tables, approximate call graph) plus the repo-specific rules in
:mod:`repro.analysis.rules` that keep the paper's reproducibility
contracts honest: deterministic scatters, guarded numerics, closed
telemetry vocabularies, checkpoint completeness, supervised process
pools, declared forward/backward kernel pairs, and the whole-program
families (spawn-safety, determinism-taint, contract-closure).

Entry points:

- ``python -m repro.analysis [paths...]`` - lint the repo, exit non-zero
  on any finding not covered by an inline
  ``# reprolint: allow[rule-id] reason`` suppression;
  ``--list-rules`` prints the rule catalogue;
- :func:`repro.analysis.run_analysis` - programmatic equivalent;
- :func:`repro.analysis.provenance.analysis_provenance` - the summary
  dict stamped into telemetry run manifests.

See ``DESIGN.md`` ("Static analysis & enforced invariants") for the rule
catalogue and the suppression policy.
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
from .index import SemanticIndex
from .rules import RULES_VERSION

__all__ = [
    "Analyzer",
    "FileContext",
    "Finding",
    "ProjectIndex",
    "Report",
    "Rule",
    "RULE_REGISTRY",
    "RULES_VERSION",
    "SemanticIndex",
    "register_rule",
    "run_analysis",
]
