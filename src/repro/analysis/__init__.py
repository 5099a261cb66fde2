"""reprolint: per-file invariant checks for the reproduction codebase.

A small static-analysis framework (:mod:`repro.analysis.core`), a
per-file name resolver (:mod:`repro.analysis.index`: import aliases plus
local shadowing) and the repo-specific rules in
:mod:`repro.analysis.rules` that keep the paper's reproducibility
contracts honest: deterministic scatters, guarded numerics, closed
telemetry vocabularies, checkpoint completeness, supervised process
pools, declared forward/backward kernel pairs and determinism taint.
No placement run imports this package.

Entry points:

- ``python -m repro.analysis [paths...]`` - lint the repo, exit non-zero
  on any finding not covered by an inline
  ``# reprolint: allow[rule-id] reason`` suppression;
  ``--list-rules`` prints the rule catalogue;
- :func:`repro.analysis.run_analysis` - programmatic equivalent.

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
from .index import NameResolver
from .rules import RULES_VERSION

__all__ = [
    "Analyzer",
    "FileContext",
    "Finding",
    "NameResolver",
    "ProjectIndex",
    "Report",
    "Rule",
    "RULE_REGISTRY",
    "RULES_VERSION",
    "register_rule",
    "run_analysis",
]
