"""Framework core of reprolint: findings, suppressions, rules, analyzer.

The pieces are deliberately small and dependency-free (stdlib ``ast``
only), and every rule sees one file at a time:

- :class:`Finding` - one rule violation at a file/line;
- :class:`FileContext` - a parsed source file, its inline suppression
  comments (``# reprolint: allow[rule-id] reason``) and its
  :class:`repro.analysis.index.NameResolver`;
- :class:`ProjectIndex` - the parsed lint targets plus the one fact read
  from another file: the telemetry event-kind vocabulary;
- :class:`Rule` / :data:`RULE_REGISTRY` - the rule plug-in surface;
- :class:`Analyzer` - parses the lint targets, applies every registered
  rule, filters suppressed findings, and emits the meta findings
  (``bad-suppression``, ``unused-suppression``);
- :class:`Report` - the result bundle the CLI consumes.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .index import NameResolver

__all__ = [
    "Finding",
    "Suppression",
    "FileContext",
    "ProjectIndex",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
    "Analyzer",
    "Report",
    "run_analysis",
    "find_repo_root",
    "DEFAULT_LINT_PATHS",
]

#: Directories scanned when the CLI is invoked without explicit paths.
DEFAULT_LINT_PATHS = ("src", "benchmarks")

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}

#: Matches ``reprolint: allow[<rule-id>] <reason>`` markers placed in a
#: comment on the offending line or on the comment line directly above.
_SUPPRESSION_RE = re.compile(
    r"#\s*reprolint:\s*allow\[(?P<rule>[A-Za-z0-9_-]+)\]\s*(?P<reason>.*)$"
)

#: Meta rules emitted by the analyzer itself; not suppressible.
META_RULES = {
    "bad-suppression": "suppression comment is malformed or names an unknown rule",
    "unused-suppression": "suppression comment matched no finding",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored at a source location."""

    rule: str
    path: str  # repo-relative POSIX path
    line: int
    col: int
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class Suppression:
    """One parsed ``# reprolint: allow[...]`` comment."""

    line: int  # line the comment sits on (1-based)
    target_line: int  # line the suppression applies to
    rule: str
    reason: str
    used: bool = False


class FileContext:
    """A source file parsed once: AST, lines, and suppressions."""

    def __init__(self, path: str, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath.replace(os.sep, "/")
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=relpath)
        self.suppressions: List[Suppression] = []
        self._resolver: Optional[NameResolver] = None
        self._scan_suppressions()

    # ------------------------------------------------------------------
    def _scan_suppressions(self) -> None:
        # Tokenize so the marker is only honoured in real comments, never
        # inside string literals or docstrings that merely mention it.
        try:
            comments = [
                (tok.start[0], tok.start[1], tok.string)
                for tok in tokenize.generate_tokens(io.StringIO(self.source).readline)
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):
            comments = []
        for lineno, col, text in comments:
            match = _SUPPRESSION_RE.search(text)
            if match is None:
                continue
            comment_only = self.lines[lineno - 1][:col].strip() == ""
            target = lineno
            if comment_only:
                # A standalone suppression comment covers the next
                # non-comment, non-blank line.
                for later in range(lineno, len(self.lines)):
                    candidate = self.lines[later].strip()
                    if candidate and not candidate.startswith("#"):
                        target = later + 1
                        break
            self.suppressions.append(
                Suppression(
                    line=lineno,
                    target_line=target,
                    rule=match.group("rule"),
                    reason=match.group("reason").strip(),
                )
            )

    # ------------------------------------------------------------------
    def suppression_for(self, line: int, rule: str) -> Optional[Suppression]:
        """The suppression covering ``rule`` at ``line``, if any."""
        for sup in self.suppressions:
            if sup.target_line == line and sup.rule == rule:
                return sup
        return None

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Check-and-mark: True (and marks used) if covered."""
        sup = self.suppression_for(line, rule)
        if sup is not None and sup.reason:
            sup.used = True
            return True
        return False

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def module_name(self) -> Optional[str]:
        """Dotted module name for files under ``src/`` (else None)."""
        rel = self.relpath
        if not rel.startswith("src/") or not rel.endswith(".py"):
            return None
        parts = rel[len("src/") : -len(".py")].split("/")
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    @property
    def resolver(self) -> NameResolver:
        """This file's :class:`NameResolver`, built on first use."""
        if self._resolver is None:
            self._resolver = NameResolver(self.tree, self.relpath, self.module_name())
        return self._resolver


class ProjectIndex:
    """The parsed lint targets, plus the telemetry vocabulary."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.files: Dict[str, FileContext] = {}
        self._event_kinds: Optional[Tuple[str, ...]] = None

    def add_file(self, relpath: str) -> Optional[FileContext]:
        relpath = relpath.replace(os.sep, "/")
        if relpath in self.files:
            return self.files[relpath]
        path = os.path.join(self.root, relpath)
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            ctx = FileContext(path, relpath, source)
        except (OSError, SyntaxError, ValueError):
            return None
        self.files[relpath] = ctx
        return ctx

    # ------------------------------------------------------------------
    @property
    def event_kinds(self) -> Tuple[str, ...]:
        """The telemetry event vocabulary, extracted statically."""
        if self._event_kinds is None:
            kinds: Tuple[str, ...] = ()
            ctx = self.add_file("src/repro/telemetry/events.py")
            if ctx is not None:
                for node in ast.walk(ctx.tree):
                    if not isinstance(node, ast.Assign):
                        continue
                    targets = [
                        t.id for t in node.targets if isinstance(t, ast.Name)
                    ]
                    if "EVENT_KINDS" not in targets:
                        continue
                    if isinstance(node.value, (ast.Tuple, ast.List)):
                        kinds = tuple(
                            elt.value
                            for elt in node.value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        )
            self._event_kinds = kinds
        return self._event_kinds


# ----------------------------------------------------------------------
class Rule:
    """Base class for reprolint rules.

    Subclasses set :attr:`id`/:attr:`description` and implement
    :meth:`check`, which runs once per lint target and yields raw
    findings in that file; the analyzer applies inline suppressions
    afterwards (rules needing finer-grained suppression logic, e.g. over
    several candidate lines, may consult ``ctx.is_suppressed`` themselves
    and emit nothing).
    """

    id: str = ""
    description: str = ""

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        raise NotImplementedError

    # Helper for subclasses.
    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            path=ctx.relpath,
            line=line,
            col=col,
            message=message,
            snippet=ctx.line_text(line),
        )


#: ``rule id -> Rule instance``; populated by :func:`register_rule`.
RULE_REGISTRY: Dict[str, Rule] = {}


def register_rule(cls):
    """Class decorator adding a rule (instantiated) to the registry."""
    instance = cls()
    if not instance.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if instance.id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    RULE_REGISTRY[instance.id] = instance
    return cls


def load_rules() -> None:
    """Import the rule module, populating :data:`RULE_REGISTRY`."""
    from . import rules as _rules  # noqa: F401


# ----------------------------------------------------------------------
def find_repo_root(start: Optional[str] = None) -> str:
    """Walk up from ``start`` (default cwd) to the dir holding ``src/repro``."""
    here = os.path.abspath(start or os.getcwd())
    probe = here
    while True:
        if os.path.isdir(os.path.join(probe, "src", "repro")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return here
        probe = parent


def iter_python_files(root: str, paths: Sequence[str]) -> List[str]:
    """Repo-relative ``.py`` files under ``paths`` (sorted, deduped)."""
    out: Set[str] = set()
    for target in paths:
        full = os.path.join(root, target)
        if os.path.isfile(full) and full.endswith(".py"):
            out.add(os.path.relpath(full, root))
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(
                d for d in dirnames if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return sorted(rel.replace(os.sep, "/") for rel in out)


@dataclass
class Report:
    """Outcome of one analyzer run."""

    root: str
    rules_version: str
    files_checked: int
    findings: List[Finding] = field(default_factory=list)
    suppressed_count: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


class Analyzer:
    """Run every registered rule over the lint targets."""

    def __init__(self, root: str, paths: Optional[Sequence[str]] = None) -> None:
        load_rules()
        self.root = os.path.abspath(root)
        self.paths = list(paths) if paths else [
            p for p in DEFAULT_LINT_PATHS if os.path.exists(os.path.join(root, p))
        ]
        self.rules = dict(RULE_REGISTRY)
        self.index = ProjectIndex(self.root)

    # ------------------------------------------------------------------
    def run(self) -> Report:
        """Lint the targets: unsuppressed findings, the files-checked
        count, and the number of honoured suppression comments."""
        from .rules import RULES_VERSION

        targets = iter_python_files(self.root, self.paths)

        findings: List[Finding] = []
        for rel in targets:
            ctx = self.index.add_file(rel)
            if ctx is None:
                findings.append(
                    Finding(
                        rule="parse-error",
                        path=rel,
                        line=1,
                        col=0,
                        message="file could not be parsed",
                    )
                )
                continue
            for rule in self.rules.values():
                for finding in rule.check(ctx, self.index):
                    if not ctx.is_suppressed(finding.line, finding.rule):
                        findings.append(finding)

        suppressed = 0
        for rel in targets:
            ctx = self.index.files.get(rel)
            if ctx is None:
                continue
            findings.extend(self._meta_findings(ctx))
            suppressed += sum(1 for sup in ctx.suppressions if sup.used)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return Report(
            root=self.root,
            rules_version=RULES_VERSION,
            files_checked=len(targets),
            findings=findings,
            suppressed_count=suppressed,
        )

    # ------------------------------------------------------------------
    def _meta_findings(self, ctx: FileContext) -> List[Finding]:
        """Malformed and unused suppression comments are findings too."""
        out: List[Finding] = []
        known = set(self.rules) | set(META_RULES)
        for sup in ctx.suppressions:
            if sup.rule not in known:
                out.append(
                    Finding(
                        rule="bad-suppression",
                        path=ctx.relpath,
                        line=sup.line,
                        col=0,
                        message=f"suppression names unknown rule {sup.rule!r}",
                        snippet=ctx.line_text(sup.line),
                    )
                )
            elif not sup.reason:
                out.append(
                    Finding(
                        rule="bad-suppression",
                        path=ctx.relpath,
                        line=sup.line,
                        col=0,
                        message=(
                            f"suppression of {sup.rule!r} has no reason; write "
                            "'# reprolint: allow[rule-id] why it is safe'"
                        ),
                        snippet=ctx.line_text(sup.line),
                    )
                )
            elif not sup.used:
                out.append(
                    Finding(
                        rule="unused-suppression",
                        path=ctx.relpath,
                        line=sup.line,
                        col=0,
                        message=(
                            f"suppression of {sup.rule!r} matched no finding; "
                            "delete it"
                        ),
                        snippet=ctx.line_text(sup.line),
                    )
                )
        return out


def run_analysis(root: str, paths: Optional[Sequence[str]] = None) -> Report:
    """Lint ``paths`` (default: ``src`` and ``benchmarks``) under ``root``.

    Read-only: it never writes into the tree.
    """
    return Analyzer(root, paths=paths).run()
