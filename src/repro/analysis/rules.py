"""The repo-specific reprolint rules.

Each rule encodes one reproducibility contract of the codebase; see
``DESIGN.md`` ("Static analysis & enforced invariants") for the policy
behind each.  Importing this module registers every rule in
:data:`repro.analysis.core.RULE_REGISTRY`.
"""

from __future__ import annotations

import ast
import difflib
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import FileContext, Finding, ProjectIndex, Rule, register_rule
from .index import ARRAY_NAMESPACES, NameResolver

__all__ = ["RULES_VERSION"]

#: Bumped whenever a rule is added, removed, or changes what it flags;
#: recorded in baselines, in telemetry run manifests, and in the
#: incremental result cache key.
RULES_VERSION = "2.4"


def _is_numpy(node: ast.AST, resolver: Optional[NameResolver] = None) -> bool:
    # With a resolver the name is traced through the module's import
    # table, so a local variable that merely shadows ``np`` does not
    # count as numpy; the bare-name fallback survives only for files
    # absent from the semantic index.
    if resolver is not None:
        return resolver.resolve_expr(node) in ARRAY_NAMESPACES
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _in_tests(ctx: FileContext) -> bool:
    return ctx.relpath.startswith("tests/") or "/tests/" in ctx.relpath


# ----------------------------------------------------------------------
@register_rule
class NoScatterAddAt(Rule):
    """``ufunc.at`` scatters are banned in favour of the shared helpers.

    ``repro.core.scatter`` provides bit-identical, order-preserving
    replacements for ``np.add.at`` (``scatter_add`` and friends) that are
    both faster and a single audited implementation of the
    deterministic-scatter contract; ``np.maximum.at``/``np.minimum.at``
    are how a private levelised propagator starts, and the one engine
    (``repro.core.propagate``) merges through
    ``repro.core.smoothing.segment_max``.  Reference implementations are
    exempt: the equivalence tests in ``tests/`` and the scatter
    micro-benchmark *must* call ``np.add.at`` to compare against.

    The same audited-site discipline covers ``ufunc.reduceat`` in the
    modules whose data layout exists to avoid it
    (``place/wirelength.py``: per-net reductions run over degree buckets,
    a segmented ``reduceat`` costs a scalar loop per net): any
    ``.reduceat`` there is flagged, and the one ragged-tail site carries
    an inline reason.  Elsewhere ``reduceat`` is not this rule's business.
    """

    id = "no-scatter-add-at"
    description = (
        "use repro.core.scatter / repro.core.smoothing helpers instead of "
        "np.add.at / np.subtract.at / np.maximum.at / np.minimum.at"
    )
    cacheable = True

    _UFUNCS = ("add", "subtract", "maximum", "minimum")
    _ALLOWED_FILES = ("benchmarks/bench_scatter.py",)
    #: Modules built on a bucketed layout, where ``reduceat`` is audited.
    _BUCKETED_LAYOUT_FILES = ("src/repro/place/wirelength.py",)

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        if _in_tests(ctx) or ctx.relpath in self._ALLOWED_FILES:
            return
        resolver = index.semantic.resolver(ctx.relpath)
        bucketed = ctx.relpath in self._BUCKETED_LAYOUT_FILES
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if bucketed and node.attr == "reduceat":
                # Any receiver: the ufunc is usually a parameter here.
                yield self.finding(
                    ctx,
                    node,
                    "ufunc.reduceat in a degree-bucketed layout module runs a "
                    "scalar loop per net; reduce over the bucket rows, or "
                    "mark the one ragged-tail site with a reason",
                )
                continue
            if node.attr != "at":
                continue
            inner = node.value
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in self._UFUNCS
                and _is_numpy(inner.value, resolver)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"np.{inner.attr}.at is banned; use the deterministic "
                    "bincount helpers in repro.core.scatter (scatter_add, "
                    "scatter_add_2d, scatter_accumulate, ...) or, for "
                    "max/min merges, repro.core.smoothing.segment_max",
                )


# ----------------------------------------------------------------------
@register_rule
class NoSilentNanFix(Rule):
    """NaN laundering outside the numerical guard is banned.

    ``np.nan_to_num`` and ``np.errstate(invalid="ignore")`` silently
    convert numerical faults into plausible-looking numbers; the guarded
    runtime (``repro/runtime/guard.py``) is the one place allowed to do
    that, because it quarantines and reports what it fixed.  Anywhere
    else needs an inline suppression explaining why the NaNs are benign.
    """

    id = "no-silent-nanfix"
    description = (
        "np.nan_to_num / np.errstate(invalid='ignore') outside runtime/guard.py"
    )
    cacheable = True

    _ALLOWED_FILES = ("src/repro/runtime/guard.py",)

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        if ctx.relpath in self._ALLOWED_FILES or _in_tests(ctx):
            return
        resolver = index.semantic.resolver(ctx.relpath)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "nan_to_num"
                and _is_numpy(func.value, resolver)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "np.nan_to_num silently launders non-finite values; route "
                    "them through the numerical guard (repro.runtime.guard) "
                    "instead, or suppress with a reason",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "errstate"
                and _is_numpy(func.value, resolver)
            ):
                for kw in node.keywords:
                    if (
                        kw.arg == "invalid"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value == "ignore"
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "np.errstate(invalid='ignore') hides invalid-value "
                            "faults; let the numerical guard see them, or "
                            "suppress with a reason",
                        )
                        break


# ----------------------------------------------------------------------
# The syntactic SeededRng rule lived here through RULES_VERSION 1.x; its
# checks moved into flowrules.DeterminismTaint ("determinism-taint"),
# which additionally traces tainted values into telemetry sinks.


# ----------------------------------------------------------------------
@register_rule
class TelemetryKindLiteral(Rule):
    """Event-kind literals must belong to the telemetry vocabulary.

    Any ``.event("kind", ...)`` call whose kind is a string literal is
    checked against the ``EVENT_KINDS`` tuple extracted statically from
    ``src/repro/telemetry/events.py``, so typos fail lint instead of
    raising mid-run.  The diagnostic mirrors
    :func:`repro.telemetry.events.kind_error_message`.
    """

    id = "telemetry-kind-literal"
    description = "event-kind literals must be members of EVENT_KINDS"

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        kinds = index.event_kinds
        if not kinds or _in_tests(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "event"):
                continue
            kind_node: Optional[ast.expr] = None
            if node.args:
                kind_node = node.args[0]
            else:
                for kw in node.keywords:
                    if kw.arg == "kind":
                        kind_node = kw.value
                        break
            if not (
                isinstance(kind_node, ast.Constant)
                and isinstance(kind_node.value, str)
            ):
                continue
            kind = kind_node.value
            if kind in kinds:
                continue
            message = f"unknown event kind {kind!r}; expected one of {kinds}"
            close = difflib.get_close_matches(kind, kinds, n=1, cutoff=0.6)
            if close:
                message += f" (did you mean {close[0]!r}?)"
            yield self.finding(ctx, kind_node, message)


# ----------------------------------------------------------------------
@register_rule
class CheckpointCompleteness(Rule):
    """State-provider classes must round-trip everything they mutate.

    A class exposing ``get_state``/``set_state`` participates in
    checkpoint/restart; any attribute it mutates outside ``__init__``
    (i.e. trajectory state) must appear among the keys of the dict
    ``get_state`` returns (matched with leading underscores stripped),
    or a checkpoint-resume will silently diverge from an uninterrupted
    run.  Derived caches that are rebuilt on resume are suppressed
    inline with a reason, on any line that mutates them.
    """

    id = "checkpoint-completeness"
    description = "attributes mutated by state providers must be in get_state"
    cacheable = True

    _EXCLUDED_METHODS = {"__init__", "get_state", "set_state"}

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        for node in ctx.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                sub.name: sub
                for sub in node.body
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "get_state" not in methods or "set_state" not in methods:
                continue
            keys = self._state_keys(methods["get_state"])
            if keys is None:
                continue  # get_state too dynamic to analyse statically
            stripped_keys = {k.lstrip("_") for k in keys}
            mutated = self._mutated_attrs(methods)
            for attr in sorted(mutated):
                if attr in keys or attr.lstrip("_") in stripped_keys:
                    continue
                lines = mutated[attr]
                if any(ctx.is_suppressed(line, self.id) for line, _ in lines):
                    continue
                line, method = lines[0]
                yield Finding(
                    rule=self.id,
                    path=ctx.relpath,
                    line=line,
                    col=0,
                    message=(
                        f"{node.name}.{attr} is mutated in {method}() but "
                        "missing from the get_state dict; checkpoint/restart "
                        "will not round-trip it (suppress if it is a derived "
                        "cache rebuilt on resume)"
                    ),
                    snippet=ctx.line_text(line),
                )

    # ------------------------------------------------------------------
    def _state_keys(self, get_state: ast.FunctionDef) -> Optional[Set[str]]:
        """String keys of the dict(s) returned by ``get_state``."""
        keys: Set[str] = set()
        saw_return = False
        for node in ast.walk(get_state):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            saw_return = True
            value = node.value
            if isinstance(value, ast.Dict):
                for key in value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        keys.add(key.value)
                    else:
                        return None  # computed key: bail out
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "dict"
            ):
                for kw in value.keywords:
                    if kw.arg is None:
                        return None
                    keys.add(kw.arg)
            else:
                return None
        return keys if saw_return else None

    def _mutated_attrs(
        self, methods: Dict[str, ast.FunctionDef]
    ) -> Dict[str, List[Tuple[int, str]]]:
        """``self.X`` mutation sites outside the excluded methods."""
        out: Dict[str, List[Tuple[int, str]]] = {}

        def record(target: ast.expr, line: int, method: str) -> None:
            # Unwrap subscript mutations: self.x[i] = ... mutates self.x.
            while isinstance(target, ast.Subscript):
                target = target.value
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                out.setdefault(target.attr, []).append((line, method))

        for name, fn in methods.items():
            if name in self._EXCLUDED_METHODS:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        record(target, node.lineno, name)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    record(node.target, node.lineno, name)
        for sites in out.values():
            sites.sort()
        return out


# ----------------------------------------------------------------------
@register_rule
class BackwardPair(Rule):
    """Forward kernels must declare their adjoint and gradcheck test.

    Module-level functions named ``*_forward*`` under ``core/`` or
    ``sta/`` must carry the ``@differentiable(backward=..., gradcheck=
    ...)`` decorator (:mod:`repro.contracts`) with both arguments as
    string literals.  Whether those strings still *resolve* - to a live
    function and a test that exercises the kernel - is checked by the
    project-scope ``contract-closure`` rule on the semantic index.
    Forward kernels that genuinely have no adjoint (e.g. exact hard-max
    siblings) are suppressed inline with a reason.
    """

    id = "backward-pair"
    description = (
        "forward kernels in core//sta/ must declare backward + gradcheck"
    )
    cacheable = True

    _KERNEL_DIRS = ("src/repro/core/", "src/repro/sta/")

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        in_kernel_dir = ctx.relpath.startswith(self._KERNEL_DIRS)
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            contract = self._differentiable_contract(node)
            if contract is None:
                if in_kernel_dir and "forward" in node.name.split("_"):
                    yield self.finding(
                        ctx,
                        node,
                        f"forward kernel {node.name}() lacks the "
                        "@differentiable(backward=..., gradcheck=...) "
                        "contract decorator (repro.contracts)",
                    )
                continue
            backward, gradcheck, deco = contract
            if backward is None or gradcheck is None:
                yield self.finding(
                    ctx,
                    deco,
                    f"@differentiable on {node.name}() must pass both "
                    "backward= and gradcheck= as string literals",
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _differentiable_contract(node):
        """(backward, gradcheck, decorator-node) if decorated, else None."""
        for deco in node.decorator_list:
            target = deco.func if isinstance(deco, ast.Call) else deco
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name != "differentiable":
                continue
            backward = gradcheck = None
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    value = kw.value
                    if not (
                        isinstance(value, ast.Constant)
                        and isinstance(value.value, str)
                    ):
                        # Implicitly concatenated string literals parse as
                        # a single Constant; anything else is unresolvable.
                        continue
                    if kw.arg == "backward":
                        backward = value.value
                    elif kw.arg == "gradcheck":
                        gradcheck = value.value
            return backward, gradcheck, deco
        return None


# ----------------------------------------------------------------------
@register_rule
class SupervisedPoolOnly(Rule):
    """Process pools must go through the supervised execution layer.

    A bare ``ProcessPoolExecutor`` has no crash isolation: one SIGKILL'd
    worker breaks the whole pool and discards every completed result.
    ``repro.harness.supervisor`` owns process fan-out (task timeouts,
    bounded deterministic retry, quarantine, partial-result salvage) and
    is the only module allowed to construct pools: suite tasks run
    through ``repro.harness.supervisor.run_tasks``, anything else through
    ``supervised_map``.  Tests are exempt (they exercise pool behaviour
    directly).
    """

    id = "supervised-pool-only"
    description = (
        "construct process pools only in repro.harness.supervisor "
        "(use run_tasks/supervised_map elsewhere)"
    )
    cacheable = True

    _ALLOWED_FILES = ("src/repro/harness/supervisor.py",)

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        if _in_tests(ctx) or ctx.relpath in self._ALLOWED_FILES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "ProcessPoolExecutor":
                yield self.finding(
                    ctx,
                    node,
                    "bare ProcessPoolExecutor construction is banned "
                    "outside repro.harness.supervisor; fan out through "
                    "repro.harness.supervisor.run_tasks (crash isolation, "
                    "retry, quarantine, salvage)",
                )
