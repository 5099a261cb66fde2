"""The repo-specific reprolint rules.

Each rule encodes one reproducibility contract of the codebase; see
``DESIGN.md`` ("Static analysis & enforced invariants") for the policy
behind each.  Importing this module registers every rule in
:data:`repro.analysis.core.RULE_REGISTRY`.

Most rules match patterns inside one file.  Three whole-program
families run on :class:`repro.analysis.index.SemanticIndex` (import
graph, symbol tables, approximate call graph) via ``index.semantic``:

- ``spawn-safety`` - module-level state written on spawn-worker paths;
- ``determinism-taint`` - clock/entropy/set-order values flowing into
  telemetry manifests and gated metrics (it also carries the old
  syntactic ``seeded-rng`` checks);
- ``contract-closure`` - every ``@differentiable`` string resolves to a
  live symbol and a gradcheck test that still exercises the kernel.
"""

from __future__ import annotations

import ast
import difflib
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .core import FileContext, Finding, ProjectIndex, Rule, register_rule
from .index import ARRAY_NAMESPACES, NameResolver

__all__ = ["RULES_VERSION", "SPAWN_SAFE_GLOBALS"]

#: Bumped whenever a rule is added, removed, or changes what it flags;
#: recorded in telemetry run manifests.
RULES_VERSION = "2.8"


def _in_tests(relpath: str) -> bool:
    return relpath.startswith("tests/") or "/tests/" in relpath


def _resolved(resolver: Optional[NameResolver], node: ast.AST) -> Optional[str]:
    """Canonical dotted name of a Name/Attribute chain, or None.

    A local variable that merely shadows an imported name (``np``)
    resolves to None.
    """
    if resolver is None:
        return None
    return resolver.resolve_expr(node)


def _is_numpy(resolver: Optional[NameResolver], node: ast.AST) -> bool:
    """True if ``node`` denotes the numpy namespace *by import*."""
    return _resolved(resolver, node) in ARRAY_NAMESPACES


# ----------------------------------------------------------------------
@register_rule
class NoScatterAddAt(Rule):
    """``ufunc.at`` scatters are banned in favour of the shared helpers.

    ``repro.core.scatter.scatter_add`` is a bit-identical, order-preserving
    replacement for ``np.add.at`` into zeros that is both faster and a
    single audited implementation of the deterministic-scatter contract;
    ``np.maximum.at``/``np.minimum.at`` are how a private levelised
    propagator starts, and the one engine (``repro.core.propagate``)
    merges through ``repro.core.smoothing.segment_max``.  Reference
    implementations are exempt: the equivalence tests in ``tests/`` and
    the scatter micro-benchmark *must* call ``np.add.at`` to compare
    against.
    """

    id = "no-scatter-add-at"
    description = (
        "use repro.core.scatter / repro.core.smoothing helpers instead of "
        "np.add.at / np.subtract.at / np.maximum.at / np.minimum.at"
    )

    _UFUNCS = ("add", "subtract", "maximum", "minimum")
    _ALLOWED_FILES = ("benchmarks/bench_scatter.py",)

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        if _in_tests(ctx.relpath) or ctx.relpath in self._ALLOWED_FILES:
            return
        resolver = index.semantic.resolver(ctx.relpath)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute) or node.attr != "at":
                continue
            inner = node.value
            if (
                isinstance(inner, ast.Attribute)
                and inner.attr in self._UFUNCS
                and _is_numpy(resolver, inner.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"np.{inner.attr}.at is banned; use the deterministic "
                    "bincount helper repro.core.scatter.scatter_add or, for "
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

    _ALLOWED_FILES = ("src/repro/runtime/guard.py",)

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        if ctx.relpath in self._ALLOWED_FILES or _in_tests(ctx.relpath):
            return
        resolver = index.semantic.resolver(ctx.relpath)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "nan_to_num"
                and _is_numpy(resolver, func.value)
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
                and _is_numpy(resolver, func.value)
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
        if not kinds or _in_tests(ctx.relpath):
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
    """Processes and process pools are built only by the suite runner.

    A bare ``ProcessPoolExecutor`` or ``multiprocessing.Pool`` has no
    crash isolation: one SIGKILL'd worker breaks the whole pool and
    discards every completed result, and a bare ``Process`` has no
    timeout.  ``repro.harness.supervisor`` owns process fan-out (crash
    isolation, task timeouts, quarantine) and is the only module allowed
    to construct them - ``ProcessPoolExecutor(...)``, ``Pool(...)`` and
    ``Process(...)`` under any prefix (``multiprocessing.``,
    ``get_context(...).``): work fans out through
    ``repro.harness.supervisor.run_tasks``.  Tests are exempt (they
    exercise pool behaviour directly).
    """

    id = "supervised-pool-only"
    description = (
        "construct processes and process pools only in "
        "repro.harness.supervisor (use repro.harness.supervisor.run_tasks "
        "elsewhere)"
    )

    _ALLOWED_FILES = ("src/repro/harness/supervisor.py",)
    _CTORS = ("ProcessPoolExecutor", "Pool", "Process")

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        if _in_tests(ctx.relpath) or ctx.relpath in self._ALLOWED_FILES:
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
            if name in self._CTORS:
                yield self.finding(
                    ctx,
                    node,
                    f"bare {name} construction is banned outside "
                    "repro.harness.supervisor; fan out through "
                    "repro.harness.supervisor.run_tasks (crash isolation, "
                    "timeout, quarantine)",
                )


# ----------------------------------------------------------------------
#: Module-level state that spawn workers are *allowed* to write, with the
#: audit rationale.  Every entry is per-process by construction: a spawn
#: worker gets a fresh module copy, mutates only its own, and nothing
#: reads the value back across the process boundary.  An attribute write
#: under an allowed prefix (e.g. ``PROFILER.enabled``, which ``install``
#: sets and its undo clears) is covered by the prefix entry.
SPAWN_SAFE_GLOBALS = {
    # Per-process design-bundle memo; workers warm their own copy on
    # spawn (that is the point of _preload_designs).
    "repro.netlist.cache._MEMO": "per-process design cache",
    "repro.netlist.cache._CODE_VERSION": "per-process cache-key memo",
    # The span recorder is per-process observability: a worker installs
    # it around one task, and the task's per-layer stats and timeline
    # travel back in the result, never through shared memory.
    "repro.perf.PROFILER": "per-process span recorder",
    # Telemetry context slots: each worker installs its own recorder /
    # heartbeat registration for the task it runs.
    "repro.telemetry.events._CURRENT": "per-process recorder slot",
    "repro.telemetry.registry._CURRENT": "per-process heartbeat slot",
    # Cached os.sysconf page size; idempotent scalar.
    "repro.telemetry.resources._PAGE_SIZE": "idempotent sysconf memo",
}


@register_rule
class SpawnSafety(Rule):
    """Spawn-worker code must not write unaudited module-level state.

    Worker entrypoints are discovered syntactically (functions passed as
    ``target=`` to a ``Process`` or ``initializer=`` to a pool) and the
    approximate call graph is closed over them.  Any function in that
    closure writing module-level state - ``global`` rebinding, attribute
    assignment on a module-level object, subscript stores or mutating
    method calls (``append``/``update``/``clear``/...) on module-level
    containers - is flagged unless the state is in the audited
    :data:`SPAWN_SAFE_GLOBALS` allowlist.

    Module globals are per-process under the spawn start method, so such
    writes are not data races in the classic sense; the failure mode is
    subtler and worse: state mutated in a worker silently diverges from
    the parent's copy, and code that later reads it in the parent (or in
    a fork-started context) sees different values per process.  The
    allowlist records exactly which globals are *designed* to be
    per-process, with the audit rationale next to each entry.
    """

    id = "spawn-safety"
    description = (
        "unaudited module-level state written on a spawn-worker call path"
    )
    scope = "project"

    _MUTATORS = {
        "append",
        "appendleft",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
    }

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        sem = index.semantic
        closure = sem.call_closure(sorted(sem.spawn_entrypoints))
        for canonical in sorted(closure):
            entry = sem.functions.get(canonical)
            if entry is None:
                continue
            relpath, info = entry
            if _in_tests(relpath):
                continue
            ctx = index.files.get(relpath)
            resolver = sem.resolver(relpath)
            if ctx is None or resolver is None:
                continue
            yield from self._check_function(
                ctx, resolver, sem, canonical, info.node
            )

    def _check_function(self, ctx, resolver, sem, canonical, fn):
        seen: Set[Tuple[int, str]] = set()
        for node in ast.walk(fn):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                written = self._written_global(resolver, target)
                if written is not None and sem.is_module_global(written):
                    yield from self._flag(
                        ctx, canonical, node, written, seen
                    )
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in self._MUTATORS:
                    resolved = _resolved(resolver, node.func.value)
                    if resolved is not None and sem.is_module_global(resolved):
                        yield from self._flag(
                            ctx, canonical, node, resolved, seen
                        )

    @staticmethod
    def _written_global(resolver, target: ast.AST) -> Optional[str]:
        """Canonical name of the module-level state a store hits, if any."""
        # Unwrap subscript stores: X[k] = v mutates X.
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, (ast.Name, ast.Attribute)):
            return _resolved(resolver, target)
        return None

    def _allowed(self, canonical_state: str) -> bool:
        for allowed in SPAWN_SAFE_GLOBALS:
            if canonical_state == allowed or canonical_state.startswith(
                allowed + "."
            ):
                return True
        return False

    def _flag(self, ctx, canonical_fn, node, state, seen):
        if self._allowed(state):
            return
        key = (node.lineno, state)
        if key in seen:
            return
        seen.add(key)
        yield self.finding(
            ctx,
            node,
            f"{canonical_fn}() is reachable from a spawn-worker entrypoint "
            f"and writes module-level state {state!r}; per-process divergence "
            "is invisible until it bites - pass the state through the task "
            "payload, or audit it into SPAWN_SAFE_GLOBALS with a rationale",
        )


# ----------------------------------------------------------------------
@register_rule
class DeterminismTaint(Rule):
    """Nondeterministic values must not flow into gated telemetry sinks.

    The CI byte-identity gates compare manifests and metric records
    across runs; anything derived from wall clocks, OS entropy, or set
    iteration order breaks them one flaky build at a time.  This rule
    runs an intraprocedural taint analysis per function:

    - **sources**: ``time.time``/``time.time_ns``/``monotonic``/
      ``perf_counter``, ``datetime.now``/``utcnow``/``today`` (clock);
      ``os.urandom`` and unseeded ``default_rng()`` (entropy); iteration
      of set displays/constructors into ordered containers (order);
    - **sanitizers**: ``sorted(...)`` clears order taint;
    - **sinks**: ``.event(...)`` telemetry calls,
      ``append_record``/``write_manifest``, and
      ``RunManifest``/``RunRecord`` construction.

    Wall-clock-*class* fields (``ts``, ``runtime_s``, ``setup_s``, ...)
    are exempt at the sink: the comparator in
    ``repro.telemetry.compare`` never gates on them, so timestamps may
    flow there freely.  Everything else - metrics, ids, counts - must be
    derived deterministically.

    The old syntactic ``seeded-rng`` checks live on here as standalone
    findings: process-global ``np.random`` state and ``default_rng()``
    without a seed are flagged wherever they appear (sink or not), now
    resolved through the import index instead of bare-name matching.
    """

    id = "determinism-taint"
    description = (
        "clock/entropy/set-order values flowing into telemetry sinks; "
        "global np.random state; unseeded default_rng()"
    )
    scope = "file"

    _CLOCK_FUNCS = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
    _ENTROPY_FUNCS = {"os.urandom"}
    #: Sink fields the comparator never gates on (wall-clock class); see
    #: repro.telemetry.compare.GATED_METRICS for what *is* gated.
    _EXEMPT_FIELDS = {
        "ts",
        "ts_mono",
        "anchor_ts",
        "timestamp",
        "started_at",
        "finished_at",
        "runtime",
        "runtime_s",
        "setup_s",
        "elapsed_s",
        "duration_s",
        "wall_s",
        "delay_s",
        "time_s",
    }
    _SINK_ATTRS = {"event"}
    _SINK_NAMES = {"append_record", "write_manifest", "RunManifest", "RunRecord"}

    _GLOBAL_STATE = {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "exponential",
        "get_state",
        "set_state",
        "RandomState",
    }

    def check(self, ctx: FileContext, index: ProjectIndex) -> Iterable[Finding]:
        if _in_tests(ctx.relpath):
            return
        resolver = index.semantic.resolver(ctx.relpath)
        yield from self._standalone(ctx, resolver)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, resolver, node)

    # -- standalone RNG hygiene (the seeded-rng heritage) ---------------
    def _standalone(self, ctx, resolver):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                inner = node.value
                if (
                    isinstance(inner, ast.Attribute)
                    and inner.attr == "random"
                    and _is_numpy(resolver, inner.value)
                    and node.attr in self._GLOBAL_STATE
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"np.random.{node.attr} uses process-global RNG state; "
                        "thread an explicitly seeded np.random.default_rng "
                        "through instead",
                    )
            if isinstance(node, ast.Call) and self._is_unseeded_rng(node):
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() without a seed draws OS entropy and is "
                    "not reproducible; pass an explicit seed",
                )

    @staticmethod
    def _is_unseeded_rng(call: ast.Call) -> bool:
        if call.args or call.keywords:
            return False
        func = call.func
        if isinstance(func, ast.Name):
            return func.id == "default_rng"
        return isinstance(func, ast.Attribute) and func.attr == "default_rng"

    # -- intraprocedural taint ------------------------------------------
    def _check_function(self, ctx, resolver, fn):
        tainted: Dict[str, str] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                kind = self._expr_taint(resolver, node.value, tainted)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if kind is not None:
                            tainted[target.id] = kind
                        else:
                            tainted.pop(target.id, None)
            elif isinstance(node, ast.Call):
                yield from self._check_sink(ctx, resolver, node, tainted)

    def _check_sink(self, ctx, resolver, call, tainted):
        func = call.func
        is_sink = False
        sink_name = None
        if isinstance(func, ast.Attribute) and func.attr in self._SINK_ATTRS:
            is_sink, sink_name = True, func.attr
        else:
            resolved = _resolved(resolver, func)
            leaf = resolved.split(".")[-1] if resolved else None
            bare = func.id if isinstance(func, ast.Name) else None
            if leaf in self._SINK_NAMES or bare in self._SINK_NAMES:
                is_sink, sink_name = True, leaf or bare
        if not is_sink:
            return
        for arg in call.args:
            kind = self._expr_taint(resolver, arg, tainted)
            if kind is not None:
                yield self._taint_finding(ctx, arg, kind, sink_name, None)
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in self._EXEMPT_FIELDS:
                continue
            kind = self._expr_taint(resolver, kw.value, tainted)
            if kind is not None:
                yield self._taint_finding(ctx, kw.value, kind, sink_name, kw.arg)

    def _taint_finding(self, ctx, node, kind, sink, field):
        where = f"field {field!r} of" if field else "an argument of"
        return self.finding(
            ctx,
            node,
            f"{kind}-tainted value flows into {where} telemetry sink "
            f"{sink}(); gated comparisons will differ across runs - derive "
            "it deterministically (or route wall-clock data through the "
            "exempt ts/runtime fields)",
        )

    def _expr_taint(
        self, resolver, expr: ast.AST, tainted: Dict[str, str]
    ) -> Optional[str]:
        """Taint kind of an expression, or None if clean."""
        if isinstance(expr, ast.Name):
            return tainted.get(expr.id)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "sorted":
                # sorted() is the order sanitizer; clock/entropy taint in
                # the sorted values still flows through.
                kinds = [
                    self._expr_taint(resolver, a, tainted) for a in expr.args
                ]
                kinds = [k for k in kinds if k is not None and k != "order"]
                return kinds[0] if kinds else None
            resolved = _resolved(resolver, func)
            if resolved in self._CLOCK_FUNCS:
                return "clock"
            if resolved in self._ENTROPY_FUNCS or self._is_unseeded_rng(expr):
                return "entropy"
            if self._is_set_expr(func, expr):
                return "order"
            for sub in list(expr.args) + [kw.value for kw in expr.keywords]:
                kind = self._expr_taint(resolver, sub, tainted)
                if kind is not None:
                    return kind
            # A method call on a tainted receiver stays tainted:
            # os.urandom(8).hex(), datetime.now().isoformat(), ...
            if isinstance(func, ast.Attribute):
                return self._expr_taint(resolver, func.value, tainted)
            return None
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            for comp in expr.generators:
                if self._is_set_valued(comp.iter, tainted):
                    return "order"
            kind = self._expr_taint(resolver, expr.elt, tainted)
            return kind
        if isinstance(expr, ast.Set):
            return None  # a set itself is fine; *ordering* it taints
        for child in ast.iter_child_nodes(expr):
            kind = self._expr_taint(resolver, child, tainted)
            if kind is not None:
                return kind
        return None

    @staticmethod
    def _is_set_expr(func: ast.AST, call: ast.Call) -> bool:
        """``list(<set-ish>)``: ordering a set without sorting."""
        if not (isinstance(func, ast.Name) and func.id in ("list", "tuple")):
            return False
        return bool(call.args) and DeterminismTaint._is_set_valued(
            call.args[0], {}
        )

    @staticmethod
    def _is_set_valued(expr: ast.AST, tainted: Dict[str, str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in ("set", "frozenset")
        if isinstance(expr, ast.Name):
            return tainted.get(expr.id) == "order"
        return False


# ----------------------------------------------------------------------
@register_rule
class ContractClosure(Rule):
    """Every ``@differentiable`` contract string must close the loop.

    ``backward-pair`` checks the decorator is *present* and well-formed;
    this rule checks the strings still *mean* something after renames:

    - the declared ``backward=`` dotted name must resolve - through
      import aliases - to a function in the semantic index;
    - the declared ``gradcheck=`` pytest node id must resolve to a real
      test function under ``tests/``;
    - the gradcheck's test file must still reference the forward or
      backward kernel by name, so renaming a kernel (and fixing the
      decorator) cannot leave the gradcheck silently exercising nothing.

    Together with ``repro.contracts.KERNEL_REGISTRY`` (the runtime view
    of the same decorators), this keeps the differentiability contracts
    of the paper's kernels verifiable from either side.
    """

    id = "contract-closure"
    description = (
        "@differentiable backward=/gradcheck= strings must resolve to live "
        "symbols and a test that references the kernel"
    )
    scope = "project"

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        sem = index.semantic
        for site in sem.contracts:
            if not site.relpath.startswith("src/"):
                continue
            ctx = index.files.get(site.relpath)
            if ctx is None:
                continue
            if site.backward is None or site.gradcheck is None:
                continue  # malformed decorators are backward-pair findings
            name = site.qualname
            backward_ok = sem.resolve_symbol(site.backward) is not None
            if not backward_ok:
                yield self.finding(
                    ctx,
                    site.node,
                    f"{name}() declares backward {site.backward!r}, which "
                    "does not resolve to any function in the project index",
                )
            if not index.has_test(site.gradcheck):
                yield self.finding(
                    ctx,
                    site.node,
                    f"{name}() declares gradcheck {site.gradcheck!r}, which "
                    "does not resolve to a test in the suite",
                )
                continue
            test_rel = site.gradcheck.split("::")[0]
            tctx = index.files.get(test_rel) or index.add_file(test_rel)
            if tctx is None:
                continue
            leaves = {name.split(".")[-1], site.backward.split(".")[-1]}
            pattern = re.compile(
                r"\b(" + "|".join(re.escape(leaf) for leaf in leaves) + r")\b"
            )
            if not pattern.search(tctx.source):
                yield self.finding(
                    ctx,
                    site.node,
                    f"gradcheck {site.gradcheck!r} of {name}() never "
                    f"references {sorted(leaves)}; the test no longer "
                    "exercises this kernel (renamed without updating the "
                    "gradcheck?)",
                )
