"""The project-wide semantic index behind the v2 whole-program rules.

Per-file AST pattern matching cannot see across modules: it keys on bare
names (any local ``np`` looked like numpy), it cannot tell which
functions a spawned worker actually reaches, and it cannot resolve a
``@differentiable(backward="...")`` string to the function it names.
:class:`SemanticIndex` is the two-pass fix.  Pass one walks every parsed
file and extracts per-module facts:

- the **import table** (local alias -> canonical dotted name, relative
  imports resolved against the module's package);
- the **symbol table** (functions, classes, methods, module-level
  assignments);
- per-function **local binding sets** (parameters, assignments, loop and
  ``with`` targets, ...), so a name use resolves through real Python
  scoping instead of string matching;
- the approximate **call graph** (``Name`` calls through the import
  table, ``module.fn`` attribute calls, ``self.method`` within a class);
- every ``@differentiable`` **contract site** and every spawn-worker
  **entrypoint** (functions passed as ``target=`` to a ``Process`` or
  ``initializer=`` to a pool).

Pass two is the whole-program rules in :mod:`repro.analysis.rules`,
which run closures and dataflow over these tables.  Everything here is
resolved *statically* - the index never imports the code it describes.

The call graph is deliberately an under-approximation: an attribute call
on an object of unknown type contributes no edge.  For lint that is the
right bias - closures stay small and findings stay explainable - and the
seeded counterexamples in ``tests/test_analysis_engine.py`` pin exactly
what is and is not resolved.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = [
    "ARRAY_NAMESPACES",
    "ContractSite",
    "FunctionInfo",
    "ModuleInfo",
    "NameResolver",
    "SemanticIndex",
]

#: Canonical names a resolved array-namespace alias may map to; rules
#: that police "numpy contracts" accept any of them.
ARRAY_NAMESPACES = ("numpy",)


class ContractSite:
    """One ``@differentiable(backward=..., gradcheck=...)`` decorator."""

    __slots__ = ("relpath", "qualname", "backward", "gradcheck", "node")

    def __init__(self, relpath, qualname, backward, gradcheck, node):
        self.relpath = relpath
        self.qualname = qualname  # e.g. "lse_max" or "Cls.method"
        self.backward = backward  # declared string (may be None)
        self.gradcheck = gradcheck  # declared string (may be None)
        self.node = node  # the decorator AST node


class FunctionInfo:
    """One function/method: its node, locals, and outgoing call edges."""

    __slots__ = ("qualname", "node", "locals", "globals_declared", "calls")

    def __init__(self, qualname: str, node: ast.AST) -> None:
        self.qualname = qualname
        self.node = node
        #: Names bound in this function's scope (shadow module names).
        self.locals: Set[str] = set()
        #: Names declared ``global`` (writes go to module scope).
        self.globals_declared: Set[str] = set()
        #: Canonical dotted names of resolved callees.
        self.calls: Set[str] = set()


class ModuleInfo:
    """Extracted facts of one source file."""

    def __init__(self, relpath: str, module: Optional[str]) -> None:
        self.relpath = relpath
        #: Dotted module name for files under ``src/`` else None.
        self.module = module
        #: local alias -> canonical dotted name ("np" -> "numpy").
        self.imports: Dict[str, str] = {}
        #: qualname -> FunctionInfo for every def (incl. methods).
        self.functions: Dict[str, FunctionInfo] = {}
        #: Top-level class names -> list of method names.
        self.classes: Dict[str, List[str]] = {}
        #: Module-level assigned names -> first assignment lineno.
        self.module_assigns: Dict[str, int] = {}
        self.contracts: List[ContractSite] = []


def _canonical(module: Optional[str], qualname: str, relpath: str) -> str:
    """Canonical name of a def: dotted under src/, path-anchored else."""
    if module:
        return f"{module}.{qualname}"
    return f"{relpath}::{qualname}"


def _resolve_relative(module: Optional[str], level: int, target: str) -> Optional[str]:
    """Absolute dotted module for a ``from ...x import y`` statement."""
    if level == 0:
        return target or None
    if module is None:
        return None
    # The package containing this module: drop the final component
    # (``repro.place.density`` lives in package ``repro.place``), then
    # one more component per extra dot.
    parts = module.split(".")[:-1]
    for _ in range(level - 1):
        if not parts:
            return None
        parts = parts[:-1]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts) if parts else None


def _collect_locals(fn: ast.AST, info: FunctionInfo) -> None:
    """Names bound inside ``fn`` (excluding nested function bodies)."""
    args = fn.args
    for a in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        info.locals.add(a.arg)

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                info.locals.add(child.name)
                continue  # nested scope: its bindings are its own
            if isinstance(child, ast.Global):
                info.globals_declared.update(child.names)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    info.locals.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    _bind_target(target, info.locals)
            elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                _bind_target(child.target, info.locals)
            elif isinstance(child, ast.For):
                _bind_target(child.target, info.locals)
            elif isinstance(child, ast.withitem) and child.optional_vars:
                _bind_target(child.optional_vars, info.locals)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                info.locals.add(child.name)
            elif isinstance(child, ast.NamedExpr):
                _bind_target(child.target, info.locals)
            elif isinstance(child, ast.comprehension):
                # Pre-3.12 comprehension scoping nuances do not matter
                # for shadow detection; a comprehension target named
                # ``np`` shadows the import inside the expression.
                _bind_target(child.target, info.locals)
            visit(child)

    visit(fn)
    info.locals -= info.globals_declared


def _bind_target(target: ast.AST, out: Set[str]) -> None:
    if isinstance(target, ast.Name):
        out.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            _bind_target(elt, out)
    elif isinstance(target, ast.Starred):
        _bind_target(target.value, out)


def attribute_chain(node: ast.AST) -> Optional[Tuple[str, List[str]]]:
    """``a.b.c`` -> ("a", ["b", "c"]); None if the root is not a Name."""
    attrs: List[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return node.id, list(reversed(attrs))
    return None


class NameResolver:
    """Scope-aware name resolution for one file.

    Precomputes, for every :class:`ast.Name` and call-root in the file,
    the stack of enclosing function scopes, so :meth:`resolve` can apply
    real shadowing rules: a parameter or local named ``np`` hides the
    numpy import; a ``global`` declaration punches through to module
    scope.
    """

    def __init__(self, mod: ModuleInfo, tree: ast.Module) -> None:
        self.mod = mod
        #: id(Name node) -> tuple of enclosing FunctionInfo (outer->inner).
        self._scope_of: Dict[int, Tuple[FunctionInfo, ...]] = {}
        self._walk(tree, (), None)

    def _walk(
        self,
        node: ast.AST,
        stack: Tuple[FunctionInfo, ...],
        cls: Optional[str],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{cls}.{child.name}" if cls else child.name
                info = self.mod.functions.get(qual)
                if info is None or info.node is not child:
                    # Nested defs / redefinitions: index by identity.
                    info = FunctionInfo(qual, child)
                    _collect_locals(child, info)
                self._walk(child, stack + (info,), None)
            elif isinstance(child, ast.ClassDef):
                self._walk(child, stack, child.name if not cls else f"{cls}.{child.name}")
            else:
                if isinstance(child, ast.Name):
                    self._scope_of[id(child)] = stack
                self._walk(child, stack, cls)

    # ------------------------------------------------------------------
    def enclosing(self, name_node: ast.Name) -> Tuple[FunctionInfo, ...]:
        return self._scope_of.get(id(name_node), ())

    def is_shadowed(self, name_node: ast.Name) -> bool:
        """True if a local binding hides the module-level meaning."""
        name = name_node.id
        for info in reversed(self.enclosing(name_node)):
            if name in info.globals_declared:
                return False
            if name in info.locals:
                return True
        return False

    def resolve(self, name_node: ast.Name) -> Optional[str]:
        """Canonical dotted name of a Name use, or None.

        Locals resolve to None (unknown); module imports resolve through
        the import table; module-level defs and assignments resolve to
        their canonical name.
        """
        if self.is_shadowed(name_node):
            return None
        name = name_node.id
        mod = self.mod
        if name in mod.imports:
            return mod.imports[name]
        if name in mod.functions or name in mod.classes:
            return _canonical(mod.module, name, mod.relpath)
        if name in mod.module_assigns:
            return _canonical(mod.module, name, mod.relpath)
        return None

    def resolve_expr(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None."""
        chain = attribute_chain(node)
        if chain is None:
            return None
        root_name, attrs = chain
        # Find the root Name node to honour shadowing.
        inner = node
        while isinstance(inner, ast.Attribute):
            inner = inner.value
        root = self.resolve(inner)  # type: ignore[arg-type]
        if root is None:
            return None
        return ".".join([root] + attrs) if attrs else root


class SemanticIndex:
    """All modules' extracted facts plus cross-module resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # relpath -> info
        self._by_module: Dict[str, ModuleInfo] = {}  # dotted -> info
        self._resolvers: Dict[str, NameResolver] = {}
        #: canonical function name -> (relpath, FunctionInfo)
        self.functions: Dict[str, Tuple[str, FunctionInfo]] = {}
        #: Canonical names of spawn-worker entrypoints (Process target=
        #: / pool initializer=) discovered syntactically.
        self.spawn_entrypoints: Set[str] = set()
        self.contracts: List[ContractSite] = []

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: Dict[str, "object"]) -> "SemanticIndex":
        """Build from ``relpath -> FileContext`` (repro.analysis.core)."""
        index = cls()
        for relpath, ctx in sorted(files.items()):
            index._add_module(relpath, ctx)
        for relpath, ctx in sorted(files.items()):
            index._link_module(relpath, ctx)
        return index

    # -- pass 1: per-module symbol extraction ---------------------------
    def _add_module(self, relpath: str, ctx) -> None:
        mod = ModuleInfo(relpath, ctx.module_name())
        tree = ctx.tree
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.imports.setdefault(local, target)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(mod.module, node.level, node.module or "")
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports.setdefault(local, f"{base}.{alias.name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node.name, node)
            elif isinstance(node, ast.ClassDef):
                methods: List[str] = []
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{node.name}.{sub.name}"
                        methods.append(sub.name)
                        self._add_function(mod, qual, sub)
                mod.classes[node.name] = methods
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        mod.module_assigns.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                mod.module_assigns.setdefault(node.target.id, node.lineno)
        self.modules[relpath] = mod
        if mod.module:
            self._by_module[mod.module] = mod

    def _add_function(self, mod: ModuleInfo, qualname: str, node) -> None:
        info = FunctionInfo(qualname, node)
        _collect_locals(node, info)
        mod.functions[qualname] = info

    # -- pass 2: cross-module linking -----------------------------------
    def _link_module(self, relpath: str, ctx) -> None:
        mod = self.modules[relpath]
        resolver = NameResolver(mod, ctx.tree)
        self._resolvers[relpath] = resolver
        for qual, info in mod.functions.items():
            canonical = _canonical(mod.module, qual, relpath)
            self.functions[canonical] = (relpath, info)
            cls_name = qual.split(".")[0] if "." in qual else None
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._resolve_callee(mod, resolver, cls_name, node.func)
                if callee:
                    info.calls.add(callee)
                self._scan_spawn_call(resolver, node)
            self._scan_contract(mod, resolver, qual, info.node)
        # Module-level code can also spawn / declare contracts.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._scan_spawn_call(resolver, node)

    def _resolve_callee(self, mod, resolver, cls_name, func) -> Optional[str]:
        if isinstance(func, ast.Name):
            return resolver.resolve(func)
        if isinstance(func, ast.Attribute):
            # self.method() -> this class's method.
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and cls_name is not None
            ):
                return _canonical(mod.module, f"{cls_name}.{func.attr}", mod.relpath)
            return resolver.resolve_expr(func)
        return None

    _SPAWN_CTORS = ("Process", "ProcessPoolExecutor", "Pool")
    _SPAWN_KWARGS = ("target", "initializer")

    def _scan_spawn_call(self, resolver: NameResolver, call: ast.Call) -> None:
        chain = attribute_chain(call.func)
        if chain is None:
            return
        name = chain[1][-1] if chain[1] else chain[0]
        if name not in self._SPAWN_CTORS:
            return
        for kw in call.keywords:
            if kw.arg in self._SPAWN_KWARGS:
                target = resolver.resolve_expr(kw.value)
                if target:
                    self.spawn_entrypoints.add(target)

    def _scan_contract(self, mod, resolver, qual, node) -> None:
        for deco in getattr(node, "decorator_list", ()):
            target = deco.func if isinstance(deco, ast.Call) else deco
            resolved = resolver.resolve_expr(target)
            leaf = None
            chain = attribute_chain(target)
            if chain is not None:
                leaf = chain[1][-1] if chain[1] else chain[0]
            if leaf != "differentiable" and (
                resolved is None or not resolved.endswith(".differentiable")
            ):
                continue
            backward = gradcheck = None
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if isinstance(kw.value, ast.Constant) and isinstance(
                        kw.value.value, str
                    ):
                        if kw.arg == "backward":
                            backward = kw.value.value
                        elif kw.arg == "gradcheck":
                            gradcheck = kw.value.value
            self.contracts.append(
                ContractSite(
                    mod.relpath,
                    qual,
                    backward,
                    gradcheck,
                    deco,
                )
            )

    # ------------------------------------------------------------------
    def resolver(self, relpath: str) -> Optional[NameResolver]:
        return self._resolvers.get(relpath)

    def resolve_symbol(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """Follow import aliases to the defining module's canonical name.

        ``repro.place.hpwl`` (re-exported) resolves to
        ``repro.place.wirelength.hpwl``; a name already canonical returns
        itself; unknown names return None.
        """
        if _depth > 8:
            return None
        if dotted in self.functions:
            return dotted
        # Longest module prefix.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            mod = self._by_module.get(prefix)
            if mod is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in mod.imports:
                rebased = ".".join([mod.imports[head]] + rest[1:])
                return self.resolve_symbol(rebased, _depth + 1)
            qual = ".".join(rest)
            if qual in mod.functions:
                return f"{prefix}.{qual}"
            if head in mod.classes or head in mod.module_assigns:
                return dotted
            return None
        return None

    def is_module_global(self, dotted: str) -> bool:
        """True if ``dotted`` roots at a module-level assignment of an
        indexed project module (``pkg.mod.NAME`` or an attribute path
        beneath one).  Imported third-party modules (``os.remove``) are
        not project globals and return False.
        """
        if "::" in dotted:
            relpath, _, rest = dotted.partition("::")
            mod = self.modules.get(relpath)
            return (
                mod is not None
                and rest.split(".")[0] in mod.module_assigns
            )
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = self._by_module.get(".".join(parts[:cut]))
            if mod is not None:
                return parts[cut] in mod.module_assigns
        return False

    # ------------------------------------------------------------------
    def call_closure(self, roots: Iterable[str]) -> Set[str]:
        """Canonical names of functions reachable from ``roots``.

        Edges follow the approximate call graph; callees that resolve
        through import aliases are rebased onto their defining module
        before lookup.  Roots themselves are included when they resolve.
        """
        seen: Set[str] = set()
        stack: List[str] = []
        for root in roots:
            resolved = self.resolve_symbol(root)
            if resolved is not None:
                stack.append(resolved)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            entry = self.functions.get(name)
            if entry is None:
                continue
            _, info = entry
            for callee in info.calls:
                resolved = self.resolve_symbol(callee)
                if resolved is not None and resolved not in seen:
                    stack.append(resolved)
        return seen
