"""Per-file name resolution for the rules that police numpy contracts.

Bare-name matching cannot tell the numpy import ``np`` from a parameter
or a local that happens to be called ``np``.  :class:`NameResolver` is
the fix, built from one parsed file and nothing else:

- the **import table** (local alias -> canonical dotted name, relative
  imports resolved against the module's package);
- the module's **top-level names** (functions, classes, assignments),
  which resolve to their canonical dotted name;
- per-function **local binding sets** (parameters, assignments, loop and
  ``with`` targets, ...), so a name use resolves through real Python
  scoping instead of string matching; a ``global`` declaration punches
  through to module scope.

Everything is resolved *statically* - the resolver never imports the
code it describes, and it never looks at another file.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["ARRAY_NAMESPACES", "NameResolver"]

#: Canonical names a resolved array-namespace alias may map to; rules
#: that police "numpy contracts" accept any of them.
ARRAY_NAMESPACES = ("numpy",)


class _Scope:
    """One function's bindings: its locals and its ``global`` names."""

    __slots__ = ("locals", "globals_declared")

    def __init__(self, fn: ast.AST) -> None:
        #: Names bound in this function's scope (shadow module names).
        self.locals: Set[str] = set()
        #: Names declared ``global`` (writes go to module scope).
        self.globals_declared: Set[str] = set()
        _collect_locals(fn, self)


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


def _collect_locals(fn: ast.AST, scope: _Scope) -> None:
    """Names bound inside ``fn`` (excluding nested function bodies)."""
    args = fn.args
    for a in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        scope.locals.add(a.arg)

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scope.locals.add(child.name)
                continue  # nested scope: its bindings are its own
            if isinstance(child, ast.Global):
                scope.globals_declared.update(child.names)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    scope.locals.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    _bind_target(target, scope.locals)
            elif isinstance(child, (ast.AnnAssign, ast.AugAssign)):
                _bind_target(child.target, scope.locals)
            elif isinstance(child, ast.For):
                _bind_target(child.target, scope.locals)
            elif isinstance(child, ast.withitem) and child.optional_vars:
                _bind_target(child.optional_vars, scope.locals)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                scope.locals.add(child.name)
            elif isinstance(child, ast.NamedExpr):
                _bind_target(child.target, scope.locals)
            elif isinstance(child, ast.comprehension):
                # Pre-3.12 comprehension scoping nuances do not matter
                # for shadow detection; a comprehension target named
                # ``np`` shadows the import inside the expression.
                _bind_target(child.target, scope.locals)
            visit(child)

    visit(fn)
    scope.locals -= scope.globals_declared


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

    Precomputes, for every :class:`ast.Name` in the file, the stack of
    enclosing function scopes, so :meth:`resolve` can apply real
    shadowing rules: a parameter or local named ``np`` hides the numpy
    import; a ``global`` declaration punches through to module scope.
    """

    def __init__(self, tree: ast.Module, relpath: str, module: Optional[str]) -> None:
        self.relpath = relpath
        #: Dotted module name for files under ``src/`` else None.
        self.module = module
        #: local alias -> canonical dotted name ("np" -> "numpy").
        self.imports: Dict[str, str] = {}
        #: Top-level functions, classes and assigned names.
        self.top_level: Set[str] = set()
        #: id(Name node) -> tuple of enclosing scopes (outer->inner).
        self._scope_of: Dict[int, Tuple[_Scope, ...]] = {}
        self._read_module(tree)
        self._walk(tree, ())

    def _read_module(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports.setdefault(local, target)
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(self.module, node.level, node.module or "")
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.imports.setdefault(local, f"{base}.{alias.name}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.top_level.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.top_level.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                self.top_level.add(node.target.id)

    def _walk(self, node: ast.AST, stack: Tuple[_Scope, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk(child, stack + (_Scope(child),))
            else:
                if isinstance(child, ast.Name):
                    self._scope_of[id(child)] = stack
                self._walk(child, stack)

    # ------------------------------------------------------------------
    def is_shadowed(self, name_node: ast.Name) -> bool:
        """True if a local binding hides the module-level meaning."""
        name = name_node.id
        for scope in reversed(self._scope_of.get(id(name_node), ())):
            if name in scope.globals_declared:
                return False
            if name in scope.locals:
                return True
        return False

    def resolve(self, name_node: ast.Name) -> Optional[str]:
        """Canonical dotted name of a Name use, or None.

        Locals resolve to None (unknown); module imports resolve through
        the import table; top-level defs and assignments resolve to
        their canonical name.
        """
        if self.is_shadowed(name_node):
            return None
        name = name_node.id
        if name in self.imports:
            return self.imports[name]
        if name in self.top_level:
            if self.module:
                return f"{self.module}.{name}"
            return f"{self.relpath}::{name}"
        return None

    def resolve_expr(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or None."""
        chain = attribute_chain(node)
        if chain is None:
            return None
        _, attrs = chain
        # Find the root Name node to honour shadowing.
        inner = node
        while isinstance(inner, ast.Attribute):
            inner = inner.value
        root = self.resolve(inner)  # type: ignore[arg-type]
        if root is None:
            return None
        return ".".join([root] + attrs) if attrs else root
