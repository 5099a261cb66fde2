"""Every differentiability contract names a live adjoint and a live gradcheck.

``@differentiable`` (``repro.contracts``) records, for each forward kernel,
the dotted path of its backward pass and the node id of the
finite-difference test that proves the pair consistent (Eqs. 7-12); the
``backward-pair`` lint rule makes every ``*_forward*`` kernel in ``core/``
and ``sta/`` carry it.  This test holds those strings to what they name,
after renames too: the backward imports, the gradcheck test exists, and
its file still mentions the kernel by name.
"""

import ast
import importlib
import os
import pkgutil
import re

import pytest

import repro.core
import repro.sta
from repro.contracts import KERNEL_REGISTRY

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The paper's kernels: the compiled level sweep (Eqs. 9-12), the LSE
#: max and the soft clamp it smooths with (Eq. 5), and the Elmore delay
#: (Eqs. 7-8).  Each must stay registered.
PAPER_KERNELS = {
    "repro.core.sweep.sweep_forward",
    "repro.core.smoothing.lse_max",
    "repro.core.smoothing.soft_clamp_neg",
    "repro.sta.elmore.elmore_forward",
}

for _package in (repro.core, repro.sta):
    for _info in pkgutil.walk_packages(_package.__path__, _package.__name__ + "."):
        importlib.import_module(_info.name)


def _qualnames(tree):
    """``Class::method`` style node-id tails of a test file's defs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}::{sub.name}"


@pytest.mark.parametrize("forward", sorted(set(KERNEL_REGISTRY) | PAPER_KERNELS))
def test_contract_resolves(forward):
    contract = KERNEL_REGISTRY.get(forward)
    assert contract is not None, f"{forward} is not registered"
    backward = contract["backward"]
    assert callable(pkgutil.resolve_name(backward)), backward

    test_file, _, test_name = contract["gradcheck"].partition("::")
    with open(os.path.join(REPO_ROOT, test_file), encoding="utf-8") as handle:
        source = handle.read()
    assert test_name in set(_qualnames(ast.parse(source))), contract["gradcheck"]

    leaves = {forward.rsplit(".", 1)[1], backward.rsplit(".", 1)[1]}
    pattern = r"\b(" + "|".join(map(re.escape, sorted(leaves))) + r")\b"
    assert re.search(pattern, source), (
        f"{test_file} never names {sorted(leaves)}: the gradcheck no "
        "longer exercises this kernel"
    )
