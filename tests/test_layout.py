"""The routes stay independent: each module imports only the shared base
(weights, partition, errors) it is allowed, never another route."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sobranch"

ALLOWED = {
    "errors": set(),
    "weights": {"errors"},
    "partition": {"weights", "errors"},
    "kostant": {"weights", "partition", "errors"},
    "clebsch_gordan": {"weights", "partition", "errors"},
    "tsukamoto": {"weights", "errors"},
    "oracle": {"weights", "errors"},
    "u3_so3": {"weights", "clebsch_gordan", "errors"},
}


def relative_imports(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_allowed_layers(module):
    assert relative_imports(module) <= ALLOWED[module], module
