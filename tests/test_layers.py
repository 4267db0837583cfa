"""Each library module imports only from the modules below it."""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "kpcalab"
_ORDER = ("errors", "rng", "linalg", "measures", "kernels", "features", "kpca", "oracle",
          "bounds", "rates", "cli")


def _relative_imports(path: Path) -> set[str]:
    """The kpcalab modules a file imports by relative import, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in _SRC.glob("*.py") if p.stem != "__init__") == sorted(_ORDER)


@pytest.mark.parametrize("module", _ORDER)
def test_imports_point_down_the_layers(module):
    below = set(_ORDER[:_ORDER.index(module)])
    assert _relative_imports(_SRC / f"{module}.py") - below == set()
