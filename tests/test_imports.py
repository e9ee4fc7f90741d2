"""Every module of the package uses each name that it imports.

__init__.py is left out: it imports names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import magic_completion

MODULES = sorted(path.name for path in Path(magic_completion.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    # an attribute chain such as functools.partial starts with a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_a_leftover_import():
    source = ("import os.path\nimport sys\nfrom .space import LabelledGraph, is_member\n"
              "def f(g: LabelledGraph):\n    return os.path.join(sys.argv[0])\n")
    assert _unused_imports(source) == ["is_member"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    path = Path(magic_completion.__file__).parent / module
    assert _unused_imports(path.read_text()) == []
