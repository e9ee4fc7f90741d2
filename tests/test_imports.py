"""Every module of the package uses each name that it imports, and the
package reads each private module-level name that it defines.

__init__.py is left out of the import check: it imports names to re-export
them.
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


def _unread_privates(sources: dict[str, str]) -> list[str]:
    """"module:name" per module-level name with one leading underscore that
    no source in `sources` (module -> text) reads, in definition order."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            unread += [f"{module}:{name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return unread


def test_the_check_finds_a_private_helper_that_nothing_reads():
    sources = {
        "completion.py": ("_FAMILY = 'plus'\n_LEFT: int = 0\nclass _Masks:\n    pass\n"
                          "def _apply_rule(masks: _Masks):\n    return masks\n"
                          "def magic_complete(g):\n    return space._label_rows(g)\n"),
        "space.py": "def _label_rows(g):\n    return [_FAMILY]\n",
    }
    assert _unread_privates(sources) == ["completion.py:_LEFT", "completion.py:_apply_rule"]


def test_package_reads_every_private_name():
    package = Path(magic_completion.__file__).parent
    assert _unread_privates({path.name: path.read_text()
                             for path in sorted(package.glob("*.py"))}) == []
