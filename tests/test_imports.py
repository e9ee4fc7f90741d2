"""Every module of the package uses each name that it imports, the
package reads each private module-level name that it defines, and the
oracle's ground truth reads nothing that the oracle imports from the engine.

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


# The oracle's ground truth: what its equivalence checks compare the engine
# against.  An oracle that ran the engine would make those checks vacuous.
GROUND_TRUTH = ("_search", "_completions", "brute_force_completable",
                "enumerate_all_completions", "enumerate_members", "_cycle_uncompletable",
                "_extend_member", "_random_instance")


def _engine_reads(source: str, roots) -> list[str]:
    """"function:name" per name that `source` imports from .completion and
    that a function of `roots`, or a module-level function they reach, reads."""
    tree = ast.parse(source)
    engine = {alias.asname or alias.name for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.level == 1
              and node.module == "completion" for alias in node.names}
    functions = {node.name: node for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert set(roots) <= set(functions)
    reached, stack = [], list(roots)
    while stack:
        name = stack.pop()
        if name in reached:
            continue
        reached.append(name)
        stack += [node.id for node in ast.walk(functions[name])
                  if isinstance(node, ast.Name) and node.id in functions]
    return sorted(f"{name}:{node.id}" for name in reached
                  for node in ast.walk(functions[name])
                  if isinstance(node, ast.Name) and node.id in engine)


def test_the_check_finds_a_search_that_runs_the_engine():
    source = ("from .completion import _steps, magic_complete\n"
              "def _search(p, g):\n    return _leaf(p, g)\n"
              "def _leaf(p, g):\n    return magic_complete(p, 3, g).completable\n"
              "def _optparity(p):\n    return _steps(p, 3)\n")
    assert _engine_reads(source, ["_search"]) == ["_leaf:magic_complete"]


def test_oracle_ground_truth_does_not_run_the_engine():
    source = (Path(magic_completion.__file__).parent / "oracle.py").read_text()
    assert _engine_reads(source, GROUND_TRUTH) == []
