"""Every name a library module or a script imports, every local a
function of theirs binds, and every private name a library module defines
at its top level, is read somewhere."""
import ast
from pathlib import Path

import pytest

import quantir

_MODULES = sorted(Path(quantir.__file__).parent.glob("*.py"))
_SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))
_CHECKED = _MODULES + _SCRIPTS
_IDS = [p.name for p in _MODULES] + [f"scripts/{p.name}" for p in _SCRIPTS]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is re-exported, which is a use
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_modules_found():
    assert {p.name for p in _MODULES} >= {"__init__.py", "circuit.py",
                                          "passes.py", "transpile.py"}


def test_scripts_found():
    assert {p.name for p in _SCRIPTS} >= {"bench_record.py",
                                          "routing_quality.py"}


@pytest.mark.parametrize("path", _CHECKED, ids=_IDS)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


# -- unread locals ----------------------------------------------------------------

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
               ast.SetComp)


def _own_nodes(fn):
    """The nodes of ``fn``'s own scope in source order, none inside a nested
    scope."""
    stack = list(ast.iter_child_nodes(fn))[::-1]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(list(ast.iter_child_nodes(node))[::-1])


def _unread_locals(tree: ast.Module) -> list[str]:
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound: dict[str, int] = {}  # local name -> first binding line
        declared, fresh = set(), set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and isinstance(node.value, _CONTAINERS)):
                targets = getattr(node, "targets", None) or [node.target]
                fresh.update(t.id for t in targets if isinstance(t, ast.Name))
        # a fresh container that is only ever filled by subscript is not read
        filled = {id(node.value) for node in ast.walk(fn)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)}
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and not (node.id in fresh and id(node) in filled)}
        found += [f"line {line}: {name} in {fn.name}"
                  for name, line in bound.items()
                  if name not in read | declared and not name.startswith("_")]
    return found


def test_unread_locals_are_caught():
    tree = ast.parse("def f(xs):\n"
                     "    seen = {}\n"
                     "    total = 0\n"
                     "    for x in xs:\n"
                     "        seen[x] = True\n"
                     "        total += x\n"
                     "    return xs\n")
    assert _unread_locals(tree) == ["line 2: seen in f", "line 3: total in f"]


@pytest.mark.parametrize("path", _CHECKED, ids=_IDS)
def test_no_unread_locals(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unread_locals(tree) == []


# -- orphaned helpers ---------------------------------------------------------------

def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private names a module binds at its top level (not by import), with
    the line of the first binding."""
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [(n.id, n.lineno) for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name, line in names:
            if name.startswith("_") and not name.startswith("__"):
                found.setdefault(name, line)
    return found


def _read_names(tree: ast.Module) -> set[str]:
    """Every name a module reads: as a variable, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _orphans(defining: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    read = set().union(*map(_read_names, readers))
    return [f"{module} line {line}: {name}"
            for module, tree in defining.items()
            for name, line in _private_definitions(tree).items()
            if name not in read]


def test_orphaned_helpers_are_caught():
    lib = ast.parse("_USED = 1\n_LEFT = 2\n\ndef _helper():\n    return _USED\n")
    script = ast.parse("from quantir.lib import _helper\n_helper()\n")
    assert _orphans({"lib.py": lib}, [lib, script]) == ["lib.py line 2: _LEFT"]


def test_no_orphaned_helpers():
    # every private module-level name of the library is read by some
    # library module or script; tests do not count
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in _CHECKED}
    library = {p.name: trees[p] for p in _MODULES}
    assert _orphans(library, list(trees.values())) == []
