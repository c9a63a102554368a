"""The package namespace, its runtime imports, and README's library tour."""

import ast
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType

import permatch

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve_and_none_is_a_module():
    assert permatch.__all__ == sorted(set(permatch.__all__))
    for name in permatch.__all__:
        assert not isinstance(getattr(permatch, name), ModuleType), name
    for module in ("autiso", "classify", "graphs", "matchings", "perms",
                   "polygonal", "voltage"):
        assert module not in permatch.__all__
    assert "CoverGraph" not in permatch.__all__  # derived_cover builds covers
    assert "derived_cover" in permatch.__all__

    namespace: dict = {}
    exec("from permatch import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == permatch.__all__


def test_runtime_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "permatch").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_readme_library_tour():
    # README's python block runs as written, and each expression line with a
    # trailing comment prints as that comment
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, note = line.partition("#")
        body = ast.parse(code).body
        if note and body and isinstance(body[0], ast.Expr):
            shown.append((code.strip(), str(eval(code, namespace)), note.strip()))
        elif body:
            exec(code, namespace)
    assert len(shown) == 6
    for code, value, note in shown:
        assert value == note, code


def _references(tree: ast.AST) -> Counter:
    """Names read, attributes taken and names imported anywhere in tree."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def test_every_private_helper_is_used():
    # each single-underscore module-level name and method in src/ is referenced
    # somewhere in src/ outside its own definition
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "permatch").glob("*.py"))}
    total: Counter = Counter()
    for tree in trees.values():
        total += _references(tree)
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    found = []
    for module, tree in trees.items():
        nodes = list(tree.body)
        nodes += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, defs)]
        for node in nodes:
            if isinstance(node, defs):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    found.append(name)
                    own = _references(node)[name] if isinstance(node, defs) else 0
                    assert total[name] > own, (module, name)
    assert "_bfs_arcs" in found and "_raw" in found


def test_every_slot_is_read():
    # a field that nothing reads is dead state: each __slots__ name of a class
    # in src/ is read as an attribute somewhere in src/
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "permatch").glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    slots = [(cls.name, name) for tree in trees for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)
             for name in ast.literal_eval(node.value)]
    assert ("Perm", "_inv") in slots and ("_Level", "_done") in slots
    assert [slot for slot in slots if slot[1] not in read] == []


def test_chain_trees_have_one_writer():
    # a chain's trees grow only as _append_gen files a generator, in place;
    # perms.py stores an attribute named tree only where a level is made:
    # _Level.__init__ and rebase's relabeled copy
    writers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "tree"
                    and isinstance(child.ctx, ast.Store)):
                writers.add(".".join(scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if named else scope)

    visit(ast.parse((ROOT / "src" / "permatch" / "perms.py").read_text(encoding="utf-8")), ())
    assert writers == {"_Level.__init__", "PermGroup.rebase.relabeled"}
