"""The package namespace, its runtime imports, and README's library tour."""

import ast
import sys
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
