import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", ["domcore", "domcore.recognize", "domcore.cli"])
def test_star_import_binds_every_name_in_all(module):
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec(f"from {module} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(importlib.import_module(module).__all__)


def _unused_imports(path: Path) -> list[str]:
    """Top-level imported names that the module never reads.

    Names listed in __all__, __future__ imports and lines marked
    noqa: F401 are exempt.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name == "*" or name in exported or name in read:
                continue
            if "noqa: F401" in lines[alias.lineno - 1]:
                continue
            unused.append(f"{path.relative_to(ROOT)}:{alias.lineno} {name}")
    return unused


def test_no_unused_top_level_imports():
    paths = sorted((ROOT / "src" / "domcore").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert [name for path in paths for name in _unused_imports(path)] == []
