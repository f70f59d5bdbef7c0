import ast
import importlib
import re
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


# an intended hand-written lowest-bit loop says why on its while line
OWN_LOOP_MARKER = "# own bit loop:"


def _lowest_bit_loops(source: str) -> list[int]:
    """Lines of while loops that walk a mask's bits by hand.

    Such a loop takes x & -x of a name x in its test and does x ^= ...;
    graph.bits is the one kernel for visiting a mask's bits.  A loop
    whose while line carries OWN_LOOP_MARKER and a reason is exempt.
    """
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.While):
            continue
        tested = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)}
        body = [n for stmt in node.body for n in ast.walk(stmt)]
        lowest = {
            n.left.id
            for n in body
            if isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.BitAnd)
            and isinstance(n.left, ast.Name)
            and isinstance(n.right, ast.UnaryOp)
            and isinstance(n.right.op, ast.USub)
            and isinstance(n.right.operand, ast.Name)
            and n.right.operand.id == n.left.id
        }
        cleared = {
            n.target.id
            for n in body
            if isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitXor) and isinstance(n.target, ast.Name)
        }
        if tested & lowest & cleared and not re.search(re.escape(OWN_LOOP_MARKER) + r"\s*\S", lines[node.lineno - 1]):
            found.append(node.lineno)
    return found


def test_lowest_bit_scan_flags_a_copy_unless_marked_with_a_reason():
    copy = "while m:\n    low = m & -m\n    f(low)\n    m ^= low\n"
    assert _lowest_bit_loops(copy) == [1]
    assert _lowest_bit_loops("def f(m):\n    x = 0\n    " + copy.replace("\n", "\n    ")) == [3]
    assert _lowest_bit_loops(copy.replace("while m:", f"while m:  {OWN_LOOP_MARKER}")) == [1]
    assert _lowest_bit_loops(copy.replace("while m:", f"while m:  {OWN_LOOP_MARKER} it also drops bits")) == []
    # a loop that only draws the lowest bit of its test variable
    assert _lowest_bit_loops("while m:\n    m = f(m & -m)\n") == []


def test_mask_bits_are_visited_through_graph_bits():
    paths = sorted((ROOT / "src" / "domcore").glob("*.py"))
    assert [f"{p.relative_to(ROOT)}:{line}" for p in paths for line in _lowest_bit_loops(p.read_text())] == []


# the one search in solve.py; every other function there is loop-only
ONE_SEARCH = "_pivot_walk"


def _recursive_functions(source: str) -> list[str]:
    """Functions, nested ones included, that call themselves by name, other than ONE_SEARCH."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.FunctionDef) or node.name == ONE_SEARCH:
            continue
        body = [n for stmt in node.body for n in ast.walk(stmt)]
        if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == node.name for n in body):
            found.append(f"{node.lineno} {node.name}")
    return found


def test_recursion_scan_flags_a_nested_helper_but_not_the_walk():
    nested = "def alpha(g):\n    def rec(c):\n        return rec(c - 1) if c else 0\n    return rec(g)\n"
    assert _recursive_functions(nested) == ["2 rec"]
    assert _recursive_functions(nested.replace("rec", ONE_SEARCH)) == []
    assert _recursive_functions("def f(x):\n    return g(x)\n") == []


def test_solve_has_one_search():
    assert _recursive_functions((ROOT / "src" / "domcore" / "solve.py").read_text()) == []
