"""No module or class body defines one name twice with ``def`` or ``class``.

A second definition silently replaces the first: a second test class of
the same name hides every test of the first from pytest."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def repeated_names(tree: ast.Module) -> list[str]:
    repeats = []
    for body_owner in (tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))):
        seen = {}
        for node in body_owner.body:
            if not isinstance(node, DEFINITIONS):
                continue
            if node.name in seen:
                repeats.append(f"{node.name} (lines {seen[node.name]} and {node.lineno})")
            seen.setdefault(node.name, node.lineno)
    return repeats


def test_the_scan_covers_every_tree():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_name_is_defined_twice(path):
    assert repeated_names(ast.parse(path.read_text(), str(path))) == []


def test_a_second_class_of_the_same_name_is_caught():
    tree = ast.parse("class A:\n    def f(self): ...\n    def f(self): ...\nclass A: ...\ndef g(): ...\n")
    assert repeated_names(tree) == ["A (lines 1 and 4)", "f (lines 2 and 3)"]
