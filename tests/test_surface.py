"""The public surface is the surface that runs: every name ``relgap`` exports
is used by the package, the scripts or the README, not by tests alone."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "relgap" / "__init__.py"
SOURCES = ([p for p in sorted((ROOT / "src" / "relgap").glob("*.py")) if p != INIT]
           + sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "README.md"])


def _exported() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("name", _exported())
def test_exported_name_has_a_caller(name):
    word = re.compile(rf"\b{name}\b")
    definition = re.compile(rf"\s*(?:def|class)\s+{name}\b|{name}\s*[:=]")
    uses = [f"{path.name}: {line.strip()}" for path in SOURCES
            for line in path.read_text().splitlines()
            if word.search(line) and not definition.match(line)]
    assert uses, f"relgap.{name} is referenced only by its definition and the export"


def _exported_members() -> list[str]:
    """``Class.member`` for each public method or property of an exported class."""
    exported = set(_exported())
    return [f"{node.name}.{item.name}" for path in SOURCES if path.suffix == ".py"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and node.name in exported
            for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]


@pytest.mark.parametrize("member", _exported_members())
def test_exported_member_has_a_caller(member):
    name = member.split(".")[1]
    attribute = re.compile(rf"\.{name}\b")
    definition = re.compile(rf"\s*def\s+{name}\b")
    uses = [f"{path.name}: {line.strip()}" for path in SOURCES
            for line in path.read_text().splitlines()
            if attribute.search(line) and not definition.match(line)]
    assert uses, f"relgap.{member} is referenced only by its definition"
