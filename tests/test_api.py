"""The documented library surface stays importable, and the package ships
only what it calls or documents."""

import ast
import re
from pathlib import Path

import ttmep

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    for name in ttmep.__all__:
        assert getattr(ttmep, name) is not None, name


def test_readme_quick_start_imports():
    from ttmep import SolverConfig, generate_random_mep, oracle_eigenvalues, solve
    from ttmep.delta_builder import shift_generated

    for obj in (SolverConfig, generate_random_mep, oracle_eigenvalues, solve, shift_generated):
        assert callable(obj)


def _referenced_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_every_public_definition_is_called_or_documented():
    """A public top-level function or class of a ``ttmep`` module is referenced
    in the package outside its own definition, or the README names it."""
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "ttmep").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    unused = []
    for tree in trees:
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if name.startswith("_") or re.search(rf"\b{name}\b", readme):
                continue
            inside = {id(node) for node in ast.walk(definition)}
            if not any(
                id(node) not in inside and name in _referenced_names(node)
                for other in trees
                for node in ast.walk(other)
            ):
                unused.append(name)
    assert not unused, f"neither referenced in src/ttmep nor named in README.md: {unused}"
