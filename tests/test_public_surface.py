"""Every exported name is reached by the program, not only by the tests.

A name in some ``repro.*.__all__`` is public surface: README documents it,
tests pin it, and every refactor has to carry it.  Surface that no file
under ``src/``, ``examples/`` or ``benchmarks/`` uses is code no run
reaches, so it cannot show a measured win and goes.

A use is read from the syntax tree: the name as an identifier
(``ast.Name``) or as an attribute (``ast.Attribute``), outside the lines
of the name's own definition.  Import statements, ``__all__`` entries,
docstrings and comments are not uses, so a mention in prose or a
re-export no longer keeps an export alive.  A name written only in a
string annotation (``"VideoWorkload"``) counts, as the type checker reads
it.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path
from typing import Dict, Iterator, Set

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks")

#: Exports kept without a caller in the program, each with its reason.
ALLOWED_UNUSED: Dict[str, str] = {
    "__version__": "the package version string, read by packaging tools",
    "DEFAULT_SYSTEM_CONFIG": "the documented default configuration value "
                             "users import instead of calling SystemConfig()",
}


def _definition_lines(tree: ast.Module) -> Dict[str, Set[int]]:
    """Per top-level name, the lines of its definition."""
    lines: Dict[str, Set[int]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets
                     if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            lines.setdefault(name, set()).update(
                range(node.lineno, node.end_lineno + 1))
    return lines


def _annotation_names(node: ast.AST) -> Iterator[ast.AST]:
    """The nodes of string annotations under ``node``, parsed."""
    for child in ast.walk(node):
        annotations = []
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = child.args
            annotations = [argument.annotation for argument in
                           (*arguments.posonlyargs, *arguments.args,
                            *arguments.kwonlyargs, arguments.vararg,
                            arguments.kwarg) if argument is not None]
            annotations.append(child.returns)
        elif isinstance(child, ast.AnnAssign):
            annotations = [child.annotation]
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    try:
                        parsed = ast.parse(part.value, mode="eval")
                    except SyntaxError:
                        continue
                    for inner in ast.walk(parsed):
                        inner.lineno = child.lineno
                        yield inner


def _uses() -> Dict[str, Set[str]]:
    """Map each used identifier to the files that use it."""
    uses: Dict[str, Set[str]] = {}
    for tree_root in SEARCHED:
        for path in sorted((ROOT / tree_root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            definitions = _definition_lines(tree)
            for node in (*ast.walk(tree), *_annotation_names(tree)):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if node.lineno in definitions.get(name, ()):
                    continue
                uses.setdefault(name, set()).add(str(path))
    return uses


def _exports() -> Dict[str, str]:
    """Map every exported name to the first module that exports it."""
    exports: Dict[str, str] = {}
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in modules:
        for export in getattr(importlib.import_module(name), "__all__", ()):
            exports.setdefault(export, name)
    return exports


def test_every_export_has_a_caller_in_the_program():
    uses = _uses()
    orphans = sorted(f"{module}.{name}"
                     for name, module in _exports().items()
                     if name not in ALLOWED_UNUSED and name not in uses)
    assert not orphans, (
        "exported but used by no file under src/, examples/ or "
        f"benchmarks/: {orphans}")


def test_a_mention_in_prose_is_not_a_use(tmp_path):
    """Docstrings, comments, imports and ``__all__`` keep nothing alive."""
    source = tmp_path / "module.py"
    source.write_text(
        '"""Calls ``orphan`` in prose only."""\n'
        "from elsewhere import orphan  # orphan\n"
        '__all__ = ["orphan"]\n'
        "def user(x: \"Annotated\"):\n"
        "    return called(x).attribute\n")
    tree = ast.parse(source.read_text())
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in (*ast.walk(tree), *_annotation_names(tree))
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert "orphan" not in names
    assert {"called", "attribute", "Annotated", "x"} <= names


@pytest.mark.parametrize("name", sorted(ALLOWED_UNUSED))
def test_allow_list_names_are_still_exported(name):
    assert name in _exports()
