"""Every exported name is reached by the program, not only by the tests.

A name in some ``repro.*.__all__`` is public surface: README documents it,
tests pin it, and every refactor has to carry it.  Surface that no file
under ``src/``, ``examples/`` or ``benchmarks/`` mentions is code no run
reaches, so it cannot show a measured win and goes.  A mention is the name
as a whole word on any line of those trees, except the lines of the name's
own definition and the re-export lines (imports and ``__all__``) of package
``__init__`` modules.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "examples", "benchmarks")
WORD = re.compile(r"\w+")

#: Exports kept without a caller in the program, each with its reason.
ALLOWED_UNUSED: Dict[str, str] = {
    "__version__": "the package version string, read by packaging tools",
    "DEFAULT_SYSTEM_CONFIG": "the documented default configuration value "
                             "users import instead of calling SystemConfig()",
    "clear_prepared_cache": "the documented way for a long-lived process to "
                            "drop the experiment harnesses' in-memory cache",
}


def _span(node: ast.AST) -> Set[int]:
    return set(range(node.lineno, node.end_lineno + 1))


def _skipped_lines(tree: ast.Module, is_init: bool) -> Tuple[Dict[str, Set[int]], Set[int]]:
    """Per top-level name, the lines that define it; plus re-export lines."""
    definitions: Dict[str, Set[int]] = {}
    reexports: Set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            definitions.setdefault(node.name, set()).update(_span(node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    if target.id == "__all__":
                        reexports |= _span(node)
                    definitions.setdefault(target.id, set()).update(_span(node))
        elif is_init and isinstance(node, (ast.Import, ast.ImportFrom)):
            reexports |= _span(node)
    return definitions, reexports


def _program_files() -> List[Tuple[Dict[str, Set[int]], Dict[str, Set[int]], Set[int]]]:
    """Per file: the lines each word is on, the definitions, the re-exports."""
    files = []
    for tree in SEARCHED:
        for path in sorted((ROOT / tree).rglob("*.py")):
            text = path.read_text()
            words: Dict[str, Set[int]] = {}
            for number, line in enumerate(text.splitlines(), 1):
                for word in WORD.findall(line):
                    words.setdefault(word, set()).add(number)
            definitions, reexports = _skipped_lines(
                ast.parse(text, filename=str(path)), path.name == "__init__.py")
            files.append((words, definitions, reexports))
    return files


def _exports() -> Dict[str, str]:
    """Map every exported name to the first module that exports it."""
    exports: Dict[str, str] = {}
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
    for name in modules:
        for export in getattr(importlib.import_module(name), "__all__", ()):
            exports.setdefault(export, name)
    return exports


def _is_mentioned(name: str, files) -> bool:
    return any(words.get(name, set()) - reexports - definitions.get(name, set())
               for words, definitions, reexports in files)


def test_every_export_has_a_caller_in_the_program():
    files = _program_files()
    orphans = sorted(f"{module}.{name}"
                     for name, module in _exports().items()
                     if name not in ALLOWED_UNUSED
                     and not _is_mentioned(name, files))
    assert not orphans, (
        "exported but mentioned by no file under src/, examples/ or "
        f"benchmarks/: {orphans}")


@pytest.mark.parametrize("name", sorted(ALLOWED_UNUSED))
def test_allow_list_names_are_still_exported(name):
    assert name in _exports()
