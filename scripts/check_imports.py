#!/usr/bin/env python3
"""Report imported names that a module never uses.

Usage:

    python scripts/check_imports.py src tests scripts benchmarks examples

Walks every ``*.py`` file under the given files and directories and
prints ``path:line: 'name' imported but unused`` for each name an
``import`` binds that the module never reads.  A name counts as used
when it is read anywhere in the file (scopes are not separated, so the
check errs towards silence), listed in ``__all__``, or named inside a
string annotation such as ``-> "TrainingSet"``.  Every import of an
``__init__.py`` counts as a re-export, and ``from __future__`` imports
are skipped.  Exits 1 when it reports anything, else 0.  Only the
standard library is used, so it runs wherever the tree does.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Iterator, List, Set, Tuple


def python_files(paths: List[str]) -> Iterator[Path]:
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def _annotations(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from (node.returns,)
        elif isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> Set[str]:
    """Names the module reads, plus ``__all__`` entries and the names
    inside string annotations."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(
                    n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)
                )
    return used


def imported_names(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    """``(line, bound name)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def unused_imports(path: Path) -> List[Tuple[int, str]]:
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return sorted(
        (line, name) for line, name in imported_names(tree) if name not in used
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories to scan")
    args = parser.parse_args(argv)
    found = 0
    for path in python_files(args.paths):
        for line, name in unused_imports(path):
            print(f"{path}:{line}: {name!r} imported but unused")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
