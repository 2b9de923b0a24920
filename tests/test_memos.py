"""The process memos of sphskel, pinned.

Every ``functools.cache`` memo holds what it computes for the life of the
process, so each one is a decision: a new memo, or one removed, shows up
here as a change to ``MEMOS``.  ``serialize._COMPILED``, the compiled
schema checkers, is the one memo kept in a plain dict: it is keyed by
schema identity, which a ``functools.cache`` key cannot express.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sphskel"

MEMOS = {
    "catalog.generate",
    "cli._parsers",
    "roots._coroot_matrix",
    "roots._positive_count",
    "roots._positive_roots",
    "roots.two_rho",
    "serialize.load_schema",
    "skeleton._structure_violations",
    "sphroots.pattern",
}

CACHE_NAMES = {"cache", "lru_cache"}


def _is_cache(decorator: ast.expr) -> bool:
    """``@cache``, ``@functools.cache``, and the same for ``lru_cache``,
    called or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in CACHE_NAMES
    return isinstance(decorator, ast.Name) and decorator.id in CACHE_NAMES


def _memos() -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_cache(d) for d in node.decorator_list):
                    found.add(f"{path.stem}.{node.name}")
    return found


def test_the_memo_list_is_pinned():
    assert _memos() == MEMOS


def test_the_scan_sees_every_decorator_form():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@cache\ndef a(): pass\n"
        "@functools.cache\ndef b(): pass\n"
        "@lru_cache(maxsize=8)\ndef c(): pass\n"
        "@functools.lru_cache\ndef d(): pass\n"
        "@staticmethod\ndef e(): pass\n"
    )
    tree = ast.parse(source)
    named = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list))
    ]
    assert named == ["a", "b", "c", "d"]
