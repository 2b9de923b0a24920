"""Every name a module of sphskel imports is used in that module, but one.

A name is used when the module reads it anywhere outside the import that
binds it: as a bare name, as the base of an attribute, or in an annotation
(with ``from __future__ import annotations`` these stay AST nodes).  An
import kept for a reason other than use is listed in ``UNUSED`` with that
reason, so a leftover import, such as a module no longer called after its
caller moved, fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sphskel"

UNUSED = {
    "catalog.compute_p": (
        "the benchmark's tracer rebinds every module's alias of a traced "
        "function, and its own tests read catalog.compute_p"
    ),
}


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _unused() -> dict[str, int]:
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read(tree)
        for name, line in _imported(tree).items():
            if name not in read:
                out[f"{path.stem}.{name}"] = line
    return out


def test_every_imported_name_is_used():
    assert sorted(_unused()) == sorted(UNUSED)


def test_the_scan_finds_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import lp, pinv\n"
        "from operator import add as plus, neg\n"
        "def f(x: pinv.Report) -> int:\n"
        "    return neg(os.sep)\n"
    )
    assert sorted(set(_imported(tree)) - _read(tree)) == ["lp", "plus"]
