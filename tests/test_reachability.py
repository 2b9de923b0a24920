"""The definitions of sphskel that no other code of the package names, pinned.

A function, class or method whose name appears nowhere in ``src/sphskel``
outside its own body is reached only from outside: by a command name, by a
test, or by the benchmark's tracer.  Each such name is a decision, kept for
the reason given in ``UNREFERENCED``; a name that loses its last caller
shows up here as a change to that set.  The scan matches bare names, so a
method counts as referenced when any attribute of that name is read.
Dunder methods, which Python calls, and the NamedTuple ``_make`` overrides,
which ``_replace`` calls, are not listed.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sphskel"

COMMANDS = "a command handler, which cli.main looks up by the command's name"
ACCEPTANCE = "library API through which the acceptance tests state the paper's properties"
TRACED = "bound by the benchmark tracer's LAYERS"

UNREFERENCED = {
    "cli.cmd_catalog_list": COMMANDS,
    "cli.cmd_compute_p": COMMANDS,
    "cli.cmd_fano": COMMANDS,
    "cli.cmd_smoothness": COMMANDS,
    "cli.cmd_verify": COMMANDS,
    "fano.build_fano": ACCEPTANCE,
    "fano.validate_reflexive": ACCEPTANCE,
    "pinv.PInvariantReport.finite": ACCEPTANCE,
    "roots.cartan_matrix": ACCEPTANCE,
    "skeleton.elementary": ACCEPTANCE,
    "skeleton.equivalent": ACCEPTANCE,
    "skeleton.is_complete": ACCEPTANCE,
    "skeleton.product": ACCEPTANCE,
    "skeleton.reduced_elementary": ACCEPTANCE,
    "geometry.point_in_hull": TRACED,
    "geometry.vertex_enumerate": TRACED,
    "linalg.solve_linear": TRACED,
    "roots.half_sum": TRACED,
    "serialize.augmented_to_doc": "writes the augmented documents that tests read back",
    "catalog.table_tasks": "the (spec, marking) list that tests/oracles.py and perfbench/record.py read",
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The top-level functions and classes, and the methods of those
    classes, as (qualified name, node)."""
    out = []
    for node in tree.body:
        if isinstance(node, _DEFS):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, _FUNCTIONS)
                ]
    return out


def _names(node: ast.AST, skip: frozenset = frozenset()) -> Counter:
    """Every Name id and Attribute attr under node, not entering skip."""
    found: Counter = Counter()
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        stack += [c for c in ast.iter_child_nodes(n) if c not in skip]
    return found


def _unreferenced(sources: dict[str, str]) -> set[str]:
    """``module.qualname`` of each definition whose name appears nowhere in
    sources but in its own body (a class's body without its methods)."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    out = set()
    for module, tree in trees.items():
        defs = _definitions(tree)
        methods = frozenset(node for name, node in defs if "." in name)
        for name, node in defs:
            bare = name.rsplit(".", 1)[-1]
            if bare == "_make" or bare.startswith("__") and bare.endswith("__"):
                continue
            if everywhere[bare] == _names(node, methods)[bare]:
                out.add(f"{module}.{name}")
    return out


def test_the_unreferenced_definitions_are_pinned():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _unreferenced(sources) == set(UNREFERENCED)


def test_the_scan_counts_references_from_anywhere_but_the_own_body():
    source = (
        "class A(NamedTuple):\n"
        "    x: int\n"
        "    @classmethod\n"
        "    def _make(cls, it): return cls(*it)\n"
        "    def __str__(self): return 'a'\n"
        "    def used(self): return A(self.helper())\n"
        "    def helper(self): return 1\n"
        "    def lonely(self): return self.lonely()\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def called(): return 0\n"
        "def caller(): return called()\n"
        "def in_table(): pass\n"
        "TABLE = {'k': in_table}\n"
    )
    other = "from .m import A\ndef reads(a): return a.used()\n"
    assert _unreferenced({"m": source, "n": other}) == {
        "m.A.lonely", "m.recursive", "m.caller", "n.reads"
    }
