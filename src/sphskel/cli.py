"""Command line entry point.

Commands:
  compute-p     invariant of a skeleton file or a catalog family marking
  verify        recompute the appendix tables / equality cases
  fano          reflexivity, curves, and Mukai report for augmented data
  smoothness    localized equality test at a divisor subset
  catalog-list  list the symmetric families and their parameter ranges
                (``catalog.listing``; this module holds no family data)

Exit codes: 0 success, 1 verification mismatch, 2 invalid input, 3 internal
error (one ``internal error: ...`` line on stderr), which covers an optimum
that fails ``pinv.compute_p``'s certificate check and an infeasible
invariant LP.

The argument parsers are built once per process; ``main`` can be called
any number of times in one process, and each call parses and dispatches
anew.  When the first argument names a command, that command's own parser
reads the rest, skipping the top-level pass; the result, and every help,
usage and error text, is what ``parse_args`` on the top-level parser gives.
Output is deterministic byte for byte: JSON goes out through
``serialize.dumps`` (stdout) and ``serialize.dump`` (``verify --json``).
``verify`` runs one serial sweep over the catalog; it still accepts
``--jobs N``, and ignores it.  It builds the JSON rows only under
``--json`` and the CSV only under ``--csv``; the CSV report holds the
tables, so ``verify equality --csv`` is invalid input, and so is a report
path that cannot be written (``cannot write``, as an input that cannot be
read is ``cannot read``), found before the sweep.  A write that still fails
later is reported the same way after both sections are printed and the
other report is written; a mismatch then still exits 1.

Each command is often one query per process, so importing this module is
most of its cost.  The package's records are NamedTuples, whose classes
are built without generating code, and no module loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import sys
from functools import cache
from typing import Callable, TextIO

from . import catalog, fano, pinv, serialize
from .skeleton import InvalidSkeleton

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return json.loads(text)
    except OSError as exc:
        raise serialize.DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise serialize.DocumentError(str(exc)) from exc
    except RecursionError as exc:  # the parser recurses once per level
        raise serialize.DocumentError(
            f"$: arrays and objects nested {_nesting_depth(text)} levels deep, "
            "too deep to parse"
        ) from exc


def _nesting_depth(text: str) -> int:
    """How deep the arrays and objects of JSON ``text`` nest.  Each token is
    a whole string, whose brackets do not count, or one bracket; a string
    left open runs to the end of the text."""
    depth = deepest = 0
    for match in re.finditer(r'"(?:\\.|[^"\\])*"?|[][{}]', text):
        token = match.group()
        if token in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif token in "]}":
            depth -= 1
    return deepest


def _emit(doc: dict) -> None:
    print(serialize.dumps(doc))


def _invalid_input(exc: ValueError, args: argparse.Namespace) -> int:
    """Report rejected input: the error document on stdout under --json,
    else one ``violation:`` line per violation on stderr."""
    violations = getattr(exc, "violations", [str(exc)])
    if args.json:
        _emit({"error": "invalid input", "violations": violations})
    else:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
    return EXIT_INVALID


def _report_doc(report: pinv.PInvariantReport) -> dict:
    doc = {
        "p": serialize.format_rational(report.p_value),
        "bound": report.bound,
        "gap": serialize.format_rational(report.gap),
        "equality": report.is_equality,
    }
    if report.theta is not None:
        doc["theta"] = [serialize.format_rational(t) for t in report.theta]
    if report.dual is not None:
        doc["dual"] = [serialize.format_rational(t) for t in report.dual]
        doc["certificate"] = True  # pinv.compute_p checked it
    return doc


def _print_report(report: pinv.PInvariantReport) -> None:
    doc = _report_doc(report)
    print(f"p = {doc['p']}")
    print(f"bound = {doc['bound']}")
    print(f"gap = {doc['gap']}")
    print(f"equality: {'yes' if doc['equality'] else 'no'}")
    if "theta" in doc:
        print("theta = (" + ", ".join(doc["theta"]) + ")")
    if "dual" in doc:
        print("dual = (" + ", ".join(doc["dual"]) + ")")
        print("certificate: ok")


def cmd_compute_p(args: argparse.Namespace) -> int:
    try:
        if args.family:
            spec = catalog.FamilySpec.parse(args.family)
            if args.mark is None:
                raise catalog.ParameterOutOfRange("--family needs --mark")
            sk = catalog.mark(spec, args.mark)
        else:
            sk = serialize.skeleton_from_doc(_load_json(args.path))
        report = pinv.compute_p(sk)
    except ValueError as exc:
        return _invalid_input(exc, args)
    if args.json:
        _emit(_report_doc(report))
    elif args.csv:
        print("p_num,p_den,bound,equality")
        p = report.p_value
        print(
            f"{p.numerator if p is not None else 'inf'},"
            f"{p.denominator if p is not None else ''},"
            f"{report.bound},{'yes' if report.is_equality else 'no'}"
        )
    else:
        _print_report(report)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.csv is not None and args.what == "equality":
        print(
            "violation: --csv writes the tables report, which verify equality "
            "does not make",
            file=sys.stderr,
        )
        return EXIT_INVALID
    paths = [path for path in (args.csv, args.json) if path is not None]
    unwritable = [path for path in paths if not _writable(path)]
    if unwritable:  # every such path is reported
        return EXIT_INVALID
    doc: dict = {}
    failures = 0
    unwritten = False
    rows = catalog.verify_catalog(max_rank=args.max_rank)
    if not rows:
        print(
            f"violation: --max-rank {args.max_rank} selects no catalog marking",
            file=sys.stderr,
        )
        return EXIT_INVALID
    if args.what in ("tables", "all"):
        bad = [r for r in rows if not r.table_match]
        failures += len(bad)
        print(f"tables: {len(rows)} rows, {len(bad)} mismatches")
        for r in bad:
            print(
                f"  MISMATCH {r.family} {r.params} gamma_{r.marking}: "
                f"expected {serialize.format_rational(r.expected)}, "
                f"got {serialize.format_rational(r.p_value)}"
            )
        if args.json is not None:
            doc["tables"] = serialize.table_rows_to_json(rows)
        if args.csv is not None and not _write_report(
            args.csv, lambda handle: handle.write(serialize.table_rows_to_csv(rows))
        ):
            unwritten = True
    if args.what in ("equality", "all"):
        bad = [r for r in rows if not r.equality_match]
        failures += len(bad)
        listed = sum(1 for r in rows if r.listed)
        print(
            f"equality: {len(rows)} markings, {listed} listed cases, "
            f"{len(bad)} mismatches"
        )
        for r in bad:
            print(
                f"  MISMATCH {r.family} {r.params} gamma_{r.marking}: "
                f"listed={r.listed} equality={r.is_equality} theta_ok={r.theta_ok}"
            )
        if args.json is not None:
            doc["equality"] = serialize.equality_rows_to_json(rows)
    if args.json is not None and not _write_report(
        args.json, lambda handle: serialize.dump(doc, handle)
    ):
        unwritten = True
    if failures:
        return EXIT_MISMATCH
    return EXIT_INVALID if unwritten else EXIT_OK


def _writable(path: str) -> bool:
    """Whether the report file ``path`` can be created or overwritten, found
    without creating it, so a run that stops before its reports leaves no
    file.  A path that cannot, the empty one too, is reported as ``cannot
    write``."""
    parent = os.path.dirname(path) or "."
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT if not os.path.exists(parent) else errno.ENOTDIR
    elif not (
        os.access(path, os.W_OK)
        if os.path.exists(path)
        else os.access(parent, os.W_OK | os.X_OK)
    ):
        code = errno.EACCES
    else:
        return True
    print(f"violation: cannot write {path}: {os.strerror(code)}", file=sys.stderr)
    return False


def _write_report(path: str, write: Callable[[TextIO], object]) -> bool:
    """Write the report file ``path`` through ``write(handle)``.  A write
    that fails is reported as ``cannot write``, as ``_load_json`` reports a
    file that cannot be read, and gives False."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            write(handle)
    except OSError as exc:
        print(f"violation: cannot write {path}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def cmd_fano(args: argparse.Namespace) -> int:
    try:
        aug = serialize.augmented_from_doc(_load_json(args.path))
        violations, warnings = fano.validate_augmentation(aug)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        try:
            invariant = pinv.compute_p(aug.skeleton)
        except InvalidSkeleton as exc:
            violations += exc.violations
        if not violations:
            reflexive, fp = fano.reflexive_polytopes(aug)
            violations += reflexive
        if violations:
            for v in violations:
                print(f"violation: {v}", file=sys.stderr)
            if args.json:
                _emit({"error": "invalid data", "violations": violations})
            return EXIT_INVALID
        # The rank criterion reads only the masks and u: a document that
        # fails it exits before the curve pass.
        fp = fano.require_q_factorial(fano.require_supported(fp))
        curves = fano.curve_degrees(fp)
        mukai = fano.mukai_check(fp, curves, invariant)
    except serialize.DocumentError as exc:
        return _invalid_input(exc, args)
    except ValueError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_INVALID
    fmt = serialize.format_rational
    texts: dict[tuple, list[str]] = {}

    def vec(v: tuple) -> list[str]:  # one shared list of texts per distinct vector
        out = texts.get(v)
        if out is None:
            out = texts[v] = [fmt(x) for x in v]
        return out

    doc = {
        "reflexive": True,
        "vertices_Q": [vec(v) for v in fp.q.vertices],
        "vertices_Qstar": [vec(v) for v in fp.qstar.vertices],
        "supported": [vec(fp.qstar.vertices[i]) for i in fp.supported],
        "dv_curves": [
            {"divisor": d, "vertex": vec(v), "degree": deg}
            for d, v, deg in curves.dv_curves
        ],
        "edge_curves": [
            {"v": vec(v), "w": vec(w), "chi": vec(chi), "degree": deg}
            for v, w, chi, deg in curves.edge_curves
        ],
        "iota": curves.iota,
        "epsilon": fmt(mukai.epsilon),
        "picard": mukai.picard,
        "dim": mukai.dim,
        "mukai_lhs": fmt(mukai.mukai_lhs),
        "mukai_holds": mukai.holds,
        "p": fmt(mukai.p_skeleton),
        "p_polytope_route": fmt(mukai.p_polytope),
        "p_cross_check": mukai.cross_check,
        "color_vertex_check": fano.color_vertex_check(fp),
    }
    if args.json:
        _emit(doc)
    else:
        print("reflexive: yes")
        print(f"supported vertices: {doc['supported']}")
        for entry in doc["dv_curves"]:
            print(
                f"curve ({entry['divisor']}, {entry['vertex']}): "
                f"degree {entry['degree']}"
            )
        for entry in doc["edge_curves"]:
            print(f"edge curve {entry['v']} -- {entry['w']}: degree {entry['degree']}")
        print(f"iota = {doc['iota']}")
        print(f"epsilon = {doc['epsilon']}")
        print(f"picard = {doc['picard']}, dim = {doc['dim']}")
        print(
            f"mukai: {doc['mukai_lhs']} <= {doc['dim']} "
            f"{'holds' if doc['mukai_holds'] else 'FAILS'}"
        )
        print(f"p = {doc['p']} (polytope route {doc['p_polytope_route']}, "
              f"{'consistent' if doc['p_cross_check'] else 'INCONSISTENT'})")
        print(f"color vertex check: {'ok' if doc['color_vertex_check'] else 'FAILED'}")
    return EXIT_OK


def cmd_smoothness(args: argparse.Namespace) -> int:
    try:
        sk = serialize.skeleton_from_doc(_load_json(args.path))
        ids = [part for part in args.divisors.split(",") if part] if args.divisors else []
        local, report = pinv.smoothness(sk, ids)
    except ValueError as exc:
        return _invalid_input(exc, args)
    smooth = report.is_equality
    doc = {
        "localized_root_system": str(local.root_system),
        "localized_sigma": [list(g.coeffs) for g in local.sigma],
        "localized_colors": len(local.colors),
        "localized_gamma": len(local.gamma),
        "p": serialize.format_rational(report.p_value),
        "bound": report.bound,
        "smooth": smooth,
    }
    if args.json:
        _emit(doc)
    else:
        print(f"localized root system: {doc['localized_root_system']}")
        print(f"localized sigma: {doc['localized_sigma']}")
        print(f"p(R_I) = {doc['p']}, local bound = {doc['bound']}")
        print(f"smooth: {'yes' if smooth else 'no'}")
    return EXIT_OK


def cmd_catalog_list(args: argparse.Namespace) -> int:
    lines = catalog.listing()
    if args.json:
        _emit({"families": [{"spec": s, "conditions": c} for s, c in lines]})
    else:
        for specname, cond in lines:
            print(f"{specname:18s} {cond}")
        print("\nmarkings: --mark k selects gamma_k in the family's sigma order")
    return EXIT_OK


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each command's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="sphskel",
        description="Exact p-invariant computations on spherical skeletons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute-p", help="compute the invariant")
    p_compute.add_argument("path", nargs="?", help="skeleton JSON document")
    p_compute.add_argument("--family", help="catalog family spec, e.g. 2:G2")
    p_compute.add_argument("--mark", type=int, help="marking index gamma_k")
    _common_flags(p_compute)
    p_compute.add_argument("--csv", action="store_true", help="CSV output")

    p_verify = sub.add_parser("verify", help="recompute the appendix tables")
    p_verify.add_argument("what", choices=["tables", "equality", "all"])
    p_verify.add_argument("--max-rank", type=int, default=8)
    # Accepted and ignored, so that existing command lines keep working.
    p_verify.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    p_verify.add_argument("--json", help="write a JSON report to this path")
    p_verify.add_argument("--csv", help="write a CSV report to this path")

    p_fano = sub.add_parser("fano", help="reflexive polytope and Mukai report")
    p_fano.add_argument("path", help="augmented JSON document")
    _common_flags(p_fano)

    p_smooth = sub.add_parser("smoothness", help="localized equality test")
    p_smooth.add_argument("path", help="skeleton JSON document")
    p_smooth.add_argument("--divisors", default="", help="comma separated ids")
    _common_flags(p_smooth)

    p_list = sub.add_parser("catalog-list", help="list the symmetric families")
    _common_flags(p_list)
    return parser, sub.choices


def _parser() -> argparse.ArgumentParser:
    """The top-level parser."""
    return _parsers()[0]


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, in one parse where it can be.

    When ``argv[0]`` names a command, its own parser reads the rest, as the
    top-level parser's subcommand action would; what it leaves over is
    reported by the top-level parser, as ``parse_args`` reports it.  Any
    other argv (empty, help, an unknown command) takes the two-level parse,
    so every help, usage and error text is argparse's own."""
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = _parse_args(argv)
    if args.command == "compute-p":
        if not args.path and not args.family:
            parser.error("compute-p needs a path or --family")
        if args.path and args.family:
            parser.error("compute-p takes a path or --family, not both")
        if args.mark is not None and not args.family:
            parser.error("compute-p --mark needs --family")
    # Command "x-y" runs cmd_x_y, looked up now rather than when the parser
    # was built, so the handler in effect at call time runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except Exception as exc:
        # Exit 1 means "table mismatch"; anything unforeseen gets its own code.
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="JSON output")


if __name__ == "__main__":
    sys.exit(main())
