"""Command line entry point.

Commands:
  compute-p     invariant of a skeleton file or a catalog family marking
  verify        recompute the appendix tables / equality cases
  fano          reflexivity, curves, and Mukai report for augmented data
  smoothness    localized equality test at a divisor subset
  catalog-list  list the symmetric families and their parameter ranges
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import catalog, fano, lp, pinv, serialize
from .skeleton import InvalidSkeleton, SubsetNotInDelta, localize, validate

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID = 2


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise serialize.DocumentError(f"cannot read {path}: {exc.strerror}") from exc


def _emit(doc: dict, args: argparse.Namespace) -> None:
    if getattr(args, "meta", False):
        doc = dict(doc)
        doc["meta"] = {"tool": "sphskel", "timestamp": int(time.time())}
    print(json.dumps(doc, indent=2, sort_keys=True))


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
        result = lp.LpResult(
            lp.OPTIMAL, report.p_value - report.base, report.theta, report.dual
        )
        doc["certificate"] = lp.check_certificate(report.problem, result)
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
        print(f"certificate: {'ok' if doc['certificate'] else 'FAILED'}")


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
    except (
        InvalidSkeleton,
        catalog.ParameterOutOfRange,
        serialize.DocumentError,
        ValueError,
    ) as exc:
        violations = getattr(exc, "violations", [str(exc)])
        if args.json:
            _emit({"error": "invalid input", "violations": violations}, args)
        else:
            for v in violations:
                print(f"violation: {v}", file=sys.stderr)
        return EXIT_INVALID
    if args.json:
        _emit(_report_doc(report), args)
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
    jobs = args.jobs or min(os.cpu_count() or 1, 8)
    doc: dict = {}
    failures = 0
    tables, equality = catalog.verify_catalog(
        max_rank=args.max_rank, jobs=jobs, with_certificates=bool(args.json)
    )
    if args.what in ("tables", "all"):
        rows = tables
        bad = [r for r in rows if not r.match]
        failures += len(bad)
        print(f"tables: {len(rows)} rows, {len(bad)} mismatches")
        for r in bad:
            print(
                f"  MISMATCH {r.family} {r.params} gamma_{r.marking}: "
                f"expected {serialize.format_rational(r.expected)}, "
                f"got {serialize.format_rational(r.actual)}"
            )
        doc["tables"] = serialize.table_rows_to_json(rows)
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(serialize.table_rows_to_csv(rows))
    if args.what in ("equality", "all"):
        rows = equality
        bad = [r for r in rows if not r.match]
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
        doc["equality"] = serialize.equality_rows_to_json(rows)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_fano(args: argparse.Namespace) -> int:
    try:
        aug = serialize.augmented_from_doc(_load_json(args.path))
        violations, warnings = fano.validate_augmentation(aug)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        violations += [v for v in validate(aug.skeleton)]
        reflexive = fano.validate_reflexive(aug) if not violations else []
        if violations or reflexive:
            for v in violations + reflexive:
                print(f"violation: {v}", file=sys.stderr)
            if args.json:
                _emit({"error": "invalid data", "violations": violations + reflexive}, args)
            return EXIT_INVALID
        fp = fano.build_fano(aug, check=False)
        curves = fano.curve_degrees(fp)
        mukai = fano.mukai_check(fp)
    except (serialize.DocumentError, fano.FanoDataError, ValueError) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_INVALID
    fmt = serialize.format_rational
    doc = {
        "reflexive": True,
        "vertices_Q": [[fmt(x) for x in v] for v in fp.q.vertices],
        "vertices_Qstar": [[fmt(x) for x in v] for v in fp.qstar.vertices],
        "supported": [[fmt(x) for x in fp.qstar.vertices[i]] for i in fp.supported],
        "dv_curves": [
            {"divisor": d, "vertex": [fmt(x) for x in v], "degree": deg}
            for d, v, deg in curves.dv_curves
        ],
        "edge_curves": [
            {
                "v": [fmt(x) for x in v],
                "w": [fmt(x) for x in w],
                "chi": [fmt(x) for x in chi],
                "degree": deg,
            }
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
        _emit(doc, args)
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
        local = localize(sk, ids)
        report = pinv.compute_p(local)
    except (
        SubsetNotInDelta,
        InvalidSkeleton,
        serialize.DocumentError,
        ValueError,
    ) as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_INVALID
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
        _emit(doc, args)
    else:
        print(f"localized root system: {doc['localized_root_system']}")
        print(f"localized sigma: {doc['localized_sigma']}")
        print(f"p(R_I) = {doc['p']}, local bound = {doc['bound']}")
        print(f"smooth: {'yes' if smooth else 'no'}")
    return EXIT_OK


def cmd_catalog_list(args: argparse.Namespace) -> int:
    lines = [
        ("2:<type>", "group embeddings, type A1..G2 (e.g. 2:A3, 2:E6)"),
        ("3:l=..,m=..", "l >= 1, m >= 0"),
        ("4:m=..", "m >= 0"),
        ("5:m=..", "m >= 2"),
        ("6:m=..", "m >= 1"),
        ("8:l=..", "l >= 1"),
        ("9:l=..,m=..", "(m = 0, l >= 2) or (m >= 1, l >= 1)"),
        ("10/11:l=..,m=..", "(m = 0, l >= 2) or (m >= 1, l >= 1)"),
        ("12:m=..", "m >= 2"),
        ("13:m=..", "m >= 2"),
        ("14:l=..", "l >= 2"),
        ("15:l=..,m=..", "(0,>=3) (1,>=2) (>=1,>=2) (0 with m>=3) as (l,m)"),
        ("16/1:m=..", "m >= 1"),
        ("16/2:m=..", "m >= 1"),
        ("17:m=..", "m >= 1"),
    ] + [(fam, "fixed") for fam in catalog.FIXED_FAMILIES]
    if args.json:
        _emit({"families": [{"spec": s, "conditions": c} for s, c in lines]}, args)
    else:
        for specname, cond in lines:
            print(f"{specname:18s} {cond}")
        print("\nmarkings: --mark k selects gamma_k in the family's sigma order")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
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
    p_compute.set_defaults(func=cmd_compute_p)

    p_verify = sub.add_parser("verify", help="recompute the appendix tables")
    p_verify.add_argument("what", choices=["tables", "equality", "all"])
    p_verify.add_argument("--max-rank", type=int, default=8)
    p_verify.add_argument("--jobs", type=int, default=None)
    p_verify.add_argument("--json", help="write a JSON report to this path")
    p_verify.add_argument("--csv", help="write a CSV report to this path")
    p_verify.set_defaults(func=cmd_verify)

    p_fano = sub.add_parser("fano", help="reflexive polytope and Mukai report")
    p_fano.add_argument("path", help="augmented JSON document")
    _common_flags(p_fano)
    p_fano.set_defaults(func=cmd_fano)

    p_smooth = sub.add_parser("smoothness", help="localized equality test")
    p_smooth.add_argument("path", help="skeleton JSON document")
    p_smooth.add_argument("--divisors", default="", help="comma separated ids")
    _common_flags(p_smooth)
    p_smooth.set_defaults(func=cmd_smoothness)

    p_list = sub.add_parser("catalog-list", help="list the symmetric families")
    _common_flags(p_list)
    p_list.set_defaults(func=cmd_catalog_list)

    args = parser.parse_args(argv)
    if args.command == "compute-p" and not args.path and not args.family:
        parser.error("compute-p needs a path or --family")
    return args.func(args)


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="JSON output")
    p.add_argument("--csv", action="store_true", help="CSV output")
    p.add_argument("--meta", action="store_true", help="include tool metadata")


if __name__ == "__main__":
    sys.exit(main())
