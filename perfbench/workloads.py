"""The benchmark's workloads: seeded inputs, and why each workload exists.

Nothing here imports sphskel.  Every workload is a list of passes; a pass
is a list of operations, and an operation is one in-process invocation of
``sphskel.cli.main``.  The program sees only the argument vectors and the
JSON documents built here (or stored under ``data/``), never the seed.

Layers are the modules of ``src/sphskel``: roots, sphroots, skeleton,
catalog, pinv, lp, linalg, geometry, fano, serialize and cli.

Prediction table.  Each row names a layer metric of the traced run, the
end-to-end metric it should move, and where.  "all" means pass_norm_s of
that workload and the call times printed beside it.

  roots.coroot_matrix / half_sum / positive_roots / parabolic_count
      -> all of catalog_sweep (about 162k coroot_matrix and 14,282
         half_sum calls per table sweep); less on query_mix; no change on
         fano_polytopes.
  sphroots.*, skeleton.make_skeleton / validate, catalog.generate / mark
      -> catalog_sweep (1,154 generate and 2,021 validate calls for 867
         table tasks); skeleton.localize -> query_mix.
  pinv.compute_p, pinv.validate_per_compute, pinv.theta_feasible
      -> catalog_sweep and query_mix.
  lp.solve / solve_free / check_certificate
      -> catalog_sweep and query_mix (phase 2 only, tableaux of at most 11
         rows); fano_polytopes (phase 1 and infeasible solves).
  linalg.rank / solve_linear, geometry.vertex_enumerate / point_in_hull /
  origin_interior, fano.*
      -> fano_polytopes only.
  serialize.*, cli.*
      -> query_mix (a parse and a print per request); a small share of
         catalog_sweep (report emission).
  Caching work moved to import time shows in setup_s; caches kept in
  memory show in peak_rss_mb.
"""

from __future__ import annotations

import copy
import gzip
import hashlib
import json
import random
from dataclasses import dataclass
from itertools import product as iproduct
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
POOL_PATH = DATA / "query_pool.json.gz"
REFERENCES_PATH = DATA / "references.json"

# Argument placeholders, replaced by paths in the run's work directory.
DOC = "{doc}"
JSON_OUT = "{json}"
CSV_OUT = "{csv}"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and how to check it.

    ``ref`` names the entry of ``data/references.json`` recorded at
    commit 4913f7c; exit code, stdout and written reports must match it
    byte for byte.  ``ref`` is None for malformed input, which is checked by
    contract instead: exit 2 with a violation list.  ``doc`` is the JSON
    text behind the ``{doc}`` argument; None with ``{doc}`` in ``argv``
    means a path that does not exist.
    """

    kind: str
    argv: tuple[str, ...]
    doc: str | None = None
    ref: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tail_pct: float  # percentile printed as the call tail; 100: slowest call per pass


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def input_digest(passes: list[list[Op]]) -> str:
    """Digest of everything a run feeds the program, in order."""
    h = hashlib.sha256()
    for ops in passes:
        for op in ops:
            h.update(json.dumps([op.kind, op.argv, op.doc]).encode())
    return h.hexdigest()[:32]


# ---------------------------------------------------------------------------
# catalog_sweep: the paper's headline computation.  A pass is two calls.
# `verify all --max-rank 8` checks every catalog marking up to rank 8 (867
# table rows, each LP solved once for the table and once for the equality
# report) and writes the JSON and CSV reports, with the CLI's default
# --jobs.  `verify tables --max-rank 8 --jobs 1` is the single-process
# baseline of the table half; the gap between the two is the evidence for
# keeping or dropping the pool.  roots, catalog, skeleton and pinv do
# nearly all the work; geometry and fano stay idle, so a polytope change
# should not move this workload.  The input is the whole catalog, so the
# seed changes nothing.  Traced runs use --jobs 1 throughout, because
# spans in pool workers never reach this process; the table call then
# shows the table half alone (867 compute_p, 1,154 generate, 2,021
# validate calls).

CATALOG_SWEEP = Workload(
    "catalog_sweep",
    "verify all --max-rank 8 (default jobs) then verify tables --jobs 1: every catalog "
    "marking; loads roots, catalog, skeleton, pinv; geometry and fano idle",
    100.0,
)


def catalog_sweep(seed: int, trace: bool) -> list[list[Op]]:
    verify_all = ("verify", "all", "--max-rank", "8", "--json", JSON_OUT, "--csv", CSV_OUT)
    if trace:
        verify_all += ("--jobs", "1")
    tables = ("verify", "tables", "--max-rank", "8", "--jobs", "1", "--csv", CSV_OUT)
    return [
        [
            Op("verify_all", verify_all, ref="catalog:verify_all"),
            Op("verify_tables", tables, ref="catalog:verify_tables"),
        ]
    ]


# query_mix: one client in a closed loop sends independent requests, each
# one in-process CLI call.  A pass is a block of 100 requests with a fixed
# mix: 50 compute-p --family over random catalog markings, 30 compute-p
# --json on generated skeleton documents (catalog bases, sometimes
# products, plus 0-3 random Gamma rows), 10 smoothness --divisors, and 10
# malformed documents, two of each class below.  serialize and cli run on
# every request; the root data spread over many distinct and product root
# systems; lp sees small tableaux and many unbounded outcomes (p = +inf).
# geometry and fano stay idle.
# Out-of-range sp indices and missing files escape as tracebacks at commit
# 4913f7c; they are kept, and show as failures.

QUERY_MIX = Workload(
    "query_mix",
    "closed loop of independent compute-p, smoothness and malformed requests; "
    "loads serialize, cli, skeleton.localize and small LPs",
    99.0,
)

QUERY_BLOCK = (("family", 50), ("doc", 30), ("smooth", 10), ("malformed", 10))
MALFORMED_CLASSES = (
    "wrong_type",
    "missing_field",
    "unknown_field",
    "sp_out_of_range",
    "missing_file",
)
QUERY_STREAM_BLOCKS = 40  # distinct blocks per seed; a long run cycles them
QUERY_TRACE_BLOCKS = 8


def load_pool() -> dict:
    with gzip.open(POOL_PATH, "rt", encoding="utf-8") as handle:
        return json.load(handle)


def _malformed(rng: random.Random, klass: str, doc: dict) -> str | None:
    doc = copy.deepcopy(doc)
    if klass == "missing_file":
        return None
    if klass == "wrong_type":
        choices = [("sp", "1"), ("root_system", 7), ("schema_version", "1")]
        if doc["colors"]:
            choices.append(("colors.m", "1"))
        if doc["sigma"]:
            choices.append(("sigma.coeffs", "0"))
        field, value = rng.choice(choices)
        if field == "colors.m":
            rng.choice(doc["colors"])["m"] = value
        elif field == "sigma.coeffs":
            rng.choice(doc["sigma"])["coeffs"] = value
        else:
            doc[field] = value
    elif klass == "missing_field":
        if doc["colors"] and rng.random() < 0.5:
            del rng.choice(doc["colors"])[rng.choice(["id", "kind", "moved_by", "pairings", "m"])]
        else:
            del doc[rng.choice(["root_system", "sigma", "sp", "colors", "gamma"])]
    elif klass == "unknown_field":
        target = rng.choice([doc] + doc["colors"] + doc["sigma"])
        target[f"x_{rng.randrange(1000)}"] = 1
    elif klass == "sp_out_of_range":
        rank = len(doc["sigma"][0]["coeffs"]) if doc["sigma"] else 0
        doc["sp"] = sorted(set(doc["sp"]) | {rank + 1 + rng.randrange(3)})
    else:
        raise ValueError(klass)
    return _dumps(doc)


def _shuffled_cycle(rng: random.Random, n: int):
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


def query_mix(seed: int, trace: bool, pool: dict | None = None) -> list[list[Op]]:
    """Blocks of requests.  Markings, documents and subsets are drawn
    without replacement until their pool is used up, so every run of a
    few seconds covers each pool nearly evenly and seeds differ in order
    and in the malformed mutations, not in the amount of work."""
    pool = pool if pool is not None else load_pool()
    rng = random.Random(seed)
    markings, docs, smooth = pool["markings"], pool["docs"], pool["smooth"]
    draw = {
        "family": _shuffled_cycle(rng, len(markings)),
        "doc": _shuffled_cycle(rng, len(docs)),
        "smooth": _shuffled_cycle(rng, len(smooth)),
    }
    blocks = []
    for _ in range(QUERY_TRACE_BLOCKS if trace else QUERY_STREAM_BLOCKS):
        block: list[Op] = []
        for kind, count in QUERY_BLOCK:
            for t in range(count):
                if kind == "family":
                    i = next(draw[kind])
                    label, k = markings[i]
                    argv = ("compute-p", "--family", label, "--mark", str(k))
                    block.append(Op(kind, argv, ref=f"family:{i}"))
                elif kind == "doc":
                    i = next(draw[kind])
                    argv = ("compute-p", DOC, "--json")
                    block.append(Op(kind, argv, _dumps(docs[i]), f"doc:{i}"))
                elif kind == "smooth":
                    i = next(draw[kind])
                    j, ids = smooth[i]
                    argv = ("smoothness", DOC, "--divisors", ids)
                    block.append(Op(kind, argv, _dumps(docs[j]), f"smooth:{i}"))
                else:
                    klass = MALFORMED_CLASSES[t % len(MALFORMED_CLASSES)]
                    text = _malformed(rng, klass, rng.choice(docs))
                    argv = ("compute-p", DOC, "--json")
                    block.append(Op(f"malformed:{klass}", argv, text))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# fano_polytopes: fano --json on the paper's two augmented examples and on
# generated toric data: P^n (n = 2..7), (P^1)^n (n = 2..6), P^2 x P^2,
# (P^2)^3, and the non-simplicial 3- and 4-cube, which must exit 2 at the
# rank criterion.  The only workload where vertex_enumerate (C(m, d)
# constraint subsets), linalg.rank, phase-1 and infeasible LPs and the fano
# passes dominate.  The toric cases have empty Sigma, so roots and catalog
# are bypassed.  The 4-cube takes about half a pass; the 5-cube (minutes)
# is left out for run length.  The seed sets the case order of each pass.

FANO_POLYTOPES = Workload(
    "fano_polytopes",
    "fano --json on the paper's examples, toric P^n, (P^1)^n, products and cubes; "
    "loads geometry, linalg.rank, phase-1 LPs and fano; roots idle",
    100.0,
)

FANO_PASSES = 8  # distinct case orders per seed


def _toric_doc(rays: list[tuple[int, ...]], dim: int) -> dict:
    ids = [f"D{i}" for i in range(len(rays))]
    return {
        "schema_version": 1,
        "skeleton": {
            "schema_version": 1,
            "root_system": [],
            "sigma": [],
            "sp": [],
            "colors": [],
            "gamma": [{"id": i, "pairings": []} for i in ids],
        },
        "lattice_rank": dim,
        "sigma_in_M": [],
        "rho_prime": {i: list(r) for i, r in zip(ids, rays)},
        "m": {i: 1 for i in ids},
        "coroot_on_M": {},
    }


def _projective_rays(n: int) -> list[tuple[int, ...]]:
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    return rays + [tuple([-1] * n)]


def _product_rays(factors: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    dims = [len(f[0]) for f in factors]
    total = sum(dims)
    out, offset = [], 0
    for rays, d in zip(factors, dims):
        for r in rays:
            out.append((0,) * offset + r + (0,) * (total - offset - d))
        offset += d
    return out


def fano_cases() -> dict[str, tuple[str, str | None]]:
    """Case name -> (document JSON, text stderr must contain or None)."""
    cases: dict[str, tuple[str, str | None]] = {}
    for name in ("ex32_fano", "ex61_fano"):
        doc = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))
        cases[name] = (_dumps(doc), None)
    for n in range(2, 8):
        cases[f"P{n}"] = (_dumps(_toric_doc(_projective_rays(n), n)), None)
    for n in range(2, 7):
        rays = _product_rays([_projective_rays(1)] * n)
        cases[f"P1^{n}"] = (_dumps(_toric_doc(rays, n)), None)
    for k in (2, 3):
        rays = _product_rays([_projective_rays(2)] * k)
        cases[f"P2^{k}"] = (_dumps(_toric_doc(rays, 2 * k)), None)
    for d in (3, 4):
        corners = [tuple(c) for c in iproduct((-1, 1), repeat=d)]
        cases[f"cube{d}"] = (_dumps(_toric_doc(corners, d)), "rank criterion")
    return cases


def fano_polytopes(seed: int, trace: bool) -> list[list[Op]]:
    rng = random.Random(seed)
    cases = fano_cases()
    names = sorted(cases)
    passes = []
    for _ in range(1 if trace else FANO_PASSES):
        order = names[:]
        rng.shuffle(order)
        passes.append(
            [Op("fano", ("fano", DOC, "--json"), cases[n][0], f"fano:{n}") for n in order]
        )
    return passes


WORKLOADS = {
    w.name: (w, build)
    for w, build in (
        (CATALOG_SWEEP, catalog_sweep),
        (QUERY_MIX, query_mix),
        (FANO_POLYTOPES, fano_polytopes),
    )
}
