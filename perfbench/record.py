"""Record the query pool and the reference outputs from the current program.

    python3 perfbench/record.py

Run once, at the commit whose outputs are the reference; a later change
that must keep outputs byte-identical is checked against these files and
must not re-record them.  Writes ``data/query_pool.json.gz`` (catalog
markings, generated skeleton documents, smoothness divisor subsets) and
``data/references.json`` (exit code and digests of stdout and of written
reports, per operation).  Generated documents follow the recipe of the
randomized tests: a catalog base, a product of two bases three times in
ten, plus 0-3 random Gamma rows.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
from dataclasses import replace

import run
import workloads
from workloads import DOC, Op

POOL_SEED = 20141219
N_DOCS = 300
N_SMOOTH = 100

BASE_SPECS = (
    ("2", "A1"), ("2", "A2"), ("2", "B2"), ("2", "G2"),
    ("3", "l=1,m=0"), ("3", "l=1,m=1"), ("3", "l=2,m=1"), ("4", "m=1"),
    ("5", "m=2"), ("5", "m=3"), ("6", "m=1"), ("8", "l=1"), ("9", "l=2,m=1"),
    ("10/11", "l=2,m=0"), ("12", "m=2"), ("13", "m=2"), ("15", "l=1,m=2"),
    ("29", ""), ("30", ""),
)


def build_pool() -> dict:
    from sphskel import catalog, serialize
    from sphskel.skeleton import GammaDivisor, product

    rng = random.Random(POOL_SEED)
    bases = [
        catalog.generate(catalog.FamilySpec.parse(f"{fam}:{p}" if p else fam))
        for fam, p in BASE_SPECS
    ]
    docs = []
    for _ in range(N_DOCS):
        sk = rng.choice(bases)
        if rng.random() < 0.3:
            sk = product(sk, rng.choice(bases))
        n = len(sk.sigma)
        gamma = tuple(
            GammaDivisor(f"r{t + 1}", tuple(rng.choice((0, 0, -1, -1, -2)) for _ in range(n)))
            for t in range(rng.randrange(4))
        )
        docs.append(serialize.skeleton_to_doc(replace(sk, gamma=gamma)))
    smooth = []
    for _ in range(N_SMOOTH):
        j = rng.randrange(N_DOCS)
        ids = [c["id"] for c in docs[j]["colors"]] + [d["id"] for d in docs[j]["gamma"]]
        smooth.append([j, ",".join(rng.sample(ids, rng.randrange(len(ids) + 1)))])
    markings = [[spec.label(), k] for spec, k in catalog.table_tasks(8)]
    return {"markings": markings, "docs": docs, "smooth": smooth}


def pool_ops(pool: dict) -> list[Op]:
    ops = []
    for i, (label, k) in enumerate(pool["markings"]):
        ops.append(Op("family", ("compute-p", "--family", label, "--mark", str(k)), ref=f"family:{i}"))
    for i, doc in enumerate(pool["docs"]):
        ops.append(Op("doc", ("compute-p", DOC, "--json"), workloads._dumps(doc), f"doc:{i}"))
    for i, (j, ids) in enumerate(pool["smooth"]):
        argv = ("smoothness", DOC, "--divisors", ids)
        ops.append(Op("smooth", argv, workloads._dumps(pool["docs"][j]), f"smooth:{i}"))
    return ops


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    pool = build_pool()
    with gzip.GzipFile(workloads.POOL_PATH, "wb", mtime=0) as handle:
        handle.write(json.dumps(pool, sort_keys=True, separators=(",", ":")).encode())

    ops = pool_ops(pool)
    ops += workloads.catalog_sweep(0, False)[0]
    cases = workloads.fano_cases()
    ops += workloads.fano_polytopes(0, True)[0]
    references = {}
    workdir = run.ROOT / ".perfbench-record"
    workdir.mkdir(exist_ok=True)
    try:
        ex = run.Executor(workdir)
        ex.prepare([ops])
        for op in ops:
            got = ex.run(op)
            if got.escape:
                raise SystemExit(f"{op.kind} {op.argv} escaped {got.escape}; not a reference")
            references[op.ref] = got.observed()
            if op.kind == "fano":
                needle = cases[op.ref.split(":", 1)[1]][1]
                if needle is not None:
                    if needle not in got.stderr:
                        raise SystemExit(f"{op.ref}: stderr lacks {needle!r}")
                    references[op.ref]["stderr_contains"] = needle
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
    lines = [f"{json.dumps(k)}: {json.dumps(references[k], sort_keys=True)}" for k in sorted(references)]
    workloads.REFERENCES_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(references)} references from {len(ops)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
