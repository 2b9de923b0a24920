"""sphskel benchmark: seeded workloads through the in-process CLI.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every operation is one call of ``sphskel.cli.main`` in this process; the
only other processes are the interpreters that time ``setup_s`` and the
``verify`` worker pool of catalog_sweep.  Each output is checked against
the references recorded at commit 4913f7c (``data/references.json``,
written by ``record.py``); malformed input must exit 2 with violations.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, measured untraced; with ``--trace 1``
they are the per-layer ones: one untraced and one traced pass over the
same inputs, so the tracing overhead is their difference.

Times are CPU seconds, normalised by speed probes (``probe.py``): CPU time
of this process (probe threads left out) plus that of its reaped children,
the verify pool's workers, each span scaled by how fast its CPU ran while
it ran, to the seconds it would take on a CPU on which the probe kernel
takes 1 ms.  On a shared virtual machine wall time also counts the time
the host runs other guests (steal), which varied a short loop's wall time
by up to 90% on a 2-vCPU virtual machine; CPU time counts the speed a vCPU
has while another guest shares its core, which varied the same loop by
up to 1.7 times in spells of seconds.  Raw CPU and wall times are printed
as comments, per kind of call, and not gated; `verify all` uses the pool,
so its wall time is the one to compare with the single-process
`verify tables --jobs 1`.

End-to-end metrics, per workload; brackets name the quantity each one
stands in for:

  setup_s         median over 21 fresh interpreters of the normalised
                  CPU time to import sphskel.cli
  peak_rss_mb     peak resident memory of this process, which runs the CLI
                  (verify pool workers are separate processes, not counted)
  ok_share        operations meeting their reference or contract over
                  operations attempted [1 - failed_share]; the counts are
                  ``attempted`` and ``failed``
  pass_norm_s     median normalised CPU time of one pass: catalog_sweep
                  `verify all` then `verify tables --jobs 1` [sweep_s +
                  sweep_serial_s]; query_mix a block of 100 requests
                  [100 / queries_per_s]; fano_polytopes all 17 cases
                  [fano_pass_s]

Printed as comments and not gated: the median call and the tail, which is
the 99th percentile of calls on query_mix [query_p50_ms, query_tail_ms]
and elsewhere the slowest call of each pass, median over passes
[fano_case_max_s, the 4-cube], in normalised CPU time; per kind of call
the median raw CPU and wall time [sweep_s, sweep_serial_s]; and the
median raw CPU time of a pass.  Single calls spread more from run to run
than passes, so a pass alone is gated.

Write BENCHMARK.json from these definitions with ``--write-manifest``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from probe import Probes  # noqa: E402
from workloads import CSV_OUT, DOC, JSON_OUT, Op  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
RUN_SECONDS = 30
SETUP_RUNS = 21
SETUP_WINDOW = 0.25

# Timings are normalised by the speed probes; see probe.py.  Over ten
# seeds on a 2-vCPU virtual machine, (Q3 - Q1) / median of pass_norm_s was
# 0.01-0.04 and that of setup_s about 0.1.
END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "share", "higher", 0.01),
    ("pass_norm_s", "s", "lower", 0.15),
)
TRACE_CPU = (
    ("trace.cpu_s", "s"),  # CPU time of the traced calls
    ("trace.untraced_cpu_s", "s"),  # the same passes untraced
    ("trace.overhead_cpu_s", "s"),  # their difference
)


def children_cpu() -> float:
    """CPU time of the children of this process that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Executing and checking operations.

@dataclass
class Outcome:
    cpu: float
    wall: float
    rc: int | None
    stdout: str
    stderr: str
    escape: str | None = None
    reports: dict[str, str] = field(default_factory=dict)
    norm: float | None = None  # cpu normalised by the speed probes

    def observed(self) -> dict:
        """What is compared with a reference entry."""
        if self.escape:
            return {"escape": self.escape}
        return {"exit": self.rc, "stdout": digest(self.stdout), **self.reports}


class Executor:
    """Runs operations through ``sphskel.cli.main`` in this process.

    With ``probes``, each call's CPU time is also normalised; without,
    ``norm`` is the raw CPU time.
    """

    def __init__(self, workdir: Path, probes: Probes | None = None):
        self.workdir = workdir
        self.probes = probes
        self.cli = importlib.import_module("sphskel.cli")
        self.docs: dict[str, str] = {}
        self.absent = str(workdir / "absent.json")
        self.outputs = {JSON_OUT: workdir / "report.json", CSV_OUT: workdir / "report.csv"}

    def prepare(self, passes: list[list[Op]]) -> None:
        """Write every input document once, before anything is timed."""
        for ops in passes:
            for op in ops:
                if op.doc is not None and op.doc not in self.docs:
                    path = self.workdir / f"{digest(op.doc)}.json"
                    path.write_text(op.doc, encoding="utf-8")
                    self.docs[op.doc] = str(path)

    def run(self, op: Op) -> Outcome:
        argv = []
        for arg in op.argv:
            if arg == DOC:
                arg = self.docs[op.doc] if op.doc is not None else self.absent
            elif arg in self.outputs:
                arg = str(self.outputs[arg])
            argv.append(arg)
        out, err = io.StringIO(), io.StringIO()
        rc, escape = None, None
        probes = self.probes
        own_cpu = probes.own_cpu if probes else time.process_time
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, own, child = time.perf_counter(), own_cpu(), children_cpu()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an escaped error is a failed operation
                escape = type(exc).__name__
            own, child = own_cpu() - own, children_cpu() - child
            end = time.perf_counter()
        cpu = own + child
        norm = probes.normalise(start, end, own, child) if probes else cpu
        outcome = Outcome(
            cpu, end - start, rc, out.getvalue(), err.getvalue(), escape, norm=norm
        )
        for key, path in self.outputs.items():
            if path.exists():
                outcome.reports[key.strip("{}")] = digest(path.read_bytes())
                path.unlink()
        return outcome


def check(op: Op, got: Outcome, references: dict) -> tuple[bool, bool, str]:
    """(operation ok, output wrong, reason) for one outcome.

    Well-formed input must reproduce its reference exactly.  Malformed
    input must exit 2 with a violation list; exit 0 or 1 on it is a wrong
    answer, an escaped exception is a failed operation.
    """
    if op.ref is None:
        if got.escape:
            return False, False, f"escaped {got.escape}"
        if got.rc != 2:
            return False, True, f"exit {got.rc} on malformed input"
        if "violation" not in got.stdout + got.stderr:
            return False, False, "exit 2 without a violation list"
        return True, False, ""
    expected = dict(references[op.ref])
    needle = expected.pop("stderr_contains", None)
    if got.observed() != expected:
        return False, True, f"differs from reference {op.ref}: {got.observed()}"
    if needle is not None and needle not in got.stderr:
        return False, True, f"stderr lacks {needle!r}"
    return True, False, ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    by_kind: dict[str, list] = field(default_factory=dict)  # calls, failed, cpu, wall
    notes: Counter = field(default_factory=Counter)
    op_norm: list[float] = field(default_factory=list)
    op_wall: list[float] = field(default_factory=list)
    pass_cpu: list[float] = field(default_factory=list)
    pass_norm: list[float] = field(default_factory=list)
    pass_wall: list[float] = field(default_factory=list)
    pass_slowest: list[float] = field(default_factory=list)

    def add(self, op: Op, got: Outcome, references: dict) -> None:
        ok, wrong, reason = check(op, got, references)
        self.attempted += 1
        self.failed += not ok
        self.wrong += wrong
        self.op_norm.append(got.cpu if got.norm is None else got.norm)
        self.op_wall.append(got.wall)
        kind = self.by_kind.setdefault(op.kind, [0, 0, [], []])
        kind[0] += 1
        kind[1] += not ok
        kind[2].append(got.cpu)
        kind[3].append(got.wall)
        if reason:
            self.notes[f"{op.kind} {' '.join(op.argv)}: {reason}"] += 1


def run_pass(ex: Executor, ops: list[Op], tally: Tally, references: dict) -> None:
    first = len(tally.op_norm)
    wall, cpu = time.perf_counter(), 0.0
    for op in ops:
        got = ex.run(op)
        cpu += got.cpu
        tally.add(op, got, references)
    tally.pass_cpu.append(cpu)
    tally.pass_wall.append(time.perf_counter() - wall)
    tally.pass_norm.append(sum(tally.op_norm[first:]))
    tally.pass_slowest.append(max(tally.op_norm[first:]))


# ---------------------------------------------------------------------------
# Measurements outside the passes.

def measure_setup_s(probes: Probes) -> float:
    """Median normalised CPU time for a fresh interpreter to import
    sphskel.cli.  The interpreters run on the home CPU, as this thread does,
    and are scaled by its probe over a window of SETUP_WINDOW seconds on
    either side: an import is too short to average enough samples."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.process_time(); import sphskel.cli; "
        "print(time.process_time() - t)"
    )
    cmd = [sys.executable, "-I", "-c", code, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)  # warm pyc
    spans = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True, timeout=60).stdout
        spans.append((start, time.perf_counter(), float(out)))
    time.sleep(SETUP_WINDOW)  # let the probe sample past the last import
    return statistics.median(
        probes.normalise(t0 - SETUP_WINDOW, t1 + SETUP_WINDOW, cpu, 0.0)
        for t0, t1, cpu in spans
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sphskel").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:32]


def provenance(args: argparse.Namespace, passes: list[list[Op]]) -> dict:
    jobs = None
    if args.workload == "catalog_sweep":
        # verify all's jobs, by the CLI's default rule at commit 4913f7c;
        # traced runs pass --jobs 1.
        jobs = 1 if args.trace else min(os.cpu_count() or 1, 8)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": workloads.input_digest(passes),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "verify_jobs": jobs,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git_commit": git_commit(),
        "src_digest": src_digest(),
    }


def tail_ms(tally: Tally, pct: float) -> float:
    """The pct-th percentile of normalised call CPU time; for pct 100, the
    slowest call of each pass, median over the passes."""
    if pct >= 100:
        return statistics.median(tally.pass_slowest) * 1000
    return statistics.quantiles(tally.op_norm, n=1000)[round(pct * 10) - 1] * 1000


# ---------------------------------------------------------------------------
# Runs.

def untraced_run(args, wl, passes, ex, references) -> tuple[Tally, dict]:
    """Passes until the next one would end after ``--seconds`` of wall time."""
    setup_s = measure_setup_s(ex.probes)
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while True:
        run_pass(ex, passes[i % len(passes)], tally, references)
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(tally.pass_wall) > args.seconds:
            break
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_share": ((tally.attempted - tally.failed) / tally.attempted, "share"),
        "pass_norm_s": (statistics.median(tally.pass_norm), "s"),
    }
    label = "slowest call per pass, median" if wl.tail_pct >= 100 else f"p{wl.tail_pct:g}"
    print(
        f"# {i} passes, {tally.attempted} calls; normalised call CPU median "
        f"{statistics.median(tally.op_norm) * 1000:.4f} ms, {label} "
        f"{tail_ms(tally, wl.tail_pct):.4f} ms"
    )
    print(f"# raw CPU time: pass median {statistics.median(tally.pass_cpu):.4f} s")
    print(
        f"# wall time: pass median {statistics.median(tally.pass_wall):.4f} s, "
        f"call median {statistics.median(tally.op_wall) * 1000:.4f} ms, "
        f"{tally.attempted / sum(tally.pass_wall):.4f} calls/s"
    )
    return tally, metrics


def traced_run(args, wl, passes, ex, references) -> tuple[Tally, dict]:
    """The passes once untraced, then once traced; calls are counted twice."""
    tally = Tally()
    for ops in passes:
        run_pass(ex, ops, tally, references)
    untraced_cpu = sum(tally.pass_cpu)
    tracer = tracing.Tracer()
    with tracer:
        for ops in passes:
            run_pass(ex, ops, tally, references)
    traced_cpu = sum(tally.pass_cpu) - untraced_cpu
    ops = [op for ops in passes for op in ops]
    per_kind: dict[str, Counter] = {}
    for op, calls in zip(ops, tracer.calls_per_root()):
        per_kind.setdefault(op.kind, Counter()).update(calls)
    for kind, calls in sorted(per_kind.items()):
        print(f"# traced {kind} calls: " + ", ".join(f"{n} {c}" for n, c in sorted(calls.items())))
    metrics = tracer.layer_metrics(sum(1 for op in ops if op.kind == "fano"))
    computed = [n for n in metrics if n.rsplit(".", 1)[-1] in tracing.COMPUTED]
    print("# computed from arguments and results, not timed: " + ", ".join(computed))
    metrics["trace.cpu_s"] = (traced_cpu, "s")
    metrics["trace.untraced_cpu_s"] = (untraced_cpu, "s")
    metrics["trace.overhead_cpu_s"] = (traced_cpu - untraced_cpu, "s")
    return tally, metrics


def manifest() -> dict:
    per_layer = []
    for name, (_, unit) in tracing.Tracer().layer_metrics(0).items():
        better = "higher" if name.endswith(("distinct_ratio", ".yield")) else "lower"
        per_layer.append({"name": name, "unit": unit, "better": better})
    per_layer += [{"name": n, "unit": u, "better": "lower"} for n, u in TRACE_CPU]
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": wl.name, "why": wl.why} for wl, _ in workloads.WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": per_layer,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-manifest", action="store_true", help="write BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)
    if args.write_manifest:
        text = json.dumps(manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text, encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "sphskel" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'sphskel'} is missing", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    importlib.import_module("sphskel.cli")
    wl, build = workloads.WORKLOADS[args.workload]
    passes = build(args.seed, bool(args.trace))
    references = json.loads(workloads.REFERENCES_PATH.read_text(encoding="utf-8"))
    print("# provenance " + json.dumps(provenance(args, passes), sort_keys=True))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            # No probes: their threads would run inside the traced spans.
            ex = Executor(workdir)
            ex.prepare(passes)
            tally, metrics = traced_run(args, wl, passes, ex, references)
        else:
            with Probes() as probes:
                ex = Executor(workdir, probes)
                ex.prepare(passes)
                tally, metrics = untraced_run(args, wl, passes, ex, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for kind, (n, bad, cpu, wall) in sorted(tally.by_kind.items()):
        print(
            f"# {kind}: {n} calls, {bad} failed, median {statistics.median(cpu):.4f} "
            f"CPU s, {statistics.median(wall):.4f} wall s"
        )
    for note, count in tally.notes.most_common(20):
        print(f"# failure x{count}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
