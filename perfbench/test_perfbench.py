"""Tests of the benchmark itself (stdlib unittest; pytest runs them too).

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

sys.path.insert(0, str(run.SRC))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        pool = workloads.load_pool()
        for name, (_, build) in workloads.WORKLOADS.items():
            for trace in (False, True):
                kwargs = {"pool": pool} if name == "query_mix" else {}
                first = workloads.input_digest(build(7, trace, **kwargs))
                again = workloads.input_digest(build(7, trace, **kwargs))
                self.assertEqual(first, again, name)

    def test_seeds_differ(self):
        pool = workloads.load_pool()
        a = workloads.input_digest(workloads.query_mix(1, False, pool))
        b = workloads.input_digest(workloads.query_mix(2, False, pool))
        self.assertNotEqual(a, b)
        a = workloads.input_digest(workloads.fano_polytopes(1, False))
        b = workloads.input_digest(workloads.fano_polytopes(2, False))
        self.assertNotEqual(a, b)

    def test_query_block_mix(self):
        block = workloads.query_mix(3, False)[0]
        kinds = [op.kind.split(":")[0] for op in block]
        self.assertEqual(
            {k: kinds.count(k) for k in set(kinds)},
            {"family": 50, "doc": 30, "smooth": 10, "malformed": 10},
        )
        malformed = [op.kind.split(":")[1] for op in block if op.ref is None]
        self.assertEqual(sorted(malformed), sorted(workloads.MALFORMED_CLASSES * 2))

    def test_every_reference_exists(self):
        references = json.loads(workloads.REFERENCES_PATH.read_text())
        pool = workloads.load_pool()
        for name, (_, build) in workloads.WORKLOADS.items():
            kwargs = {"pool": pool} if name == "query_mix" else {}
            for ops in build(5, False, **kwargs):
                for op in ops:
                    if op.ref is not None:
                        self.assertIn(op.ref, references)
        self.assertEqual(len(workloads.fano_cases()), 17)


class CheckTests(unittest.TestCase):
    refs = {"r": {"exit": 0, "stdout": run.digest("p = 2\n")}}

    def test_reference_match_and_mismatch(self):
        op = Op("family", ("x",), ref="r")
        self.assertEqual(run.check(op, run.Outcome(0.1, 0.1, 0, "p = 2\n", ""), self.refs)[:2], (True, False))
        self.assertEqual(run.check(op, run.Outcome(0.1, 0.1, 0, "p = 3\n", ""), self.refs)[:2], (False, True))
        escaped = run.Outcome(0.1, 0.1, None, "", "", escape="KeyError")
        self.assertEqual(run.check(op, escaped, self.refs)[:2], (False, True))

    def test_malformed_contract(self):
        op = Op("malformed:x", ("x",))
        ok = run.Outcome(0.1, 0.1, 2, '{"violations": ["bad"]}', "")
        self.assertEqual(run.check(op, ok, {})[:2], (True, False))
        escaped = run.Outcome(0.1, 0.1, None, "", "", escape="IndexError")
        self.assertEqual(run.check(op, escaped, {})[:2], (False, False))
        accepted = run.Outcome(0.1, 0.1, 0, "p = 1\n", "")
        self.assertEqual(run.check(op, accepted, {})[:2], (False, True))

    def test_tail(self):
        tally = run.Tally(pass_slowest=[0.003, 0.001, 0.002])
        self.assertEqual(run.tail_ms(tally, 100.0), 2.0)
        tally = run.Tally(op_norm=[i / 1000 for i in range(1, 2001)])
        self.assertAlmostEqual(run.tail_ms(tally, 99.0), 1980.99, places=6)


class ProbeTests(unittest.TestCase):
    def test_scale_of_a_span(self):
        p = probe.Probe(0)
        p.times, p.scales = [1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8]
        self.assertAlmostEqual(p.scale(1.5, 3.5), 0.65)
        self.assertEqual(p.scale(2.1, 2.3), 0.6)  # no sample inside: nearest
        self.assertEqual(p.scale(9.0, 9.5), 0.8)

    def test_pinning_and_normalisation(self):
        before = os.sched_getaffinity(0)
        with probe.Probes() as probes:
            self.assertEqual(os.sched_getaffinity(0), {probes.home})
            t0, own, main = time.perf_counter(), probes.own_cpu(), time.thread_time()
            while time.perf_counter() - t0 < 0.2:
                probe.kernel()
            t1 = time.perf_counter()
            own, main = probes.own_cpu() - own, time.thread_time() - main
            # The probe threads ran meanwhile but are not counted.
            self.assertAlmostEqual(own, main, delta=0.005)
            self.assertGreater(probes.normalise(t0, t1, own, 0.0), 0.0)
        self.assertEqual(os.sched_getaffinity(0), before)
        self.assertTrue(all(not p.is_alive() for p in probes.probes.values()))


class TraceTests(unittest.TestCase):
    def test_spans_partition_and_unwrap(self):
        import sphskel.catalog
        import sphskel.cli
        import sphskel.pinv

        original = sphskel.pinv.compute_p
        with tempfile.TemporaryDirectory() as tmp:
            ex = run.Executor(Path(tmp))
            op = Op("family", ("compute-p", "--family", "2:G2", "--mark", "1"))
            with tracing.Tracer() as tracer:
                self.assertIsNot(sphskel.catalog.compute_p, original)
                self.assertIs(sphskel.catalog.compute_p, sphskel.pinv.compute_p)
                got = ex.run(op)
        self.assertIs(sphskel.pinv.compute_p, original)
        self.assertIs(sphskel.catalog.compute_p, original)
        self.assertEqual(got.rc, 0)
        calls, self_ns = tracer.self_times()
        self.assertEqual(calls["cli.main"], 1)
        self.assertEqual(calls["pinv.compute_p"], 1)
        self.assertEqual(calls["catalog.mark"], 1)
        root = [e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0]
        self.assertEqual(sum(self_ns.values()), sum(root))
        metrics = tracer.layer_metrics(0)
        self.assertEqual(metrics["lp.solve.calls"][0], 1)
        self.assertEqual(metrics["pinv.validate_per_compute"][0], 2.0)


class ManifestTests(unittest.TestCase):
    def test_file_matches_definitions(self):
        committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, run.manifest())

    def test_contract_limits(self):
        m = run.manifest()
        self.assertEqual(
            set(m), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertTrue(2 <= len(m["workloads"]) <= 8)
        self.assertTrue(1 <= m["run_seconds"] <= 60)
        names = [w["name"] for w in m["workloads"]]
        names += [x["name"] for x in m["end_to_end"] + m["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in m["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for x in m["end_to_end"] + m["per_layer"]:
            self.assertRegex(x["unit"], UNIT)
            self.assertIn(x["better"], ("higher", "lower"))
        for x in m["end_to_end"]:
            self.assertLessEqual(x["bound"], 0.25)
        bounds = {x["name"]: x["bound"] for x in m["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(1 <= len(m["per_layer"]) <= 128)
        self.assertLess(len(json.dumps(m)), 64 * 1024)


if __name__ == "__main__":
    unittest.main()
