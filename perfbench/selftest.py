"""Self-tests of the benchmark itself, on scaled-down workloads.

Run from the root of a checkout::

    python3 perfbench/selftest.py

They check that the printed metric names are the ones BENCHMARK.json
declares, that a traced round's layer self times add up to its wall
time, that the seed moves the service traffic but no simulated counter
of the simulator workloads, and that the benchmark refuses to run
without the library sources or with a non-default code path selected.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import session  # noqa: E402
from layers import LayerTracer  # noqa: E402
from probe import REFERENCE_S, calibrated  # noqa: E402
from workloads import (MeshHybridP512, RingP256, RuntimePair,  # noqa: E402
                       ServiceStorm, storm_traffic)


def small_workloads(seed: int) -> dict:
    spec = dataclasses.replace(storm_traffic(),
                               tenants=storm_traffic().tenants[:4],
                               requests_per_tenant=40)
    return {
        "ring-p256": RingP256(seed, p=16, nbytes=16 << 10),
        "mesh-hybrid-p512": MeshHybridP512(seed, rows=4, cols=8,
                                           bcast_bytes=16 << 10,
                                           allreduce_bytes=4 << 10),
        "service-storm": ServiceStorm(seed, spec),
        "runtime-pair": RuntimePair(seed, n_small=30, n_big=5),
    }


def fake_session(workload, trace: bool) -> dict:
    """What session.py would report, from two rounds of ``workload``."""
    warm = session._round(workload, metered=trace)
    rounds = []
    for _ in range(2):
        rec = session._round(workload)
        rec["traced"] = False
        rounds.append(rec)
        if trace:
            rec = session._round(workload, LayerTracer())
            rec["traced"] = True
            rounds.append(rec)
    for rec in rounds:
        rec["probe_s"] = [REFERENCE_S, REFERENCE_S]
    return {"setup_s": 1.0, "setup_probe_s": [REFERENCE_S, REFERENCE_S],
            "peak_rss_mb": 1.0, "warmup": warm, "rounds": rounds}


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.declared = json.load(fh)
        cls.workloads = small_workloads(seed=1)
        cls.traced = {name: fake_session(w, trace=True)
                      for name, w in cls.workloads.items()}

    def test_declared_workloads_are_the_ones_run(self):
        names = [w["name"] for w in self.declared["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))

    def test_printed_metric_names_and_units_match_declaration(self):
        for kind, table in (("end_to_end", run.END_TO_END),
                            ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.declared[kind]}
            self.assertEqual(declared, table, kind)
        for name, sess in self.traced.items():
            self.assertEqual(set(run.per_layer(sess)), set(run.PER_LAYER),
                             name)
            self.assertEqual(set(run.end_to_end([sess])),
                             set(run.END_TO_END), name)

    def test_every_output_checked_and_correct(self):
        for name, sess in self.traced.items():
            for rec in [sess["warmup"]] + sess["rounds"]:
                self.assertGreater(rec["ops"], 0, name)
                self.assertEqual(rec["failed"], 0, name)

    def test_layer_self_times_sum_to_traced_wall(self):
        for name, sess in self.traced.items():
            for rec in sess["rounds"]:
                if not rec["traced"]:
                    continue
                total = sum(rec["self_s"].values())
                self.assertAlmostEqual(total, rec["wall_s"],
                                       delta=0.02 * rec["wall_s"] + 1e-3,
                                       msg=name)
                self.assertTrue(all(v >= -1e-6
                                    for v in rec["self_s"].values()), name)

    def test_wrappers_removed_after_traced_round(self):
        from repro.sim.engine import Engine
        from repro.sim.machine import Machine
        self.assertFalse(hasattr(Machine.run, "__wrapped__"))
        self.assertFalse(hasattr(Engine._advance, "__wrapped__"))

    def test_calibration_rescales_to_reference_probe(self):
        self.assertEqual(calibrated(3.0, [REFERENCE_S, REFERENCE_S]), 3.0)
        self.assertAlmostEqual(
            calibrated(3.0, [REFERENCE_S, 3 * REFERENCE_S]), 1.5)

    def test_seed_moves_service_traffic_not_simulator_counters(self):
        other = small_workloads(seed=2)
        for name in ("ring-p256", "mesh-hybrid-p512"):
            a = self.workloads[name].round()["exact"]
            b = other[name].round()["exact"]
            self.assertEqual(a, b, name)
        plans = [self.workloads["service-storm"].plan(),
                 other["service-storm"].plan()]
        arrivals = [[o.arrival_v for _, o in sorted(p.outcomes.items())]
                    for p in plans]
        self.assertNotEqual(arrivals[0], arrivals[1])
        self.assertEqual(self.workloads["runtime-pair"].model_exact,
                         other["runtime-pair"].model_exact)


class CommandLineSelfTest(unittest.TestCase):

    def _run(self, cwd, env=None):
        return subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--workload", "runtime-pair", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120)

    def test_refuses_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self._run(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_refuses_non_default_code_paths(self):
        for var in run.HERMETIC_ENV:
            env = dict(os.environ, **{var: "1"})
            proc = self._run(ROOT, env)
            self.assertNotEqual(proc.returncode, 0, var)
            self.assertIn(var, proc.stderr)


if __name__ == "__main__":
    unittest.main()
