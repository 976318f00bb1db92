"""The benchmark's four workloads.

Each workload builds its inputs from the seed once (the set-up), then
runs one *round* — its unit of work — per call to :meth:`round`.  A
round checks every output it produces and returns a dict with:

``ops``       collective operations (service: requests) attempted;
``failed``    operations with a wrong result, a rejection or a dead letter;
``busy_s``    seconds inside the library's entry calls, which leaves out
              the benchmark's own checks: ``Machine.run`` (simulator
              workloads), planning plus ``execute_plan`` (service), the
              slower rank's program time, without process launch
              (runtime-pair);
``exact``     simulated quantities that must repeat bit for bit: they are
              compared across rounds and against ``reference.json``;
``layer``     per-layer readings of the round (counts, ratios).

The simulator workloads take payload values from the seed but never
sizes, so no simulated counter depends on the seed.  The service
workload's seed drives its traffic (arrival gaps and request sizes).
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import time

import numpy as np

from repro.core import api
from repro.core.partition import partition_offsets, partition_sizes
from repro.runtime import ProcessMachine
from repro.service import (ServiceConfig, ServiceCore, execute_plan,
                           run_workload, storm_spec)
from repro.sim import PARAGON, FullyConnected, Machine, Mesh2D, Ring

MB = 1 << 20
#: the seed whose simulated quantities ``reference.json`` keeps for
#: workloads whose traffic depends on the seed
REFERENCE_SEED = 0


def _small_ints(seed: int, n: int, salt: int) -> np.ndarray:
    """Seeded float64 integers in [-32, 32]: every sum the workloads form
    stays exact, whatever order a combine tree adds in."""
    rng = np.random.default_rng([seed % (1 << 64), salt])
    return rng.integers(-32, 33, n).astype(np.float64)


def _sim_exact(run) -> dict:
    return {"events": run.events, "messages": run.messages,
            "flows": run.flows,
            "rate_recomputations": run.rate_recomputations,
            "sim_time_s": repr(run.time)}


def _channel_readings(run) -> dict:
    """Modelled link conflicts of a metered run: the most flows that ever
    shared one channel, and the mean busy fraction of the channels the
    run used."""
    chans = [s for r, s in run.channel_metrics.items() if r[0] == "ch"]
    if not chans or run.time <= 0:
        return {"max_sharing": 0, "busy_frac": 0.0}
    return {"max_sharing": max(s.max_concurrent for s in chans),
            "busy_frac": sum(s.utilization(run.time) for s in chans)
            / len(chans)}


class _Sim:
    """Shared round logic of the two pure-simulator workloads."""

    ops = 2
    seeded_exact = False

    def round(self, tracer=None, metered=False) -> dict:
        t0 = time.perf_counter()
        run = self.machine.run(self.program, metrics=metered)
        busy_s = time.perf_counter() - t0
        failed = sum(not all(ok[i] for ok in run.results)
                     for i in range(self.ops))
        out = {"ops": self.ops, "failed": failed, "busy_s": busy_s,
               "exact": _sim_exact(run),
               "layer": {"sim.engine.events": run.events,
                         "sim.engine.messages": run.messages,
                         "sim.network.flows": run.flows,
                         "sim.network.rate_recomputations":
                             run.rate_recomputations}}
        if metered:
            out["channels"] = _channel_readings(run)
        return out


class RingP256(_Sim):
    """1 MB bucket collect + 1 MB bucket distributed combine on a
    256-node ring (``algorithm="long"``: no selection, no group maps)."""

    name = "ring-p256"

    def __init__(self, seed: int, p: int = 256, nbytes: int = MB):
        n = nbytes // 8
        self.sizes = partition_sizes(n, p)
        self.offs = partition_offsets(self.sizes)
        self.base = _small_ints(seed, n, 1)
        # rank r contributes base + r, so the combine is p*base + sum(r)
        self.combined = p * self.base + p * (p - 1) / 2
        self.machine = Machine(Ring(p), PARAGON)

    def program(self, env):
        r = env.rank
        lo, hi = self.offs[r], self.offs[r + 1]
        got = yield from api.collect(env, self.base[lo:hi].copy(),
                                     sizes=self.sizes, algorithm="long")
        ok_collect = np.array_equal(got, self.base)
        del got
        got = yield from api.reduce_scatter(env, self.base + r,
                                            sizes=self.sizes,
                                            algorithm="long")
        ok_combine = np.array_equal(got, self.combined[lo:hi])
        return ok_collect, ok_combine


class MeshHybridP512(_Sim):
    """The paper's 16x32 Paragon: a 1 MB broadcast and a 64 KB allreduce,
    both ``algorithm="auto"`` (Selector, group maps, mesh routes)."""

    name = "mesh-hybrid-p512"

    def __init__(self, seed: int, rows: int = 16, cols: int = 32,
                 bcast_bytes: int = MB, allreduce_bytes: int = 64 << 10):
        p = rows * cols
        self.bcast_buf = _small_ints(seed, bcast_bytes // 8, 2)
        self.vec = _small_ints(seed, allreduce_bytes // 8, 3)
        self.combined = p * self.vec + sum(r % 7 for r in range(p))
        self.machine = Machine(Mesh2D(rows, cols), PARAGON)

    def program(self, env):
        r = env.rank
        buf = self.bcast_buf.copy() if r == 0 else None
        got = yield from api.bcast(env, buf, root=0,
                                   total=len(self.bcast_buf),
                                   algorithm="auto")
        ok_bcast = np.array_equal(got, self.bcast_buf)
        del got
        got = yield from api.allreduce(env, self.vec + (r % 7),
                                       algorithm="auto")
        ok_allreduce = np.array_equal(got, self.combined)
        return ok_bcast, ok_allreduce


class _KeepRun(Machine):
    """A simulated machine that keeps its last :class:`RunResult`, so the
    counters of a run started inside ``execute_plan`` can be read."""

    last = None

    def run(self, *args, **kwargs):
        self.last = super().run(*args, **kwargs)
        return self.last


def storm_traffic():
    """The service storm: 8 tenants x 250 closed-loop allreduces, window
    8.  Sizes are drawn log-uniform in 1..256 elements (8 B..2 KB, all
    under the fusion threshold): with one fixed 8-byte size the
    saturated loop gives the same latency percentiles for every seed."""
    return dataclasses.replace(storm_spec(tenants=8, requests=250,
                                          window=8), max_elems=256)


class ServiceStorm:
    """Plan (admission, DRR, fusion) and execute a seeded request storm
    over a 2x4 Paragon mesh."""

    name = "service-storm"
    seeded_exact = True

    def __init__(self, seed: int, spec=None):
        self.seed = seed
        self.spec = spec or storm_traffic()
        self.machine = _KeepRun(Mesh2D(2, 4), PARAGON)
        self.config = ServiceConfig(fusion=True)
        self._oracles = {}

    def plan(self):
        core = ServiceCore(self.machine.nnodes, params=PARAGON,
                           topology=self.machine.topology,
                           config=self.config)
        return run_workload(core, self.spec, seed=self.seed)

    def _oracle(self, req) -> np.ndarray:
        key = (req.payload, len(req.group))
        want = self._oracles.get(key)
        if want is None:
            want = sum(req.payload.materialize(lr)
                       for lr in range(len(req.group)))
            self._oracles[key] = want
        return want

    def round(self, tracer=None, metered=False) -> dict:
        self.machine.metrics = metered
        t0 = time.perf_counter()
        if tracer is None:
            plan = self.plan()
            report = execute_plan(self.machine, plan)
        else:
            plan = tracer.call("service.plan", self.plan)
            report = tracer.call("service.execute", execute_plan,
                                 self.machine, plan)
        busy_s = time.perf_counter() - t0
        run = self.machine.last
        by_status = {"ok": 0, "rejected": 0, "dead-letter": 0}
        for o in report.outcomes.values():
            by_status[o.status] = by_status.get(o.status, 0) + 1
        wrong = 0
        requests = {r.rid: r for b in plan.batches for r in b.requests}
        for rid, o in report.outcomes.items():
            if o.status != "ok":
                continue
            req = requests[rid]
            per_rank = report.results.get(rid, {})
            want = self._oracle(req)
            if len(per_rank) != len(req.group) or not all(
                    np.array_equal(v, want) for v in per_rank.values()):
                wrong += 1
        lost = plan.submitted - sum(by_status.values())
        if not report.accounted():
            lost = max(lost, 1)
        lat = plan.latency_percentiles()
        exact = _sim_exact(run)
        exact.update({"svc_p50_ms": repr(lat["p50"] * 1e3),
                      "svc_p99_ms": repr(lat["p99"] * 1e3),
                      "batches": len(plan.batches),
                      "submitted": plan.submitted})
        out = {"ops": plan.submitted, "busy_s": busy_s,
               "failed": (wrong + by_status["rejected"]
                          + by_status["dead-letter"] + lost),
               "exact": exact,
               "layer": {"sim.engine.events": run.events,
                         "sim.engine.messages": run.messages,
                         "sim.network.flows": run.flows,
                         "sim.network.rate_recomputations":
                             run.rate_recomputations,
                         "service.batches": len(plan.batches),
                         "service.fusion_ratio": plan.fusion_ratio,
                         "service.p50_ms": lat["p50"] * 1e3,
                         "service.p99_ms": lat["p99"] * 1e3}}
        if metered:
            out["channels"] = _channel_readings(run)
        return out


# ----------------------------------------------------------------------
# runtime-pair: two real processes
# ----------------------------------------------------------------------

def _count_transport(transport) -> dict:
    """Wrap this rank's transport instance: sends (count, seconds,
    bytes) and time blocked receiving."""
    stats = {"send_calls": 0, "send_s": 0.0, "recv_wait_s": 0.0,
             "bytes": 0.0}
    send, recv_any = transport.send, transport.recv_any
    clock = time.perf_counter

    def counted_send(dst, tag, payload, nbytes=0.0):
        t0 = clock()
        send(dst, tag, payload, nbytes)
        stats["send_s"] += clock() - t0
        stats["send_calls"] += 1
        stats["bytes"] += nbytes

    def timed_recv_any(timeout=None):
        t0 = clock()
        try:
            return recv_any(timeout)
        finally:
            stats["recv_wait_s"] += clock() - t0

    transport.send = counted_send
    transport.recv_any = timed_recv_any
    return stats


def _pair_program(env, small, big, n_small, n_big, count):
    """Rank program: ``n_small`` 8-byte then ``n_big`` 64 KB allreduces,
    each timed on this rank's clock and checked against the exact sum."""
    stats = _count_transport(env._transport) if count else None
    me = env.rank
    want_small = 2 * small + 1
    want_big = 2 * big + 1
    yield from api.barrier(env)
    t0 = env.now
    lat_small, lat_big, bad = [], [], []
    for i in range(n_small):
        t = env.now
        got = yield from api.allreduce(env, small + me, algorithm="auto")
        lat_small.append(env.now - t)
        if not np.array_equal(got, want_small):
            bad.append(i)
    for i in range(n_big):
        t = env.now
        got = yield from api.allreduce(env, big + me, algorithm="auto")
        lat_big.append(env.now - t)
        if not np.array_equal(got, want_big):
            bad.append(n_small + i)
    return {"program_s": env.now - t0, "small": lat_small,
            "big": lat_big, "bad": bad, "transport": stats,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


class RuntimePair:
    """Two OS processes over local pipes: many 8-byte allreduces and a
    smaller count of 64 KB allreduces, latency timed per call as the
    slower rank's time.  Building one pins the calling process, and so
    both rank processes it forks, to one CPU.
    """

    name = "runtime-pair"
    seeded_exact = False

    def __init__(self, seed: int, n_small: int = 1000, n_big: int = 100):
        self.n_small, self.n_big = n_small, n_big
        # With one rank per vCPU of a shared 2-vCPU VM, cross-vCPU
        # wake-ups made round walls swing 2x (coefficient of variation
        # 0.30, against 0.14 with both ranks on one CPU, over 41
        # alternating rounds each).  On one CPU a round measures the
        # runtime's own layers rather than the hypervisor's wake-up
        # latency.  The ranks are forked by each run and inherit this.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.small = _small_ints(seed, 1, 4)
        self.big = _small_ints(seed, 8192, 5)
        # pinned constants, no stored calibration profile
        self.machine = ProcessMachine(2, transport="local", params=PARAGON,
                                      use_profile=False)
        # the same program, simulated under the same constants: the
        # modelled per-call latency that runtime.model_ratio divides by
        sim = Machine(FullyConnected(2), PARAGON).run(
            _pair_program, self.small, self.big, 3, 3, False)
        self.model_small_s = sim.results[0]["small"][-1]
        self.model_big_s = sim.results[0]["big"][-1]
        self.model_exact = dict(_sim_exact(sim),
                                model_small_s=repr(self.model_small_s),
                                model_big_s=repr(self.model_big_s))
        self.rank_rss_kb = 0

    def round(self, tracer=None, metered=False) -> dict:
        count = tracer is not None
        t0 = time.perf_counter()
        run = self.machine.run(_pair_program, self.small, self.big,
                               self.n_small, self.n_big, count)
        wall = time.perf_counter() - t0
        ranks = run.results
        small = [max(a, b) for a, b in zip(ranks[0]["small"],
                                            ranks[1]["small"])]
        big = [max(a, b) for a, b in zip(ranks[0]["big"], ranks[1]["big"])]
        program_s = max(r["program_s"] for r in ranks)
        bad = set(ranks[0]["bad"]) | set(ranks[1]["bad"])
        self.rank_rss_kb = max(self.rank_rss_kb,
                               sum(r["rss_kb"] for r in ranks))
        lat8_p50 = statistics.median(small)
        layer = {"runtime.lat8_p50_us": lat8_p50 * 1e6,
                 "runtime.lat8_p90_us":
                     statistics.quantiles(small, n=10)[8] * 1e6,
                 "runtime.lat64k_p50_us": statistics.median(big) * 1e6,
                 "runtime.model_ratio": lat8_p50 / self.model_small_s,
                 "runtime.launch.spawn_s": wall - program_s}
        if count:
            for key in ("send_calls", "send_s", "recv_wait_s", "bytes"):
                layer[f"runtime.transport.{key}"] = sum(
                    r["transport"][key] for r in ranks)
        return {"ops": self.n_small + self.n_big, "failed": len(bad),
                "busy_s": program_s, "exact": self.model_exact,
                "layer": layer}


WORKLOADS = {w.name: w for w in (RingP256, MeshHybridP512, ServiceStorm,
                                 RuntimePair)}
