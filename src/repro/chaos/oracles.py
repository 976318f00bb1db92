"""Programs and validation oracles for chaos cases.

One program/oracle pair for every chaos case — generated by the
autopilot or enumerated by the fixed grid in
``benchmarks/chaos/cases.py`` — over any group shape and dtype.
Input vectors are a pure function of the member's *logical* index, the
length and the dtype — values stay small (< 139) so integer dtypes
never wrap and float32 sums stay exact — which keeps the oracle
analytic: no clean run is needed to know what a payload should be.

Matching rule: pure data movement (``bcast``/``collect``) must be
bit-exact no matter what the network does; element-wise combines
accumulate in strategy-dependent order, so float results are correct
within tolerance and integer results exactly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import api
from repro.core.communicator import Communicator
from repro.core.partition import partition_sizes
from repro.sim import Machine, preset

from .generator import ChaosCase, build_topology

#: ops whose payloads are moved, never combined — bit-exactness required
MOVEMENT_OPS = ("bcast", "collect")


def case_vec(me: int, n: int, dtype: str) -> np.ndarray:
    """Member ``me``'s input vector: deterministic, small-valued."""
    base = (np.arange(n) % 19) * ((me % 7) + 1) + (me % 13)
    return base.astype(dtype)


def make_program(case: ChaosCase, algorithm="auto"):
    """The case's collective as an SPMD rank program (both backends).

    Under ``crash-shrink`` every rank first waits out the scheduled
    crash, shrinks its communicator to the survivors
    (:meth:`~repro.core.communicator.Communicator.shrink`) and runs the
    same op body there.
    """
    op, n, dtype = case.op, case.n, case.dtype
    group = list(case.group) if case.group is not None else None
    shrink_after = None
    if case.profile == "crash-shrink":
        shrink_after = 2.0 * max((ev.t for ev in case.schedule().events),
                                 default=0.0)

    def prog(env):
        g = group
        if g is not None and env.rank not in g:
            return None
        ctx = env
        if shrink_after is not None:
            comm = Communicator(env, g)
            yield env.delay(shrink_after)
            comm = comm.shrink()
            ctx, g = comm.ctx, None
            me, size = comm.rank, comm.size
        else:
            me = g.index(env.rank) if g is not None else env.rank
            size = len(g) if g is not None else env.nranks
        if op == "bcast":
            buf = case_vec(0, n, dtype) if me == 0 else None
            out = yield from api.bcast(ctx, buf, root=0, total=n, group=g,
                                       dtype=dtype, algorithm=algorithm)
        elif op == "reduce":
            out = yield from api.reduce(ctx, case_vec(me, n, dtype),
                                        op="sum", root=0, group=g,
                                        dtype=dtype, algorithm=algorithm)
        elif op == "allreduce":
            out = yield from api.allreduce(ctx, case_vec(me, n, dtype),
                                           op="sum", group=g, dtype=dtype,
                                           algorithm=algorithm)
        elif op == "collect":
            sizes = partition_sizes(n, size)
            out = yield from api.collect(ctx, case_vec(me, sizes[me],
                                                       dtype),
                                         sizes=sizes, group=g, dtype=dtype,
                                         algorithm=algorithm)
        elif op == "reduce_scatter":
            out = yield from api.reduce_scatter(ctx, case_vec(me, n, dtype),
                                                op="sum", group=g,
                                                dtype=dtype,
                                                algorithm=algorithm)
        else:  # pragma: no cover
            raise ValueError(op)
        return out
    return prog


def expected_results(case: ChaosCase) -> List[Optional[np.ndarray]]:
    """Analytic per-physical-rank oracle (None for non-members/non-roots)."""
    op, n, dtype = case.op, case.n, case.dtype
    members = case.members()
    size = len(members)
    out: List[Optional[np.ndarray]] = [None] * case.nranks
    if op == "bcast":
        x = case_vec(0, n, dtype)
        vals = [x] * size
    elif op == "reduce":
        total = sum(case_vec(me, n, dtype).astype(np.float64)
                    for me in range(size)).astype(dtype)
        vals = [total if me == 0 else None for me in range(size)]
    elif op == "allreduce":
        total = sum(case_vec(me, n, dtype).astype(np.float64)
                    for me in range(size)).astype(dtype)
        vals = [total] * size
    elif op == "collect":
        sizes = partition_sizes(n, size)
        full = np.concatenate([case_vec(me, sizes[me], dtype)
                               for me in range(size)])
        vals = [full] * size
    elif op == "reduce_scatter":
        total = sum(case_vec(me, n, dtype).astype(np.float64)
                    for me in range(size)).astype(dtype)
        offs = np.concatenate(([0], np.cumsum(partition_sizes(n, size))))
        vals = [total[offs[me]:offs[me + 1]] for me in range(size)]
    else:  # pragma: no cover
        raise ValueError(op)
    for me, member in enumerate(members):
        out[member] = vals[me]
    return out


def payload_matches(op: str, dtype: str, got, want) -> bool:
    """Delivered-vs-expected comparison with the op-appropriate rule."""
    if want is None or got is None:
        return (got is None) == (want is None)
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return False
    if op in MOVEMENT_OPS or np.dtype(dtype).kind in "iu":
        return bool(np.array_equal(got, want))
    rtol = 1e-5 if np.dtype(dtype) == np.float32 else 1e-10
    return bool(np.allclose(got.astype(np.float64),
                            want.astype(np.float64), rtol=rtol, atol=0.0))


def mismatched_ranks(case: ChaosCase, results,
                     crashed=frozenset()) -> List[int]:
    """Physical ranks whose delivered payload violates the oracle."""
    oracle = expected_results(case)
    bad = []
    for rank in case.members():
        if rank in crashed:
            continue  # a crashed rank's result is undefined
        if not payload_matches(case.op, case.dtype, results[rank],
                               oracle[rank]):
            bad.append(rank)
    return bad


# -- clean runs (cached per configuration) ------------------------------

_CLEAN_CACHE: Dict[Tuple, Tuple[float, list]] = {}


def clean_run(case: ChaosCase) -> Tuple[float, list]:
    """Fault-free simulated ``(time, results)`` of the case's config.

    Deterministic (the simulator is), so schedule construction can
    scale event times by it without breaking replayability.  Cached per
    :meth:`ChaosCase.config_key` — the generator and the executor share
    one run per configuration.  The run is the plain op body, whatever
    the case's profile.
    """
    key = case.config_key()
    if key not in _CLEAN_CACHE:
        machine = Machine(build_topology(case.topo), preset(case.params))
        run = machine.run(make_program(replace(case, profile="none",
                                               faults={})))
        _CLEAN_CACHE[key] = (run.time, run.results)
    return _CLEAN_CACHE[key]
