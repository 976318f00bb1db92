"""Fluid-flow transport model with max-min fair bandwidth sharing.

This module implements the communication model of section 2 of the paper:

* sending a message of ``n`` bytes between any two nodes costs
  ``alpha + n * beta`` in the absence of network conflicts;
* a processor can send and receive simultaneously, but the node-to-network
  injection port and the network-to-node ejection port are each a single
  shared resource;
* "when two messages traverse the same physical link on the communication
  interconnect, we assume they share the bandwidth of that link".

We realize the sharing rule as a *fluid* model: every in-flight message is
a flow across an ordered set of resources — the sender's injection port,
the directed channels of its wormhole route, and the receiver's ejection
port.  At any instant the flow receives the max-min fair rate over all its
resources (computed by the classic progressive-filling / water-filling
algorithm).  Whenever a flow starts or finishes, rates are recomputed —
but only inside the *connected component* of flows that transitively share
a resource with the changed flow, so the common conflict-free case stays
O(route length) per event.

The paper's Paragon refinement (section 7.1) — excess link bandwidth so a
channel can carry several messages without penalty — enters through
``MachineParams.link_capacity``: channel capacity is ``link_capacity``
times the injection bandwidth, so up to that many flows cross a channel
at full speed.

Performance notes (see ``docs/performance.md``)
-----------------------------------------------
The hot path of every simulated message is ``start_flow`` -> one or two
max-min recomputations -> a completion event.  To keep that path cheap:

* **Resource interning.**  Resources (``("inj", node)``, ``("ch", u, v)``,
  ``("ej", node)``) are interned to dense integer ids at first use;
  capacities, flow indices and scratch stamps live in flat lists indexed
  by id, so the water-filling inner loops never hash a tuple.
* **Route caching.**  The interned resource sequence of every
  ``(src, dst)`` pair is computed once per network and reused; repeated
  ring/mesh traffic patterns hit a single dict lookup.
* **Incremental flow indices.**  ``_res_flows[rid]`` is an
  insertion-ordered dict acting as an ordered set, updated as flows
  start and finish — components and counts are never rebuilt from
  scratch, and the deterministic order makes whole runs reproducible
  (the previous ``set``-of-objects indices iterated in ``id()`` order,
  which could permute same-time events between runs).
* **Stamped, pruned component walks.**  Component discovery and the
  progressive filling bookkeeping use generation stamps on
  flows/resources instead of per-call ``set``/``dict`` allocations; a
  resource that carries only the flow just popped is never pushed, since
  it can add no flow.
* **Fill reuse per component.**  The rates of a fill depend only on the
  component's ordered routes and the resource capacities (each round
  fixes every unfixed flow on the bottleneck at one share and drains
  that same value, so the order of flows on a resource cannot matter).
  They are stored under ``tuple(f.route for f in comp)`` and reused
  when the same component recurs; :meth:`FluidNetwork.apply_slowdown`,
  the only place an interned capacity changes, clears the store.
* **Completion-event elision.**  A recomputation that leaves a flow's
  predicted finish time bit-identical (the common case when several
  flows start at one timestamp) keeps the already-scheduled completion
  event instead of scheduling a replacement and letting the old one go
  stale.

All of the above preserve the *simulated* results bit-for-bit — the
golden-equivalence corpus (``tests/sim/test_golden_equivalence.py``)
enforces exactly that.
"""

from __future__ import annotations

import itertools
import math
import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.params import MachineParams
from ..core.topology import Topology

Resource = Tuple  # ("inj", node) | ("ej", node) | ("ch", u, v)

#: tolerance for "flow has finished" in bytes
_EPS_BYTES = 1e-9

_INF = math.inf

#: degraded-route cache sentinel: the pair is disconnected
_NO_ROUTE = ()

#: components smaller than this run the scalar progressive-filling inner
#: loop even in vectorized mode: numpy's per-call overhead beats the
#: Python loop only once a component carries enough flows.  Both inner
#: loops produce bit-identical rates (see docs/performance.md), so the
#: crossover is purely a wall-clock knob.
_VEC_MIN_FLOWS = 64


def _vectorized_enabled() -> bool:
    """Vectorized water-filling is the default; ``REPRO_SIM_SCALAR=1``
    selects the historical pure-Python path (the differential suite in
    ``tests/sim/test_vectorized_network.py`` runs both and asserts
    bit-identical results)."""
    return os.environ.get("REPRO_SIM_SCALAR", "").lower() \
        not in ("1", "true", "yes")


def _vec_min_flows() -> int:
    """Scalar/vectorized crossover, overridable for experiments."""
    try:
        return int(os.environ["REPRO_SIM_VEC_MIN"])
    except (KeyError, ValueError):
        return _VEC_MIN_FLOWS


class Flow:
    """One in-flight message moving through the fluid network.

    ``route`` holds the network's *interned* resource ids (ints); use
    :meth:`FluidNetwork.resources_of` to translate back to the
    ``("inj", node)`` / ``("ch", u, v)`` / ``("ej", node)`` tuples.
    """

    __slots__ = ("fid", "src", "dst", "route", "route_np", "remaining",
                 "rate", "last_update", "epoch", "on_complete",
                 "started_at", "_sched_at", "_sched_epoch", "_cstamp",
                 "_fstamp")

    def __init__(self, fid: int, src: int, dst: int,
                 route: Tuple[int, ...], nbytes: float,
                 on_complete, now: float):
        self.fid = fid
        self.src = src
        self.dst = dst
        self.route = route
        #: interned route as an int array (vectorized path); filled
        #: lazily from the network's per-route cache
        self.route_np = None
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.last_update = now
        self.started_at = now
        #: bumped on every reschedule; stale completion events are ignored
        self.epoch = 0
        self.on_complete = on_complete
        #: time of the pending completion event, and the epoch it carries
        self._sched_at = -1.0
        self._sched_epoch = -1
        #: generation stamps for component walks / progressive filling
        self._cstamp = 0
        self._fstamp = 0

    def settle(self, now: float) -> None:
        """Account for bytes transferred since the last rate change.

        Residues smaller than ``_EPS_BYTES`` (including negative
        float-drift underflow) are clamped to exactly zero so that
        repeated rate changes cannot accumulate a stale sub-epsilon
        remainder that keeps scheduling zero-duration completion epochs.
        """
        dt = now - self.last_update
        if dt > 0.0 and self.rate > 0.0:
            self.remaining -= self.rate * dt
            if self.remaining < _EPS_BYTES:
                self.remaining = 0.0
        self.last_update = now

    def eta(self, now: float) -> float:
        """Predicted completion time at the current rate."""
        if self.remaining <= _EPS_BYTES:
            return now
        if self.rate <= 0.0:
            return _INF
        return now + self.remaining / self.rate

    def __repr__(self) -> str:
        return (f"Flow({self.src}->{self.dst}, rem={self.remaining:.1f}B, "
                f"rate={self.rate:.3g})")


class FluidNetwork:
    """Shared-bandwidth transport over a :class:`Topology`.

    The network does not own the simulation clock; an engine drives it by
    calling :meth:`start_flow`, and by invoking :meth:`fire_completion`
    when a scheduled completion event fires.

    ``schedule(t, cb)`` is the generic event hook; when the driving
    engine also passes ``schedule_completion(t, flow, epoch)`` the
    network uses it for flow completions so the engine can represent
    them as plain tuples instead of per-event closures.
    """

    def __init__(self, topology: Topology, params: MachineParams,
                 schedule: Callable[[float, Callable[[], None]], None],
                 schedule_completion: Optional[
                     Callable[[float, Flow, int], None]] = None,
                 complete: Optional[Callable[[object, float], None]] = None,
                 metrics=None, faults=None):
        self.topology = topology
        self.params = params
        #: runtime fault state (:class:`repro.sim.faults.FaultState`) or
        #: None; with no injected link faults every code path below is
        #: byte-identical to a fault-free network
        self._faults = faults
        #: (src, dst) -> interned degraded route, valid for the current
        #: failed-link set; flushed by :meth:`fault_routes_changed`
        self._degraded_routes: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: optional passive per-resource accounting
        #: (:class:`repro.obs.metrics.ResourceMetrics`); never affects
        #: simulated results — see docs/observability.md
        self.metrics = metrics
        # bound append of the collector's event log: the hot-path cost
        # of metering is exactly one tuple + list append per flow event
        self._mev = metrics._events.append if metrics is not None else None
        self._schedule = schedule
        if schedule_completion is None:
            def schedule_completion(t: float, flow: Flow,
                                    epoch: int) -> None:
                schedule(t, lambda: self.fire_completion(flow, epoch, t))
        self._schedule_completion = schedule_completion
        if complete is None:
            def complete(token: object, when: float) -> None:
                token(when)  # standalone use: the token is a callback
        self._complete = complete
        self._fid = itertools.count()
        self._fidn = self._fid.__next__
        self._port_cap = params.injection_bandwidth
        self._chan_cap = params.channel_bandwidth
        #: interning tables: resource tuple <-> dense integer id
        self._res_index: Dict[Resource, int] = {}
        self._res_list: List[Resource] = []
        self._res_cap: List[float] = []
        #: rid -> insertion-ordered dict of flows currently crossing it
        self._res_flows: List[Dict[Flow, None]] = []
        #: scratch stamps/positions for component walks and water-filling
        self._bfs_rstamp: List[int] = []
        self._wf_rstamp: List[int] = []
        self._wf_rpos: List[int] = []
        self._stamp = 0
        #: vectorized water-filling (docs/performance.md): flat numpy
        #: mirrors of the interning tables plus preallocated scratch.
        #: ``REPRO_SIM_SCALAR=1`` pins the historical pure-Python inner
        #: loop; both paths are bit-identical by construction and the
        #: differential suite enforces it.
        self._vec = _vectorized_enabled()
        self._vec_min = _vec_min_flows()
        #: route tuple -> np.intp array of interned resource ids
        self._route_np_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        #: numpy mirror of ``_res_cap``; rebuilt lazily when stale
        self._cap_np = np.zeros(0, dtype=np.float64)
        self._cap_dirty = True
        #: global rid -> component-local index scratch (values garbage
        #: outside the rids written in the current fill)
        self._gmap = np.zeros(0, dtype=np.intp)
        #: (src, dst) -> tuple of interned resource ids
        self._route_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: ordered component routes -> the rates progressive filling
        #: gave them, in the same order; valid while no interned
        #: capacity changes (flushed by :meth:`apply_slowdown`)
        self._fill_memo: Dict[Tuple[Tuple[int, ...], ...],
                              List[float]] = {}
        self._active: Dict[Flow, None] = {}
        #: statistics
        self.flows_started = 0
        self.bytes_carried = 0.0
        self.rate_recomputations = 0

    # ------------------------------------------------------------------
    # public interface used by the engine
    # ------------------------------------------------------------------

    def start_flow(self, src: int, dst: int, nbytes: float, now: float,
                   on_complete) -> Optional[Flow]:
        """Begin streaming ``nbytes`` from src to dst at time ``now``.

        ``on_complete`` is an opaque completion token: when the last
        byte arrives (exactly once) the network invokes the ``complete``
        callback it was constructed with as ``complete(token, t)``.
        Without an explicit ``complete`` the token must itself be a
        callable and is invoked as ``token(t)``.  The ``alpha`` latency
        is *not* charged here — the engine charges it before starting
        the flow, matching the paper's ``alpha + n*beta`` decomposition.

        When injected link faults leave src and dst disconnected the
        flow cannot start: returns ``None`` and the engine's retry layer
        takes over (docs/robustness.md).
        """
        if src == dst:
            raise ValueError("self-sends never enter the network")
        if nbytes <= 0 or self._port_cap == _INF:
            # Zero-length messages, or an idealized beta == 0 machine:
            # the transfer completes instantly.
            self._schedule(now, lambda: self._complete(on_complete, now))
            return Flow(self._fidn(), src, dst, (), 0.0,
                        on_complete, now)

        fs = self._faults
        if fs is not None and fs.failed:
            route = self._degraded_route(src, dst, fs)
            if route is None:
                return None
        else:
            route = self._route_cache.get((src, dst))
            if route is None:
                route = self._intern_route(src, dst)
        flow = Flow(self._fidn(), src, dst, route, nbytes,
                    on_complete, now)
        self._active[flow] = None
        res_flows = self._res_flows
        for rid in route:
            res_flows[rid][flow] = None
        self.flows_started += 1
        self.bytes_carried += nbytes
        if self._mev is not None:
            self._mev((now, route, nbytes))
        self._recompute_component(flow, now)
        return flow

    def active_flow_count(self) -> int:
        return len(self._active)

    def resources_of(self, flow: Flow) -> Tuple[Resource, ...]:
        """The resource tuples of a flow's route (un-interned view)."""
        return tuple(self._res_list[rid] for rid in flow.route)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _intern_route(self, src: int, dst: int) -> Tuple[int, ...]:
        route = self._intern_path(src, dst, self.topology.route(src, dst))
        self._route_cache[(src, dst)] = route
        return route

    def _intern_path(self, src: int, dst: int, chans) -> Tuple[int, ...]:
        res: List[Resource] = [("inj", src)]
        res.extend(("ch",) + ch for ch in chans)
        res.append(("ej", dst))
        return tuple(self._intern(r) for r in res)

    def _intern(self, r: Resource) -> int:
        rid = self._res_index.get(r)
        if rid is None:
            rid = len(self._res_list)
            self._res_index[r] = rid
            self._res_list.append(r)
            if r[0] in ("inj", "ej"):
                cap = self._port_cap
            else:
                cap = self._chan_cap
                # A channel first used while a slowdown is in force must
                # be born degraded; apply_slowdown only touches channels
                # that were already interned.
                fs = self._faults
                if fs is not None and fs.slow:
                    factor = fs.slow.get((r[1], r[2]))
                    if factor:
                        cap = self._chan_cap / factor
            self._res_cap.append(cap)
            self._cap_dirty = True
            self._res_flows.append({})
            self._bfs_rstamp.append(0)
            self._wf_rstamp.append(0)
            self._wf_rpos.append(0)
        return rid

    def _route_np_of(self, route: Tuple[int, ...]) -> np.ndarray:
        a = self._route_np_cache.get(route)
        if a is None:
            a = np.array(route, dtype=np.intp)
            self._route_np_cache[route] = a
        return a

    # ------------------------------------------------------------------
    # fault hooks (driven by the engine; see docs/robustness.md)
    # ------------------------------------------------------------------

    def _degraded_route(self, src: int, dst: int, fs) -> \
            Optional[Tuple[int, ...]]:
        """Interned route avoiding currently-failed channels, or None."""
        route = self._degraded_routes.get((src, dst))
        if route is None:
            chans = self.topology.route_avoiding(src, dst, fs.failed)
            if chans is None:
                route = _NO_ROUTE
            else:
                route = self._intern_path(src, dst, chans)
            self._degraded_routes[(src, dst)] = route
        return None if route is _NO_ROUTE else route

    def fault_routes_changed(self) -> None:
        """Flush degraded-route cache after the failed-link set changed."""
        self._degraded_routes.clear()

    def apply_slowdown(self, u: int, v: int, factor: Optional[float],
                       now: float) -> None:
        """Divide channel ``(u, v)`` bandwidth by ``factor`` (None
        restores full capacity) and rerate flows currently crossing it."""
        rid = self._res_index.get(("ch", u, v))
        if rid is None:
            return  # not interned yet; _intern will pick up fs.slow
        self._res_cap[rid] = (self._chan_cap if factor is None
                              else self._chan_cap / factor)
        self._cap_dirty = True
        self._fill_memo.clear()
        flows = self._res_flows[rid]
        if flows:
            # Any flow on the channel seeds the component walk; the walk
            # reaches everything transitively sharing a resource with it.
            self._recompute_component(next(iter(flows)), now)

    def abort_flows_crossing(self, chans, now: float) -> List[Flow]:
        """Kill every in-flight flow whose route uses one of ``chans``
        (a link just failed mid-transfer).  Survivors sharing resources
        with the victims get their rates raised.  Returns the victims;
        ``flow.on_complete`` is the engine's completion token, which the
        retry layer uses to retransmit."""
        victims: Dict[Flow, None] = {}
        for ch in chans:
            rid = self._res_index.get(("ch",) + tuple(ch))
            if rid is None:
                continue
            for f in self._res_flows[rid]:
                victims[f] = None
        return self._abort(list(victims), now)

    def abort_flows_of_node(self, node: int, now: float) -> List[Flow]:
        """Kill every in-flight flow to or from a crashed node."""
        victims = [f for f in self._active
                   if f.src == node or f.dst == node]
        return self._abort(victims, now)

    def _abort(self, victims: List[Flow], now: float) -> List[Flow]:
        for f in victims:
            f.settle(now)
            f.epoch += 1  # orphan any scheduled completion event
            self._remove(f, now)
        for f in victims:
            # removed-seed recompute: raise the survivors' rates
            self._recompute_component(f, now)
        return victims

    def _component(self, seed: Flow) -> List[Flow]:
        """All active flows transitively sharing a resource with ``seed``.

        When the seed has just been removed from the network, the
        component is seeded from its route's resources so that the flows
        it was sharing with get their rates raised.  Flows are returned
        in deterministic discovery order.
        """
        self._stamp += 1
        stamp = self._stamp
        rstamp = self._bfs_rstamp
        res_flows = self._res_flows
        comp: List[Flow] = []
        flow_stack: List[Flow] = []
        if seed in self._active:
            seed._cstamp = stamp
            flow_stack.append(seed)
        res_stack: List[int] = list(seed.route)
        while flow_stack or res_stack:
            if flow_stack:
                f = flow_stack.pop()
                comp.append(f)
                for rid in f.route:
                    # a resource whose only flow is ``f`` adds no flow
                    if rstamp[rid] != stamp and len(res_flows[rid]) > 1:
                        res_stack.append(rid)
            else:
                rid = res_stack.pop()
                if rstamp[rid] == stamp:
                    continue
                rstamp[rid] = stamp
                for f in res_flows[rid]:
                    if f._cstamp != stamp:
                        f._cstamp = stamp
                        flow_stack.append(f)
        return comp

    def _recompute_component(self, seed: Flow, now: float) -> None:
        """Re-run water-filling for the component touched by ``seed``."""
        res_flows = self._res_flows
        if seed in self._active:
            # Fast path: the seed shares no resource with any other flow
            # (the common conflict-free case) — its rate is the minimum
            # of its resources' full capacities, exactly what the
            # general progressive filling would compute for a singleton
            # component.
            for rid in seed.route:
                if len(res_flows[rid]) > 1:
                    break
            else:
                self.rate_recomputations += 1
                seed.settle(now)
                cap = self._res_cap
                rate = _INF
                for rid in seed.route:
                    c = cap[rid]
                    if c < rate:
                        rate = c
                seed.rate = rate
                self._reschedule(seed, now)
                return
            comp = self._component(seed)
        else:
            # Fast path: the seed has just been removed and none of its
            # resources carry another flow — nothing to recompute.
            for rid in seed.route:
                if res_flows[rid]:
                    break
            else:
                return
            comp = self._component(seed)
            if not comp:
                return
        self.rate_recomputations += 1
        # Settle transferred bytes at the old rates before changing them.
        for f in comp:
            f.settle(now)

        # Progressive filling (max-min fairness).  Only the resources
        # used by component flows matter; by construction no flow
        # outside the component crosses them.  The rates depend only on
        # the ordered routes and the capacities, so a component seen
        # before reuses its stored rates.  Otherwise two interchangeable
        # inner loops compute the same rates bit-for-bit: the vectorized
        # one wins once the component carries enough flows, the scalar
        # one below the crossover (and always under REPRO_SIM_SCALAR=1).
        key = tuple([f.route for f in comp])
        rates = self._fill_memo.get(key)
        if rates is not None:
            for f, r in zip(comp, rates):
                f.rate = r
        else:
            if self._vec and len(comp) >= self._vec_min:
                self._fill_vectorized(comp)
            else:
                self._fill_scalar(comp)
            self._fill_memo[key] = [f.rate for f in comp]

        # Reschedule completion events at the new rates.
        for f in comp:
            self._reschedule(f, now)

    def _fill_scalar(self, comp: List[Flow]) -> None:
        """Textbook progressive filling over Python scratch lists.

        Capacities and counts live in scratch arrays indexed by
        first-seen position; the arithmetic (one division per resource
        per scan, one clamped subtraction per fixed flow per resource)
        is identical to the textbook formulation, so results match it
        bit-for-bit.
        """
        res_flows = self._res_flows
        self._stamp += 1
        stamp = self._stamp
        rstamp = self._wf_rstamp
        rpos = self._wf_rpos
        cap_full = self._res_cap
        rids: List[int] = []
        caps: List[float] = []
        cnts: List[int] = []
        for f in comp:
            for rid in f.route:
                if rstamp[rid] != stamp:
                    rstamp[rid] = stamp
                    rpos[rid] = len(rids)
                    rids.append(rid)
                    caps.append(cap_full[rid])
                    cnts.append(1)
                else:
                    cnts[rpos[rid]] += 1

        nleft = len(comp)
        nres = len(rids)
        while nleft:
            bottleneck_share = _INF
            bottleneck = -1
            for i in range(nres):
                c = cnts[i]
                if c > 0:
                    share = caps[i] / c
                    if share < bottleneck_share:
                        bottleneck_share = share
                        bottleneck = i
            if bottleneck < 0:
                # No constraining resources left (cannot happen while
                # unfixed flows remain, since every flow crosses >= 2
                # resources) — defensive break.
                for f in comp:
                    if f._fstamp != stamp:
                        f._fstamp = stamp
                        f.rate = _INF
                break
            for f in list(res_flows[rids[bottleneck]]):
                if f._fstamp != stamp:
                    f._fstamp = stamp
                    f.rate = bottleneck_share
                    nleft -= 1
                    for rid in f.route:
                        i = rpos[rid]
                        nc = caps[i] - bottleneck_share
                        caps[i] = nc if nc > 0.0 else 0.0
                        cnts[i] -= 1

    def _fill_vectorized(self, comp: List[Flow]) -> None:
        """Progressive filling over flat numpy arrays.

        Same algorithm as :meth:`_fill_scalar`, restated over a dense
        flow x resource incidence (CSR-by-resource).  Bit-identity with
        the scalar loop holds because every floating-point operation is
        preserved: the bottleneck is the first resource with the
        strictly smallest ``caps/cnts`` ratio (``argmin`` first-
        occurrence semantics over first-seen resource order), every
        newly fixed flow receives the same IEEE-754 quotient, and
        capacity drains as *sequential* clamped subtractions — one per
        route occurrence — never a fused ``caps -= k*share``, which
        would reassociate.
        """
        if self._cap_dirty:
            self._cap_np = np.array(self._res_cap, dtype=np.float64)
            self._cap_dirty = False
        nflows = len(comp)
        routes = []
        for f in comp:
            a = f.route_np
            if a is None:
                a = f.route_np = self._route_np_of(f.route)
            routes.append(a)
        lens = np.fromiter((len(r) for r in routes), dtype=np.intp,
                           count=nflows)
        all_rids = np.concatenate(routes)
        # Unique resources in *first-seen* order (np.unique sorts, which
        # would silently change bottleneck tie-breaking).
        uniq, first = np.unique(all_rids, return_index=True)
        rids = uniq[np.argsort(first, kind="stable")]
        nres = len(rids)
        gmap = self._gmap
        if len(gmap) < len(self._res_list):
            gmap = self._gmap = np.empty(
                max(64, 2 * len(self._res_list)), dtype=np.intp)
        gmap[rids] = np.arange(nres, dtype=np.intp)
        inc = gmap[all_rids]
        cnts = np.bincount(inc, minlength=nres)
        inc_flow = np.repeat(np.arange(nflows, dtype=np.intp), lens)
        by_res = np.argsort(inc, kind="stable")
        flows_by_res = inc_flow[by_res].tolist()
        ptr = np.zeros(nres + 1, dtype=np.intp)
        np.cumsum(cnts, out=ptr[1:])
        ptr_l = ptr.tolist()
        # CSR by flow: flow fi's local resources are
        # ``inc_l[off_l[fi]:off_l[fi+1]]``.
        off = np.zeros(nflows + 1, dtype=np.intp)
        np.cumsum(lens, out=off[1:])
        off_l = off.tolist()
        inc_l = inc.tolist()
        fixed = [False] * nflows
        rates = [0.0] * nflows
        cnts_l = cnts.tolist()
        caps_l = self._cap_np[rids].tolist()
        # The bottleneck scan is the only numpy work per round: a bare
        # C argmin over a fair-share array that is maintained
        # *incrementally* — a resource's share ``caps/cnts`` only
        # changes when the round's drain touches it, and division is
        # deterministic, so the array always equals what the scalar
        # loop recomputes from scratch each round.  Saturated resources
        # (cnt == 0) carry ``inf``, exactly the entries the scalar scan
        # skips (its strict ``<`` against an ``inf`` starting point
        # never selects an infinite share).
        shares = np.empty(nres, dtype=np.float64)
        shares_seed = [caps_l[i] / cnts_l[i] for i in range(nres)]
        shares[:] = shares_seed
        nleft = nflows
        while nleft:
            b = int(np.argmin(shares))
            s = float(shares[b])
            if s == _INF:
                # Defensive branch mirroring the scalar loop: no
                # constraining resource selectable while flows remain.
                for fi in range(nflows):
                    if not fixed[fi]:
                        rates[fi] = _INF
                break
            # Fix every unfixed flow crossing the bottleneck and drain
            # its route: one *sequential* clamped subtraction per route
            # occurrence (never a fused ``caps -= mult*s``, which would
            # reassociate).  Python-float arithmetic is bit-identical
            # to np.float64, so this inner walk matches the scalar
            # loop's exactly.
            touched = []
            for fi in flows_by_res[ptr_l[b]:ptr_l[b + 1]]:
                if not fixed[fi]:
                    fixed[fi] = True
                    rates[fi] = s
                    nleft -= 1
                    for o in range(off_l[fi], off_l[fi + 1]):
                        i = inc_l[o]
                        nc = caps_l[i] - s
                        caps_l[i] = nc if nc > 0.0 else 0.0
                        cnts_l[i] -= 1
                        touched.append(i)
            shares[touched] = [
                caps_l[i] / c if (c := cnts_l[i]) > 0 else _INF
                for i in touched]
        for f, r in zip(comp, rates):
            f.rate = r

    def _reschedule(self, flow: Flow, now: float) -> None:
        """Schedule the flow's completion — unless an event carrying the
        flow's current epoch is already pending at the bit-identical
        time, in which case that event is kept (completion behaviour is
        unchanged: the handler settles from current state)."""
        t = flow.eta(now)
        if t == flow._sched_at and flow._sched_epoch == flow.epoch:
            return
        flow.epoch += 1
        if t != _INF:
            flow._sched_at = t
            flow._sched_epoch = flow.epoch
            self._schedule_completion(t, flow, flow.epoch)
        else:
            flow._sched_at = -1.0
            flow._sched_epoch = -1

    def fire_completion(self, flow: Flow, epoch: int, when: float) -> None:
        """Handle a scheduled completion event (engine callback)."""
        if flow.epoch != epoch or flow not in self._active:
            return  # stale event from before a rate change
        # settle and verify the flow really drained
        flow.settle(when)
        if flow.remaining > _EPS_BYTES:
            # Floating-point residue: a few bytes remain because the
            # settle arithmetic differs slightly from the eta that
            # scheduled this event.  Stream the tail out rather than
            # waiting for an event that may never come — unless the
            # tail is so small that its ETA cannot advance the clock,
            # in which case the flow is done for all purposes.
            flow.epoch += 1
            t = flow.eta(when)
            advances = t > when + 1e-12 * max(1.0, abs(when))
            if t != _INF and advances:
                flow._sched_at = t
                flow._sched_epoch = flow.epoch
                self._schedule_completion(t, flow, flow.epoch)
                return
            flow.remaining = 0.0
        self._remove(flow, when)
        self._recompute_component(flow, when)
        self._complete(flow.on_complete, when)

    def _remove(self, flow: Flow, when: float) -> None:
        self._active.pop(flow, None)
        res_flows = self._res_flows
        for rid in flow.route:
            res_flows[rid].pop(flow, None)
        if self._mev is not None:
            self._mev((when, flow.route, None))

    def metrics_snapshot(self):
        """Per-resource stats keyed by resource tuple, or None when no
        metrics collector is attached."""
        if self.metrics is None:
            return None
        return self.metrics.snapshot(self._res_list)
