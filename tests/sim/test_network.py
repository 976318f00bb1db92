"""Tests for the fluid-flow network: the section 2 sharing semantics.

These tests pin the simulator to the paper's model: conflict-free
messages run at full injection bandwidth; messages sharing a channel
split it max-min fairly; the Paragon's excess link capacity lets several
messages coexist penalty-free.
"""

import heapq
import itertools
import random

import numpy as np
import pytest

from repro.sim import (FullyConnected, LinearArray, Machine, Mesh2D,
                       MachineParams, UNIT)
from repro.sim.network import _EPS_BYTES, Flow, FluidNetwork


def timed_sends(machine, sends, nbytes):
    """Run a program where each (src, dst) in ``sends`` transfers
    ``nbytes`` bytes starting at t=0; returns elapsed time."""
    by_src = {}
    by_dst = {}
    for s, d in sends:
        by_src.setdefault(s, []).append(d)
        by_dst.setdefault(d, []).append(s)

    def prog(env):
        reqs = []
        for d in by_src.get(env.rank, []):
            reqs.append(env.isend(d, np.zeros(nbytes, dtype=np.uint8)))
        for s in by_dst.get(env.rank, []):
            reqs.append(env.irecv(s))
        if reqs:
            yield env.waitall(*reqs)

    return machine.run(prog).time


class TestConflictFree:
    def test_single_transfer_costs_alpha_plus_n_beta(self):
        m = Machine(LinearArray(4), UNIT)
        assert timed_sends(m, [(0, 3)], 100) == pytest.approx(101.0)

    def test_disjoint_transfers_do_not_interact(self):
        m = Machine(LinearArray(6), UNIT)
        t = timed_sends(m, [(0, 1), (2, 3), (4, 5)], 50)
        assert t == pytest.approx(51.0)

    def test_opposite_directions_full_speed(self):
        # forward and backward traffic use independent channels
        m = Machine(LinearArray(4), UNIT)
        t = timed_sends(m, [(0, 3), (3, 0)], 80)
        assert t == pytest.approx(81.0)

    def test_distance_does_not_matter(self):
        # wormhole routing: alpha + n beta regardless of hops
        m = Machine(LinearArray(32), UNIT)
        near = timed_sends(m, [(0, 1)], 64)
        far = timed_sends(m, [(0, 31)], 64)
        assert near == far


class TestChannelSharing:
    def test_two_flows_share_a_channel_at_half_rate(self):
        # 0->2 and 1->3 both cross channel (1,2)
        m = Machine(LinearArray(4), UNIT)
        t = timed_sends(m, [(0, 2), (1, 3)], 100)
        assert t == pytest.approx(1 + 200.0)

    def test_three_flows_one_channel(self):
        m = Machine(LinearArray(6), UNIT)
        t = timed_sends(m, [(0, 3), (1, 4), (2, 5)], 60)
        # all cross (2,3): one third rate each
        assert t == pytest.approx(1 + 180.0)

    def test_rates_rise_when_a_flow_finishes(self):
        # short flow shares, then the long one speeds back up:
        # both start at rate 1/2; the 50-byte flow ends at 1+100;
        # the 150-byte one then has 100 left at full rate.
        m = Machine(LinearArray(4), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(2, np.zeros(50, dtype=np.uint8))
            elif env.rank == 1:
                yield env.send(3, np.zeros(150, dtype=np.uint8))
            elif env.rank == 2:
                yield env.recv(0)
            elif env.rank == 3:
                yield env.recv(1)

        assert m.run(prog).time == pytest.approx(1 + 100 + 100)

    def test_max_min_not_bottlenecked_flows_keep_full_rate(self):
        # 0->2 and 1->3 share (1,2); 4->5 is independent and must not
        # be slowed by the others.
        m = Machine(LinearArray(6), UNIT, trace=True)
        res_t = None

        def prog(env):
            if env.rank == 0:
                yield env.send(2, np.zeros(100, dtype=np.uint8))
            elif env.rank == 1:
                yield env.send(3, np.zeros(100, dtype=np.uint8))
            elif env.rank == 4:
                yield env.send(5, np.zeros(100, dtype=np.uint8))
            elif env.rank in (2, 3):
                yield env.recv(env.rank - 2)
            elif env.rank == 5:
                yield env.recv(4)

        run = m.run(prog)
        done = {(r.src, r.dst): r.t_complete for r in run.trace.completed()}
        assert done[(4, 5)] == pytest.approx(101.0)
        assert done[(0, 2)] == pytest.approx(201.0)


class TestInjectionEjectionPorts:
    def test_two_sends_from_one_node_share_injection(self):
        m = Machine(FullyConnected(3), UNIT)
        t = timed_sends(m, [(0, 1), (0, 2)], 100)
        assert t == pytest.approx(1 + 200.0)

    def test_two_recvs_at_one_node_share_ejection(self):
        m = Machine(FullyConnected(3), UNIT)
        t = timed_sends(m, [(1, 0), (2, 0)], 100)
        assert t == pytest.approx(1 + 200.0)

    def test_send_and_recv_simultaneously_full_rate(self):
        # section 2: "A processor can both send and receive at the same
        # time."
        m = Machine(FullyConnected(3), UNIT)
        t = timed_sends(m, [(0, 1), (2, 0)], 100)
        assert t == pytest.approx(101.0)


class TestExcessLinkCapacity:
    def test_capacity_two_carries_two_flows_penalty_free(self):
        # section 7.1: Paragon links carry several messages unpenalized
        params = UNIT.with_(link_capacity=2.0)
        m = Machine(LinearArray(4), params)
        t = timed_sends(m, [(0, 2), (1, 3)], 100)
        assert t == pytest.approx(101.0)

    def test_capacity_two_with_three_flows_shares(self):
        params = UNIT.with_(link_capacity=2.0)
        m = Machine(LinearArray(6), params)
        t = timed_sends(m, [(0, 3), (1, 4), (2, 5)], 100)
        # channel rate 2.0 split three ways -> 2/3 each
        assert t == pytest.approx(1 + 150.0)

    def test_ports_still_bind_at_high_link_capacity(self):
        params = UNIT.with_(link_capacity=100.0)
        m = Machine(FullyConnected(3), params)
        t = timed_sends(m, [(0, 1), (0, 2)], 100)
        assert t == pytest.approx(1 + 200.0)


class TestMeshConflicts:
    def test_row_traffic_in_distinct_rows_is_free(self):
        m = Machine(Mesh2D(4, 4), UNIT)
        sends = [(4 * r, 4 * r + 3) for r in range(4)]
        assert timed_sends(m, sends, 100) == pytest.approx(101.0)

    def test_interleaved_row_traffic_shares(self):
        # 0->2 and 1->3 in row 0 share channel (1,2)
        m = Machine(Mesh2D(2, 4), UNIT)
        t = timed_sends(m, [(0, 2), (1, 3)], 100)
        assert t == pytest.approx(201.0)

    def test_xy_routing_conflict(self):
        # (0,0)->(1,1) routes through (0,1); (0,1)->(1,1)'s column hop
        # uses the same vertical channel (0,1)->(1,1).
        m = Machine(Mesh2D(2, 2), UNIT)
        t = timed_sends(m, [(0, 3), (1, 3)], 100)
        # both share the vertical channel into node 3 *and* node 3's
        # ejection port -> half rate
        assert t == pytest.approx(201.0)


class TestZeroByteAndEdgeCases:
    def test_zero_byte_message_costs_alpha(self):
        m = Machine(LinearArray(2), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, None)
            else:
                data = yield env.recv(0)
                assert data is None

        assert m.run(prog).time == pytest.approx(1.0)

    def test_infinite_bandwidth_machine(self):
        m = Machine(LinearArray(2), MachineParams(alpha=1.0, beta=0.0))

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(10 ** 6, dtype=np.uint8))
            else:
                yield env.recv(0)

        assert m.run(prog).time == pytest.approx(1.0)

    def test_statistics_accumulate(self):
        m = Machine(LinearArray(4), UNIT)

        def prog(env):
            if env.rank == 0:
                yield env.send(1, np.zeros(10, dtype=np.uint8))
                yield env.send(2, np.zeros(20, dtype=np.uint8))
            elif env.rank in (1, 2):
                yield env.recv(0)

        run = m.run(prog)
        assert run.messages == 2
        assert run.bytes_moved == pytest.approx(30.0)


class TestFloatDriftClamp:
    """Regression tests for the ``Flow.settle`` epsilon clamp.

    Repeated rate changes settle a flow many times; the subtractions can
    underflow to a tiny positive or *negative* remainder.  Before the
    clamp, such a stale sub-epsilon residue could keep a "live" flow
    whose eta() no longer advances the clock, scheduling zero-duration
    completion epochs.  ``settle`` now snaps any residue below
    ``_EPS_BYTES`` to exactly zero.
    """

    def test_settle_clamps_negative_drift_to_exact_zero(self):
        f = Flow(0, 0, 1, (), 0.3, lambda t: None, 0.0)
        f.rate = 0.1
        for k in range(1, 4):          # 0.3 - 3*0.1 < 0 in binary fp
            f.settle(float(k))
        assert f.remaining == 0.0      # exactly, not approximately
        assert f.eta(3.0) == 3.0

    def test_settle_clamps_subeps_residue_to_exact_zero(self):
        f = Flow(0, 0, 1, (), 1.0, lambda t: None, 0.0)
        f.rate = 1.0 / 3.0
        f.settle(2.9999999999999996)   # leaves ~2e-16 bytes
        assert f.remaining == 0.0

    def test_settle_keeps_real_residue(self):
        f = Flow(0, 0, 1, (), 100.0, lambda t: None, 0.0)
        f.rate = 1.0
        f.settle(40.0)
        assert f.remaining == pytest.approx(60.0)
        assert f.remaining > _EPS_BYTES

    def _drive_standalone(self, topo, specs):
        """Run flows on a bare FluidNetwork under a minimal event loop;
        returns {(src, dst): [completion times]} and the event count."""
        heap = []
        ctr = itertools.count()

        def schedule(t, cb):
            heapq.heappush(heap, (t, next(ctr), cb))

        net = FluidNetwork(topo, UNIT, schedule)
        fired = {}

        def make_cb(key):
            def cb(t):
                fired.setdefault(key, []).append(t)
            return cb

        for s, d, nb in specs:
            net.start_flow(s, d, float(nb), 0.0, make_cb((s, d)))
        steps = 0
        limit = 20 * len(specs) + 50
        while heap:
            steps += 1
            assert steps < limit, "completion-event spin (stale epochs?)"
            _, _, cb = heapq.heappop(heap)
            cb()
        return net, fired, steps

    def test_adversarial_shared_channel_fires_each_flow_once(self):
        # four flows of coprime sizes through one channel: every finish
        # re-rates the rest (1/4 -> 1/3 -> 1/2 -> 1), settling repeatedly
        specs = [(0, 4, 61), (1, 5, 233), (2, 6, 397), (3, 7, 1009)]
        net, fired, _ = self._drive_standalone(LinearArray(8), specs)
        assert sorted(fired) == sorted((s, d) for s, d, _ in specs)
        assert all(len(v) == 1 for v in fired.values())
        assert net.active_flow_count() == 0

    def test_engine_rate_churn_bounded_events(self):
        # Dense random overlap: many mid-flight rate changes, fractional
        # shares.  Every message must complete and the event count must
        # stay linear in the message count (no zero-duration epochs).
        rng = random.Random(5)
        pairs = set()
        sends = []
        for _ in range(60):
            s, d = rng.randrange(10), rng.randrange(10)
            if s != d and (s, d) not in pairs:
                pairs.add((s, d))
                sends.append((s, d, rng.choice([61, 233, 997, 4093])))
        m = Machine(LinearArray(10), UNIT)

        def prog(env):
            reqs = []
            for s, d, nb in sends:
                if env.rank == s:
                    reqs.append(env.isend(d, np.zeros(nb, dtype=np.uint8)))
            for s, d, nb in sends:
                if env.rank == d:
                    reqs.append(env.irecv(s))
            if reqs:
                yield env.waitall(*reqs)

        run = m.run(prog)
        assert run.messages == len(sends)
        assert run.events <= 20 * run.messages + 4 * 10


class TestFillMemo:
    """Progressive-filling results are reused per component.

    The memo key is the component's ordered routes; the stored rates
    must be exactly what a fresh fill over the current capacities
    gives, whatever order the flows were inserted on each resource.
    """

    #: rightward transfers on LinearArray(8) that form one component
    SENDS = [(0, 5), (1, 4), (2, 7), (3, 6), (1, 3), (4, 6)]

    def _net(self, slow=()):
        net = FluidNetwork(LinearArray(8), UNIT, lambda t, cb: None)
        for s, d in self.SENDS:
            net._intern_route(s, d)
        for u, v, factor in slow:
            net.apply_slowdown(u, v, factor, 0.0)
        flows = [net.start_flow(s, d, 1000.0, 0.0, None)
                 for s, d in self.SENDS]
        # the component as the last start walked it
        comp = net._component(flows[-1])
        assert len(comp) == len(flows)
        return net, flows, comp

    def test_slowdown_recomputes_instead_of_reusing(self):
        net, flows, comp = self._net()
        before = [f.rate for f in flows]
        assert net._fill_memo[tuple(f.route for f in comp)] == \
            [f.rate for f in comp]
        net.apply_slowdown(3, 4, 3.0, 0.0)
        # walk the component in its first order again: the entry stored
        # before the slowdown must not come back
        net._recompute_component(flows[-1], 0.0)
        _, fresh, _ = self._net(slow=[(3, 4, 3.0)])
        after = [f.rate for f in flows]
        assert after == [f.rate for f in fresh]
        assert after != before
        # restoring the channel brings the original rates back
        net.apply_slowdown(3, 4, None, 0.0)
        net._recompute_component(flows[-1], 0.0)
        assert [f.rate for f in flows] == before

    @pytest.mark.parametrize("fill", ["_fill_scalar", "_fill_vectorized"])
    def test_hit_matches_direct_fill_in_any_insertion_order(
            self, fill, monkeypatch):
        net, flows, comp = self._net(slow=[(1, 2, 5.0), (3, 4, 3.0)])
        stored = list(net._fill_memo[tuple(f.route for f in comp)])
        # reverse each resource's flow order, then fill directly
        for rid, on in enumerate(net._res_flows):
            net._res_flows[rid] = dict.fromkeys(reversed(list(on)))
        for f in comp:
            f.rate = -1.0
        getattr(net, fill)(comp)
        direct = [f.rate for f in comp]
        assert direct == stored
        assert len(set(direct)) > 2
        # a recomputation of the same component is a hit: no fill runs
        for name in ("_fill_scalar", "_fill_vectorized"):
            monkeypatch.setattr(net, name, None)
        for f in comp:
            f.rate = -1.0
        recomputations = net.rate_recomputations
        net._recompute_component(flows[-1], 0.0)
        assert net.rate_recomputations == recomputations + 1
        assert [f.rate for f in comp] == direct
