"""Transport-layer tests: FIFO delivery, tag matching, eager sends.

The matching rule — receives match sends with the same ``(source,
tag)`` in FIFO order per pair — is the determinism contract both
backends share.  These tests pin it at the transport/env level, below
the collective algorithms.
"""

import gc
import multiprocessing
import socket
import struct
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.runtime import (ProcessMachine, RankError, RankTransport,
                           TcpMesh)
from repro.runtime.env import ProcessEnv


def _wired_pair():
    """Two wired RankTransports inside this process (no forking)."""
    ctx = multiprocessing.get_context("fork")
    a_end, b_end = ctx.Pipe(duplex=True)
    return RankTransport(0, 2, {1: a_end}), RankTransport(1, 2, {0: b_end})


_OPEN = []


def _pair_transports():
    """A wired pair, closed when the test ends."""
    pair = _wired_pair()
    _OPEN.extend(pair)
    return pair


@pytest.fixture(autouse=True)
def _close_transports():
    yield
    while _OPEN:  # receiver first, so no writer waits on a full socket
        _OPEN.pop().flush_and_close()


class _SlowWriterSocket:
    """Socket stand-in whose first blocking ``sendmsg`` — the writer
    thread's; inline sends pass a flag — starts 0.2 s late."""

    def __init__(self, sock):
        self._sock = sock
        self._delay = 0.2

    def sendmsg(self, buffers, *flags):
        if not flags:
            time.sleep(self._delay)
            self._delay = 0.0
        return self._sock.sendmsg(buffers, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _recv_all(tr, count, timeout=5.0):
    got = []
    deadline = time.monotonic() + timeout
    while len(got) < count:
        assert time.monotonic() < deadline, f"only {len(got)}/{count}"
        msg = tr.recv_any(timeout=0.05)
        if msg is not None:
            got.append(msg)
    return got


class TestRankTransport:
    def test_per_pair_fifo_order(self):
        ta, tb = _pair_transports()
        for i in range(100):
            ta.send(1, i % 5, i)
        got = _recv_all(tb, 100)
        # global per-pair order is preserved, hence per-(src, tag) too
        assert [payload for _, _, payload in got] == list(range(100))
        assert all(src == 0 and tag == payload % 5
                   for src, tag, payload in got)

    def test_self_send_is_local(self):
        ta, _ = _pair_transports()
        ta.send(0, 7, "hello")
        assert ta.recv_any(timeout=0.1) == (0, 7, "hello")

    def test_large_payloads_do_not_block_sender(self):
        # 2 MB is far beyond the OS pipe buffer: without the writer
        # thread, send() would block and this test would hang.
        ta, tb = _pair_transports()
        big = np.arange(256 * 1024, dtype=np.float64)  # 2 MiB
        t0 = time.monotonic()
        for k in range(3):
            ta.send(1, k, big * k)
        assert time.monotonic() - t0 < 1.0  # eager: no wire wait
        got = _recv_all(tb, 3, timeout=20.0)
        for k, (_, tag, payload) in enumerate(got):
            assert tag == k
            assert np.array_equal(payload, big * k)

    def test_backlogged_frame_keeps_fifo_with_later_small_frames(self):
        # 2 MB overflows the socket buffer, so its tail goes to the
        # writer thread, which is held up for 0.2 s.  Once the receiver
        # has freed buffer space there is room on the wire, yet the 50
        # small frames must queue behind the tail, not take it inline.
        ta, tb = _pair_transports()
        peer = ta._peers[1]
        peer.sock = _SlowWriterSocket(peer.sock)
        big = np.arange(256 * 1024, dtype=np.float64)
        ta.send(1, 0, big)
        time.sleep(0.05)                         # writer has the tail
        assert tb.recv_any(timeout=1.0) is None  # frees buffer space
        for i in range(50):
            ta.send(1, 1, i)
        assert ta.outbox_depth() == 51
        got = _recv_all(tb, 51, timeout=20.0)
        assert np.array_equal(got[0][2], big)
        assert [p for _, _, p in got[1:]] == list(range(50))
        assert [tag for _, tag, _ in got] == [0] + [1] * 50

    def test_backlog_rule_under_thread_switching(self):
        # Sender, writer and a draining receiver thread switch every
        # microsecond; every 7th frame (512 KB) backlogs.  A frame
        # written inline while the writer still holds an earlier tail
        # would corrupt the stream or reorder it.
        ta, tb = _pair_transports()
        got = []
        rx = threading.Thread(
            target=lambda: got.extend(_recv_all(tb, 300, timeout=30.0)))
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rx.start()
            for i in range(300):
                n = 64 * 1024 if i % 7 == 0 else 1
                ta.send(1, 0, np.full(n, float(i)))
            rx.join(60.0)
        finally:
            sys.setswitchinterval(old)
        assert not rx.is_alive()
        assert [p[0] for _, _, p in got] == [float(i) for i in range(300)]

    def test_backlogs_to_different_peers_cannot_deadlock(self):
        # Three ranks each send a 2 MB frame to their successor, then
        # one to their predecessor.  Both overflow the socket, so every
        # writer holds the successor's tail with the predecessor's
        # queued behind it.  Each rank polls its successor first.  A
        # receiver that blocked until a partial frame completed would
        # wait on a tail stuck behind a writer whose own peer waits
        # the same way, all round the ring.
        ctx = multiprocessing.get_context("fork")
        pipes = {(a, b): ctx.Pipe(duplex=True)
                 for a, b in ((0, 1), (1, 2), (0, 2))}

        def end(me, other):
            return pipes[(min(me, other), max(me, other))][int(me > other)]

        trs = [RankTransport(r, 3, {(r + 1) % 3: end(r, (r + 1) % 3),
                                    (r - 1) % 3: end(r, (r - 1) % 3)})
               for r in range(3)]
        _OPEN.extend(trs)
        big = np.arange(256 * 1024, dtype=np.float64)
        for r, tr in enumerate(trs):
            tr.send((r + 1) % 3, 0, big + r)
            tr.send((r - 1) % 3, 1, big - r)
        got = [[] for _ in trs]
        rx = [threading.Thread(
            target=lambda r=r: got[r].extend(_recv_all(trs[r], 2, 20.0)),
            daemon=True) for r in range(3)]
        for t in rx:
            t.start()
        for t in rx:
            t.join(30.0)
        assert not any(t.is_alive() for t in rx)
        for r in range(3):
            frames = {src: (tag, payload) for src, tag, payload in got[r]}
            tag, payload = frames[(r - 1) % 3]
            assert tag == 0 and np.array_equal(payload, big + (r - 1) % 3)
            tag, payload = frames[(r + 1) % 3]
            assert tag == 1 and np.array_equal(payload, big - (r + 1) % 3)

    def test_small_sends_to_draining_peer_stay_inline(self):
        ta, tb = _pair_transports()
        for i in range(200):
            ta.send(1, 0, np.full(1, float(i)))
            assert tb.recv_any(timeout=5.0)[2][0] == float(i)
        assert ta._writer is None
        assert ta.outbox_depth() == 0

    def test_close_both_ends_is_clean(self):
        unraisable = []
        old_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ta, tb = _wired_pair()
                ta.send(1, 0, "ping")
                tb.send(0, 0, "pong")
                assert _recv_all(tb, 1)[0][2] == "ping"
                assert _recv_all(ta, 1)[0][2] == "pong"
                ta.flush_and_close()
                tb.flush_and_close()
                del ta, tb
                gc.collect()
        finally:
            sys.unraisablehook = old_hook
        assert unraisable == []
        assert [str(w.message) for w in caught] == []

    def test_flush_and_close_delivers_queued_frames(self):
        ta, tb = _pair_transports()
        for i in range(10):
            ta.send(1, 0, i)
        ta.flush_and_close()
        got = _recv_all(tb, 10)
        assert [p for _, _, p in got] == list(range(10))


class TestTcpTransport:
    def test_tcp_sockets_disable_nagle(self):
        """Small frames after a partial write must not wait for the
        peer's delayed ACK."""
        rendezvous = TcpMesh.make_rendezvous(2)
        got = {}
        peer = threading.Thread(target=lambda: got.setdefault(
            1, TcpMesh.connect(1, [0, 1], rendezvous.address)))
        peer.start()
        got[0] = TcpMesh.connect(0, [0, 1], rendezvous.address,
                                 rendezvous_listener=rendezvous)
        peer.join(timeout=10)
        assert not peer.is_alive()
        _OPEN.extend((got[0], got[1]))
        for tr in got.values():
            for p in tr._peers.values():
                assert p.sock.family == socket.AF_INET
                assert p.sock.getsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_NODELAY)
        got[0].send(1, 7, "ping")
        assert _recv_all(got[1], 1) == [(0, 7, "ping")]


class TestEnvMatching:
    """(source, tag) FIFO matching at the ProcessEnv layer."""

    def _loopback_env(self):
        t0, t1 = _pair_transports()
        return (ProcessEnv(0, 2, t0, poll=0.01),
                ProcessEnv(1, 2, t1, poll=0.01))

    def test_unexpected_messages_match_posted_recvs_by_tag(self):
        e0, e1 = self._loopback_env()
        # sends arrive before any recv is posted, in tag order 5 then 3
        e0.isend(1, "tag5-payload", tag=5)
        e0.isend(1, "tag3-payload", tag=3)
        time.sleep(0.1)
        # recvs posted in the *opposite* order still match by tag
        h3 = e1.irecv(0, tag=3)
        h5 = e1.irecv(0, tag=5)
        assert e1.execute(e1.waitall(h3, h5)) == ["tag3-payload",
                                                 "tag5-payload"]

    def test_same_tag_matches_fifo(self):
        e0, e1 = self._loopback_env()
        for i in range(5):
            e0.isend(1, f"msg{i}", tag=9)
        handles = [e1.irecv(0, tag=9) for _ in range(5)]
        assert e1.execute(e1.waitall(*handles)) == [f"msg{i}"
                                                   for i in range(5)]

    def test_single_recv_returns_bare_payload(self):
        e0, e1 = self._loopback_env()
        e0.isend(1, 42, tag=0)
        assert e1.execute(e1.recv(0, tag=0)) == 42

    def test_peer_range_checked(self):
        e0, _ = self._loopback_env()
        with pytest.raises(ValueError, match="out of range"):
            e0.isend(5, b"x")
        with pytest.raises(ValueError, match="out of range"):
            e0.irecv(-1)


class TestAcrossProcesses:
    """The same guarantees over real forked rank processes."""

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_interleaved_tags_across_processes(self, transport):
        def prog(env):
            if env.rank == 0:
                for i in range(20):
                    env.isend(1, (i, "a"), tag=i % 2)
                yield env.delay(0.0)
                return None
            a = [env.irecv(0, tag=0) for _ in range(10)]
            b = [env.irecv(0, tag=1) for _ in range(10)]
            got = yield env.waitall(a, b)
            return got

        m = ProcessMachine(2, transport=transport, timeout=20)
        res = m.run(prog)
        got = res.results[1]
        assert [v for v, _ in got[:10]] == list(range(0, 20, 2))
        assert [v for v, _ in got[10:]] == list(range(1, 20, 2))

    def test_simultaneous_large_exchange_no_deadlock(self):
        # Both ranks eagerly send ~4 MB before posting their receives:
        # deadlocks unless sends are buffered off the pipe.
        def prog(env):
            other = 1 - env.rank
            big = np.full(512 * 1024, float(env.rank + 1))
            h = env.isend(other, big, tag=0)
            got = yield env.waitall(h, env.irecv(other, tag=0))
            return float(got[1][0])

        res = ProcessMachine(2, timeout=30).run(prog)
        assert res.results[0] == 2.0 and res.results[1] == 1.0


class TestTransportChaos:
    """Malformed traffic on the wire ends in a typed diagnosis."""

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_truncated_frame_then_exit(self, transport):
        # Rank 1 promises a 1000-byte frame, writes 12 bytes of it and
        # exits; rank 0 is waiting for a message from rank 1.
        def prog(env):
            if env.rank == 1:
                sock = env._transport._peers[0].sock
                sock.sendall(struct.pack("!i", 1000) + b"\x80\x05" * 6)
                yield env.delay(0.0)
                return "exited"
            got = yield env.recv(1, tag=0)
            return got

        t0 = time.monotonic()
        with pytest.raises(RankError) as ei:
            ProcessMachine(2, transport=transport, timeout=3.0,
                           hard_grace=1.0).run(prog)
        assert time.monotonic() - t0 < 3.0
        assert set(ei.value.failures) == {0}
        assert "TransportError" in ei.value.failures[0]
        assert "peer 1 closed its connection mid-frame" in \
            ei.value.failures[0]
