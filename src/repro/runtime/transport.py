"""Transport layer for the real multi-process backend.

A transport moves pickled ``(tag, payload)`` frames between rank
processes with **per-pair FIFO ordering** — the delivery guarantee the
matching rule of :mod:`repro.core.protocol` is built on.  Matching
itself (``(source, tag)`` FIFO) lives in
:class:`~repro.runtime.env.ProcessEnv`; the transport only promises
that frames from one sender arrive in the order they were sent.

Two implementations share the per-rank interface:

* :class:`LocalMesh` — a full mesh of ``multiprocessing`` pipes for
  single-host runs (created in the launcher parent, adopted by forked
  children);
* :class:`TcpMesh` — TCP sockets with a rank-0 rendezvous, behind the
  same interface, for multi-host use (addresses are exchanged through
  a rendezvous listener, then the full mesh is wired pairwise; the
  adopted sockets run with ``TCP_NODELAY``).

Both hand :class:`RankTransport` stream sockets (a duplex
``multiprocessing`` pipe is a socketpair), which it adopts and drives
directly.  Frames use the wire format of
``multiprocessing.connection.Connection``: a 4-byte big-endian length
(``-1`` then an 8-byte length above 2**31 - 1), then the pickle.

Sends are **eager**: ``RankTransport.send`` pickles the frame and
writes it inline with a non-blocking send, so a small message costs
one syscall on the rank's own thread.  Whatever the socket will not
take at once — the tail of a large frame, or a whole frame when the
peer's buffer is full — goes to a *backlog* drained by a background
writer thread, and every later frame for that peer queues behind it
until the writer has written it.  A rank can therefore post
arbitrarily large ``isend``s without ever blocking in a write, and
per-pair FIFO order holds.  (A rank blocked in ``waitall`` keeps
draining its inbound connections, which is what unblocks its peers'
writers.)  Receives poll one ``select.poll`` set and read whatever each
ready socket holds without blocking, keeping a partial frame until the
rest arrives.  A rank must never block on one peer's partial frame:
that frame's tail may sit in the peer's backlog behind a frame to a
third rank, which may itself be blocked the same way (a cycle that
``Connection.recv_bytes`` would deadlock on).
"""

from __future__ import annotations

import os
import pickle
import select
import socket
import struct
import threading
import time
from collections import deque
from multiprocessing.connection import Client, Connection, Listener
from typing import Any, Dict, Optional, Tuple

_LEN = struct.Struct("!i")
_LONG_LEN = struct.Struct("!iQ")


class TransportError(RuntimeError):
    """A transport-level failure (peer vanished, wiring failed)."""


def _unsent(bufs, sent: int) -> list:
    """What is left of the buffer list ``bufs`` once ``sent`` bytes of
    it have been written."""
    rest = []
    for b in bufs:
        if sent >= len(b):
            sent -= len(b)
        else:
            rest.append(memoryview(b)[sent:] if sent else b)
            sent = 0
    return rest


class _Peer:
    """One connection: the adopted socket, the bytes of a frame still
    arriving, and how many of our frames wait in the writer's backlog."""

    __slots__ = ("rank", "sock", "partial", "backlog")

    def __init__(self, rank: int, sock: socket.socket):
        self.rank = rank
        self.sock = sock
        self.partial = bytearray()
        self.backlog = 0


class RankTransport:
    """One rank's view of the mesh: per-peer FIFO connections.

    Takes ownership of ``conns``: each connection's socket is duplicated
    into a :class:`socket.socket` and the connection object is closed.
    ``send`` may be called from the rank's main thread only; it writes
    inline unless that peer has a backlog, which a single background
    writer thread (started lazily) drains in order.  ``recv_any``
    returns one ``(src, tag, payload)`` frame at a time.
    """

    def __init__(self, rank: int, nranks: int,
                 conns: Dict[int, Connection]):
        self.rank = rank
        self.nranks = nranks
        self._peers: Dict[int, _Peer] = {}
        self._by_fd: Dict[int, _Peer] = {}
        self._poller = select.poll()
        rcvbuf = 0
        for peer, conn in conns.items():
            sock = socket.socket(fileno=os.dup(conn.fileno()))
            conn.close()
            if sock.family == socket.AF_INET:
                # without it Nagle holds a small frame that follows a
                # partial write until the peer's delayed ACK
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._peers[peer] = self._by_fd[sock.fileno()] = \
                _Peer(peer, sock)
            self._poller.register(sock, select.POLLIN)
            rcvbuf = max(rcvbuf, sock.getsockopt(socket.SOL_SOCKET,
                                                 socket.SO_RCVBUF))
        # one read takes at most what a socket's receive buffer holds
        self._chunk = memoryview(bytearray(rcvbuf))
        self._inbox: deque = deque()
        self._outbox: deque = deque()
        self._cv = threading.Condition()
        self._writer: Optional[threading.Thread] = None
        self._closing = False

    # --- sending ---------------------------------------------------------

    def send(self, dst: int, tag: int, payload: Any,
             nbytes: float = 0.0) -> None:
        """Send a frame to ``dst``; never blocks on the wire."""
        if dst == self.rank:
            # Local "transfer": a memory reference hand-off, same as the
            # simulator's free self-send.
            self._inbox.append((self.rank, tag, payload))
            return
        body = pickle.dumps((tag, payload), protocol=5)
        n = len(body)
        frame = [_LEN.pack(n) if n <= 0x7FFFFFFF else _LONG_LEN.pack(-1, n),
                 body]
        peer = self._peers[dst]
        if not peer.backlog:
            # Nothing of ours is ahead of this frame: try the wire now.
            # Only this thread raises the count, so a zero read without
            # the lock cannot be stale.
            try:
                sent = peer.sock.sendmsg(frame, (), socket.MSG_DONTWAIT)
            except BlockingIOError:
                sent = 0
            except OSError:
                # The peer is gone.  Its unreceived messages are lost;
                # any rank waiting on them hangs and the launcher
                # watchdog turns that into a diagnosis.
                return
            frame = _unsent(frame, sent)
            if not frame:
                return
        with self._cv:
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._write_loop,
                    name=f"repro-writer-{self.rank}", daemon=True)
                self._writer.start()
            peer.backlog += 1
            self._outbox.append((peer, frame))
            self._cv.notify()

    def outbox_depth(self) -> int:
        """Frames in the backlog: handed to the writer thread, not yet
        fully written to the wire.

        A cheap (lock-free, possibly slightly stale) snapshot for trace
        records: a growing depth at send-post time means the peers'
        sockets are full and the writer is falling behind.
        """
        return len(self._outbox)

    def _write_loop(self) -> None:
        while True:
            with self._cv:
                while not self._outbox and not self._closing:
                    self._cv.wait()
                if not self._outbox:
                    return  # closing and flushed
                peer, frame = self._outbox[0]
            try:
                while frame:
                    frame = _unsent(frame, peer.sock.sendmsg(frame))
            except OSError:
                pass  # the peer is gone (see send)
            with self._cv:
                self._outbox.popleft()
                peer.backlog -= 1

    # --- receiving -------------------------------------------------------

    def recv_any(self, timeout: Optional[float] = None
                 ) -> Optional[Tuple[int, int, Any]]:
        """Next available ``(src, tag, payload)``, or None if no whole
        frame arrived within ``timeout`` (a frame still arriving also
        returns None, early)."""
        if not self._inbox:
            if not self._by_fd:
                if timeout:
                    time.sleep(timeout)
                return None
            for fd, _ in self._poller.poll(
                    None if timeout is None else timeout * 1000):
                self._read(fd)
            if not self._inbox:
                return None
        return self._inbox.popleft()

    def _read(self, fd: int) -> None:
        """Move what the socket ``fd`` holds into the inbox."""
        peer = self._by_fd[fd]
        chunk = self._chunk
        try:
            got = peer.sock.recv_into(chunk, 0, socket.MSG_DONTWAIT)
        except BlockingIOError:
            return
        except OSError:
            got = 0
        if not got:
            # peer finished (or died): stop watching this connection
            self._poller.unregister(fd)
            del self._by_fd[fd]
            if peer.partial:
                raise TransportError(
                    f"rank {self.rank}: peer {peer.rank} closed its "
                    f"connection mid-frame ({len(peer.partial)} bytes of "
                    "an unfinished frame)")
            return
        buf = peer.partial
        if buf:
            buf += chunk[:got]
            data = memoryview(buf)
        else:
            data = chunk[:got]
        end, pos = len(data), 0
        while end - pos >= 4:
            n, = _LEN.unpack_from(data, pos)
            start = pos + 4
            if n < 0:
                if end - pos < 12:
                    break
                _, n = _LONG_LEN.unpack_from(data, pos)
                start = pos + 12
            if start + n > end:
                break
            tag, payload = pickle.loads(data[start:start + n])
            self._inbox.append((peer.rank, tag, payload))
            pos = start + n
        if buf:
            data.release()  # a bytearray with a view on it cannot shrink
            del buf[:pos]
        elif pos < end:
            peer.partial = bytearray(data[pos:])

    # --- lifecycle -------------------------------------------------------

    def flush_and_close(self, flush_timeout: float = 30.0) -> None:
        """Flush the backlog (bounded wait), then close every connection.

        Called when the rank's program finishes: its last sends may
        still be queued, and peers are entitled to receive them.
        """
        with self._cv:
            self._closing = True
            self._cv.notify()
        if self._writer is not None:
            self._writer.join(flush_timeout)
        for peer in self._peers.values():
            peer.sock.close()


class LocalMesh:
    """Parent-side factory for a full mesh of ``multiprocessing`` pipes.

    Created in the launcher before forking; each child calls
    :meth:`adopt` with its rank (closing every connection that is not
    its own), and the parent calls :meth:`release` (closing them all —
    the parent carries no collective traffic).
    """

    def __init__(self, ranks, mp_context):
        self.ranks = sorted(ranks)
        self._pipes: Dict[Tuple[int, int], Tuple[Connection, Connection]] = {}
        for a in self.ranks:
            for b in self.ranks:
                if a < b:
                    self._pipes[(a, b)] = mp_context.Pipe(duplex=True)

    def adopt(self, rank: int, nranks: int) -> RankTransport:
        conns: Dict[int, Connection] = {}
        for (a, b), (ca, cb) in self._pipes.items():
            if a == rank:
                conns[b] = ca
                cb.close()
            elif b == rank:
                conns[a] = cb
                ca.close()
            else:
                ca.close()
                cb.close()
        return RankTransport(rank, nranks, conns)

    def release(self) -> None:
        for ca, cb in self._pipes.values():
            ca.close()
            cb.close()


class TcpMesh:
    """TCP transport wiring with a rank-0 rendezvous.

    The launcher creates the rendezvous :class:`Listener` (so the
    address is known before any rank starts) and hands it to rank 0.
    Each rank ``i > 0`` opens its own listener, connects to the
    rendezvous, announces ``(i, address_i)``, and receives the full
    address map back; the rendezvous connections themselves become the
    ``0 <-> i`` channels.  Remaining pairs are wired lower-rank-accepts
    / higher-rank-connects, each connection labelled by a hello frame.

    Localhost by default; the same wiring works across hosts when the
    rendezvous address is routable (multi-host launch, docs/runtime.md).
    """

    @staticmethod
    def make_rendezvous(nranks: int, host: str = "127.0.0.1"):
        return Listener((host, 0), family="AF_INET", backlog=max(nranks, 8))

    @staticmethod
    def connect(rank: int, ranks, rendezvous_addr,
                rendezvous_listener: Optional[Listener] = None
                ) -> RankTransport:
        ranks = sorted(ranks)
        nranks_total = max(ranks) + 1
        others = [r for r in ranks if r != rank]
        conns: Dict[int, Connection] = {}
        my_listener = None
        if rank != ranks[0]:
            my_listener = Listener(("127.0.0.1", 0), family="AF_INET",
                                   backlog=max(len(ranks), 8))

        if rank == ranks[0]:
            assert rendezvous_listener is not None
            addr_map = {}
            pending = []
            for _ in others:
                c = rendezvous_listener.accept()
                peer, addr = c.recv()
                addr_map[peer] = addr
                conns[peer] = c
                pending.append(c)
            for c in pending:
                c.send(addr_map)
            rendezvous_listener.close()
        else:
            if rendezvous_listener is not None:
                rendezvous_listener.close()  # inherited copy, not ours
            c0 = Client(tuple(rendezvous_addr), family="AF_INET")
            c0.send((rank, my_listener.address))
            addr_map = c0.recv()
            conns[ranks[0]] = c0
            # connect to every lower non-root rank; accept from higher
            for peer in ranks[1:]:
                if peer >= rank:
                    break
                c = Client(tuple(addr_map[peer]), family="AF_INET")
                c.send(("hello", rank))
                conns[peer] = c
            n_higher = sum(1 for r in ranks if r > rank)
            for _ in range(n_higher):
                c = my_listener.accept()
                marker, peer = c.recv()
                if marker != "hello":
                    raise TransportError(
                        f"rank {rank}: unexpected wiring frame {marker!r}")
                conns[peer] = c
            my_listener.close()
        return RankTransport(rank, nranks_total, conns)
