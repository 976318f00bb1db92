"""Per-rank execution environment for the real multi-process backend.

:class:`ProcessEnv` satisfies the env contract of
:mod:`repro.core.protocol` — the same surface
:class:`repro.sim.engine.RankEnv` presents — so every SPMD generator
program in the library runs unchanged over OS processes.  The semantic
anchor is the **matching rule**: receives match sends with the same
``(source, tag)`` in FIFO order per pair, exactly as in the simulator.
The transport guarantees per-pair FIFO delivery; this module implements
matching on top of it with the standard posted-receive /
unexpected-message queue pair.

Differences from the simulated env, by design:

* ``isend`` is **eager**: the transport writes the frame inline or, if
  the peer's socket is full, backlogs it for its writer thread; either
  way the handle completes immediately (the simulator's
  rendezvous timing model has no wall-clock counterpart; the matching
  semantics — which determine *values* — are identical).
* ``compute``/``overhead`` are model-cost annotations and cost nothing:
  the actual arithmetic runs inline in the algorithm code, on a real
  CPU.  ``delay`` *is* honoured as a wall-clock sleep.
* ``now`` is wall-clock seconds since the rank started, so traces and
  corpus entries that return ``env.now`` are backend-dependent (the
  differential harness compares payloads, not clocks).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, Optional, Tuple

from ..core.protocol import (CommHandle, _Delay, _WaitGroup,
                             payload_nbytes)
from .transport import RankTransport


class RankDeadlineError(RuntimeError):
    """A rank's soft wall-clock deadline expired while it was blocked.

    Raised *inside* the rank process so the launcher receives a typed,
    per-rank diagnosis (which requests were pending, on which peers)
    instead of having to kill an opaque hung process.  ``queues``
    carries the rank's progress snapshot — posted/unexpected queue
    depths and the wall time of its last matched or drained frame — so
    hang reports show *how far* the rank got, not only what it was
    blocked on.
    """

    def __init__(self, rank: int, elapsed: float, detail: str,
                 queues: Optional[Dict[str, object]] = None):
        self.rank = rank
        self.elapsed = elapsed
        self.detail = detail
        self.queues = dict(queues or {})
        super().__init__(
            f"rank {rank} blocked for {elapsed:.1f}s past its deadline; "
            f"{detail}")


class ProcessEnv:
    """The env a rank program sees when running over real processes.

    Parameters
    ----------
    rank, nranks:
        This process's rank and the world size.
    transport:
        The rank's :class:`~repro.runtime.transport.RankTransport`.
    params, topology:
        Machine description metadata, forwarded verbatim to algorithm
        selection.  Pass the same values used for a simulator run and
        ``algorithm="auto"`` resolves the same strategies on both
        backends (same combine order, bit-identical float results).
        ``None`` engages the documented short/long fallback in
        :mod:`repro.core.api`.
    status:
        Optional shared ``c_char`` array holding ``"running"`` until a
        wait has lasted a poll interval; then the env writes a short
        human-readable state into it (refreshed at most once per
        interval), which the launcher watchdog reads if the rank has
        to be killed.
    deadline:
        Optional soft deadline in seconds of wall time since
        construction; a blocked wait past it raises
        :class:`RankDeadlineError`.
    faults:
        Optional :class:`~repro.sim.faults.FaultSchedule`.  Only its
        *adversarial* events (ByzantineRank / WithholdingRank /
        MisroutingRank) apply on this backend — clock-scheduled link
        and crash faults have no wall-clock counterpart here.  The
        contract mirrors the simulator's: an empty (or
        adversary-free) schedule is strictly passive.
    """

    def __init__(self, rank: int, nranks: int, transport: RankTransport,
                 params=None, topology=None, status=None,
                 deadline: Optional[float] = None,
                 poll: float = 0.05, tracer=None, faults=None):
        self.rank = rank
        self._nranks = nranks
        self._transport = transport
        self.params = params
        self.topology = topology
        #: wall-clock trace collector
        #: (:class:`repro.obs.runtime.RuntimeTracer`), or None.
        #: ``CollContext`` finds it here, so collective stage spans and
        #: auto-dispatch prediction capture work on this backend too.
        #: The launcher attaches it *after* the clock-sync exchange so
        #: alignment probes don't clutter the trace.
        self.tracer = tracer
        self._status = status
        # a rank that hangs outside a wait still reports a state
        self._set_status("running")
        self._deadline = deadline
        self._poll = poll
        self._t0 = time.monotonic()
        # (source, tag) -> FIFO of posted-but-unmatched recv handles
        self._posted: Dict[Tuple[int, int], deque] = {}
        # (source, tag) -> FIFO of arrived-but-unmatched payloads
        self._unexpected: Dict[Tuple[int, int], deque] = {}
        # running totals so queue-depth snapshots are O(1)
        self._n_posted = 0
        self._n_unexpected = 0
        #: wall time of the last matched or drained frame (None until
        #: the first one) — feeds hang diagnoses and the trace
        self.last_progress_s: Optional[float] = None
        #: Byzantine-model per-send machinery
        #: (:class:`~repro.sim.faults.AdversaryState`), None when the
        #: schedule declares no adversarial ranks — one attribute check
        #: per send either way, so fault-free runs stay untouched
        self._adversary = None
        if faults is not None and faults.has_adversaries:
            from ..sim.faults import AdversaryState
            self._adversary = AdversaryState(faults)

    # ------------------------------------------------------------------
    # identity / clock
    # ------------------------------------------------------------------

    @property
    def nranks(self) -> int:
        return self._nranks

    @property
    def now(self) -> float:
        """Wall-clock seconds since this rank's env was created."""
        return time.monotonic() - self._t0

    @property
    def alive(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # requests (the repro.core.protocol surface)
    # ------------------------------------------------------------------

    @property
    def tampered(self):
        """Adversarial applications this rank performed (empty list
        without an adversarial schedule) — the runtime analogue of
        ``FaultReport.tampered``."""
        return self._adversary.tampered if self._adversary is not None \
            else []

    def isend(self, dst: int, data: Any, tag: int = 0,
              nbytes: Optional[float] = None) -> CommHandle:
        self._check_peer(dst)
        if nbytes is None:
            nbytes = payload_nbytes(data)
        t = self.now
        if self._adversary is not None:
            acted = self._adversary.act(self.rank, dst, tag, data, t,
                                        self._nranks)
            if acted is not None:
                tamper, dst, data = acted
                if tamper.kind == "withholding-rank":
                    # the sender proceeds as if delivered; nothing
                    # reaches the transport
                    h = CommHandle("send", dst, tag, data, nbytes, t)
                    h.done = True
                    return h
        h = CommHandle("send", dst, tag, data, nbytes, t)
        if self.tracer is not None:
            self.tracer.send_post(t, dst, tag, nbytes,
                                  self._transport.outbox_depth(),
                                  self._n_posted, self._n_unexpected)
        self._transport.send(dst, tag, data, nbytes)
        h.done = True  # eager: on the wire or in the transport's backlog
        return h

    def irecv(self, src: int, tag: int = 0) -> CommHandle:
        self._check_peer(src)
        t = self.now
        h = CommHandle("recv", src, tag, None, 0.0, t)
        key = (src, tag)
        if self.tracer is not None:
            self.tracer.recv_post(t, src, tag,
                                  self._n_posted, self._n_unexpected)
        q = self._unexpected.get(key)
        if q:
            h.data = q.popleft()
            h.done = True
            if not q:
                del self._unexpected[key]
            self._n_unexpected -= 1
            self.last_progress_s = t
            if self.tracer is not None:
                self.tracer.match(t, src, tag)
        else:
            self._posted.setdefault(key, deque()).append(h)
            self._n_posted += 1
        return h

    def send(self, dst: int, data: Any, tag: int = 0,
             nbytes: Optional[float] = None) -> _WaitGroup:
        return _WaitGroup([self.isend(dst, data, tag=tag, nbytes=nbytes)])

    def recv(self, src: int, tag: int = 0) -> _WaitGroup:
        return _WaitGroup([self.irecv(src, tag=tag)])

    def waitall(self, *handles) -> _WaitGroup:
        flat = []
        for h in handles:
            if isinstance(h, CommHandle):
                flat.append(h)
            else:
                flat.extend(h)
        return _WaitGroup(flat)

    def delay(self, duration: float) -> _Delay:
        """An explicit pause — honoured as real wall-clock sleep."""
        return _Delay(duration)

    def compute(self, nelems: float) -> _Delay:
        """Model-cost annotation: free here (the arithmetic itself runs
        inline on the real CPU)."""
        return _Delay(0.0)

    def overhead(self, count: float = 1.0) -> _Delay:
        return _Delay(0.0)

    def mark(self, label: str) -> _Delay:
        if self.tracer is not None:
            self.tracer.mark(self.now, self.rank, label)
        return _Delay(0.0)

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self._nranks:
            raise ValueError(
                f"peer {peer} out of range for nranks={self._nranks}")

    # ------------------------------------------------------------------
    # the progress engine
    # ------------------------------------------------------------------

    def execute(self, request) -> Any:
        """Execute one yielded request and return its resume value."""
        if isinstance(request, _WaitGroup):
            return self._complete(request)
        if isinstance(request, CommHandle):
            return self._complete(_WaitGroup([request]))
        if isinstance(request, _Delay):
            if request.duration > 0:
                time.sleep(request.duration)
            return None
        raise TypeError(
            f"rank {self.rank} yielded {request!r}; expected a request "
            "from env.isend/irecv/send/recv/waitall/delay/compute")

    def _complete(self, wg: _WaitGroup) -> Any:
        blocked = [h for h in wg.handles if not h.done]
        if not blocked:
            return wg._value()
        # The status text is for the watchdog, which reads it only for
        # ranks stuck for seconds: write it once a wait has lasted a
        # poll interval, then at most once per interval.
        status_due = self.now + self._poll
        described = False
        while True:
            t = self._progress()
            blocked = [h for h in blocked if not h.done]
            if not blocked:
                break
            if self._deadline is not None and t > self._deadline:
                raise RankDeadlineError(self.rank, t,
                                        self._describe(blocked),
                                        queues=self.queue_snapshot())
            if t >= status_due:
                self._set_status(self._describe(blocked))
                described = True
                status_due = t + self._poll
        if described:
            self._set_status("running")
        return wg._value()

    def _progress(self) -> float:
        """Take at most one frame off the transport and match it;
        returns the wall time (env clock) after the attempt."""
        msg = self._transport.recv_any(timeout=self._poll)
        t = self.now
        if msg is None:
            return t
        src, tag, payload = msg
        key = (src, tag)
        self.last_progress_s = t
        q = self._posted.get(key)
        if q:
            h = q.popleft()
            h.data = payload
            h.done = True
            if not q:
                del self._posted[key]
            self._n_posted -= 1
            if self.tracer is not None:
                self.tracer.match(t, src, tag)
        else:
            self._unexpected.setdefault(key, deque()).append(payload)
            self._n_unexpected += 1
            if self.tracer is not None:
                self.tracer.drain(t, src, tag)
        return t

    def queue_snapshot(self) -> Dict[str, object]:
        """Progress snapshot: queue depths + last matched/drained time."""
        return {
            "posted": self._n_posted,
            "unexpected": self._n_unexpected,
            "last_progress_s": self.last_progress_s,
        }

    def _describe(self, blocked) -> str:
        parts = []
        for h in blocked[:4]:
            parts.append(f"recv(src={h.peer}, tag={h.tag}, "
                         f"posted_at={h.posted_at:.3f}s)")
        if len(blocked) > 4:
            parts.append(f"... +{len(blocked) - 4} more")
        last = ("never" if self.last_progress_s is None
                else f"{self.last_progress_s:.3f}s")
        return (f"blocked on {len(blocked)} pending: " + ", ".join(parts)
                + f"; queues posted={self._n_posted} "
                f"unexpected={self._n_unexpected} last_progress={last}")

    def _set_status(self, text: str) -> None:
        if self._status is not None:
            self._status.value = text.encode("ascii", "replace")[:200]


def drive(env: ProcessEnv, program, *args, **kwargs) -> Any:
    """Run one SPMD generator program to completion on this rank.

    The real-backend analogue of the simulator's scheduler loop: pull
    requests from the generator, execute each against the transport,
    resume the generator with the result, and return the program's
    return value.
    """
    gen = program(env, *args, **kwargs)
    if not hasattr(gen, "send"):
        raise TypeError(
            f"program {program!r} returned {type(gen).__name__}, not a "
            "generator — rank programs must be written in yield style")
    value = None
    while True:
        try:
            request = gen.send(value)
        except StopIteration as stop:
            return stop.value
        value = env.execute(request)
