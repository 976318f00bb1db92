"""A fixed host-speed probe, independent of the library under test.

On a shared VM the speed of pure-Python code drifts by 2x to 3x over
minutes as neighbours load the host (see README.md).  The probe times a fixed amount of
reference work of the same kind the simulator does — an integer loop
and a small generator-driven event loop over a heap — so that a timed
round can be rescaled to a reference host speed (see ``run.py``).  It
imports nothing from ``repro`` and runs with the garbage collector off,
so a collection of the heap the library left behind cannot land in it.
"""

from __future__ import annotations

import gc
import heapq
import time

#: probe time of the reference host that calibrated seconds refer to
REFERENCE_S = 0.020


def _integer_loop() -> None:
    acc = 0
    for i in range(100_000):
        acc += i * i % 7


def _process(n: int, out: list):
    for i in range(n):
        out.append((yield i))


def _event_loop() -> None:
    heap, out, seen = [], [], {}
    for seq in range(8):
        heapq.heappush(heap, (0.0, seq, _process(1500, out), None))
    seq = 8
    while heap:
        t, _, gen, value = heapq.heappop(heap)
        try:
            i = gen.send(value)
        except StopIteration:
            continue
        seen[(id(gen), i & 15)] = t
        heapq.heappush(heap, (t + 1e-6 * (i % 7 + 1), seq, gen, t))
        seq += 1


def _median_of_three(fn) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def host_probe() -> float:
    """Seconds the reference work takes now (median of three runs of
    each part, summed); about 20 ms on a 2-vCPU cloud VM."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (_median_of_three(_integer_loop)
                + _median_of_three(_event_loop))
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, probes) -> float:
    """``seconds`` rescaled to the reference host, by the mean of the
    probes taken just before and after the measured interval."""
    return seconds * REFERENCE_S / (sum(probes) / len(probes))
