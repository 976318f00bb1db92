"""One benchmark session: set up a workload, warm up, run timed rounds.

Run by ``run.py`` as a fresh interpreter per session, so each session's
set-up time includes importing the library::

    python3 perfbench/session.py --workload ring-p256 --seed 1 \\
        --seconds 4 --trace 0

Prints one JSON object on stdout: the set-up time, the peak RSS, and one
record per round, each with the host probe (``probe.py``) taken just
before and after it.  Untraced sessions run only plain rounds.  Traced
sessions alternate a plain round with a traced one, so the tracing
overhead is measured on the same host minutes as the traced rounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from probe import host_probe


def _round(workload, tracer=None, metered=False) -> dict:
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        rec = workload.round(metered=metered)
        rec["wall_s"] = time.perf_counter() - t0
        return rec
    tracer.reset()
    with tracer.installed():
        t0 = time.perf_counter()
        rec = tracer.call("bench", workload.round, tracer)
        rec["wall_s"] = time.perf_counter() - t0
    rec["self_s"] = dict(tracer.self_s)
    rec["calls"] = dict(tracer.calls)
    return rec


def run_session(name: str, seed: int, seconds: float, trace: bool,
                reference: bool = False) -> dict:
    probe = host_probe()
    t0 = time.perf_counter()  # set-up starts before repro is imported
    from layers import LayerTracer
    from workloads import REFERENCE_SEED, WORKLOADS

    cls = WORKLOADS[name]
    workload = cls(seed)
    # the warm-up round fills the library's lazy caches; a traced
    # session meters it for the modelled channel conflicts
    warm = _round(workload, metered=trace)
    setup_s = time.perf_counter() - t0
    setup_probe_s = [probe, host_probe()]
    probe = setup_probe_s[1]

    tracers = (None, LayerTracer()) if trace else (None,)
    rounds = []
    t_start = time.perf_counter()
    last = warm["wall_s"]
    # equal rounds until the budget would be overrun; at least one
    # (traced: one plain + one traced)
    while not rounds or time.perf_counter() - t_start + last <= seconds:
        last = 0.0
        for tracer in tracers:
            rec = _round(workload, tracer)
            rec["traced"] = tracer is not None
            rec["probe_s"] = [probe, host_probe()]
            probe = rec["probe_s"][1]
            rounds.append(rec)
            last += rec["wall_s"]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += getattr(workload, "rank_rss_kb", 0)
    out = {"setup_s": setup_s, "setup_probe_s": setup_probe_s,
           "peak_rss_mb": rss_kb / 1024.0,
           "measured_s": time.perf_counter() - t_start,
           "warmup": warm, "rounds": rounds}
    if reference:
        # the simulated quantities reference.json keeps; where they
        # depend on the seed it keeps one seed, replayed here untimed
        if cls.seeded_exact and seed != REFERENCE_SEED:
            out["reference_exact"] = cls(REFERENCE_SEED).round()["exact"]
        else:
            out["reference_exact"] = warm["exact"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = run_session(args.workload, args.seed, args.seconds,
                      bool(args.trace), reference=bool(args.reference))
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
