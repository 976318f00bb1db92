"""The repository benchmark: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ring-p256 --seed 1 --seconds 20 \\
        --trace 0
    python3 perfbench/run.py --write-reference   # after a deliberate
                                                 # change of semantics

Workloads: ``ring-p256``, ``mesh-hybrid-p512``, ``service-storm`` and
``runtime-pair`` (see README.md for what each exercises and skips).

An untraced run (``--trace 0``) starts several fresh sessions in turn
(``session.py``); each sets up the workload from scratch, warms up, and
runs equal timed rounds for its share of ``--seconds``.  The run prints
the end-to-end metrics: medians over sessions (``setup_s``,
``peak_rss_mb``) or over all timed rounds (``wall_s``, ``ops_per_s``).
A traced run (``--trace 1``) uses one session that alternates plain and
traced rounds and prints the per-layer metrics.

Every output is checked, and the simulated quantities of every round
must repeat bit for bit and match ``reference.json``.  End-to-end times
are calibrated to a reference host speed (``probe.py``).  The last line
of stdout is the JSON result; the line before it holds context, not
metrics: the host probe at start and end, and every set-up and round in
raw seconds with the probes around it.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from layers import LAYERS
from probe import calibrated, host_probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("ring-p256", "mesh-hybrid-p512", "service-storm",
             "runtime-pair")

#: fresh sessions per untraced run, each one timed set-up sample
SETUP_SESSIONS = 3
#: wall-clock budget of one whole run, which must end within 180 s
RUN_BUDGET_S = 170.0

#: environment switches that select non-default simulator or runtime
#: code paths; the benchmark measures the defaults only
HERMETIC_ENV = ("REPRO_AUTOTUNE", "REPRO_SIM_SCALAR", "REPRO_SIM_VEC_MIN")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "ops_per_s": "1/s"}

#: per-layer metric -> unit
PER_LAYER = {
    "bench.self_s": "s",
    "core.api.self_s": "s",
    "core.api.resumes": "count",
    "sim.engine.self_s": "s",
    "sim.engine.events": "count",
    "sim.engine.messages": "count",
    "sim.network.self_s": "s",
    "sim.network.calls": "count",
    "sim.network.flows": "count",
    "sim.network.rate_recomputations": "count",
    "sim.network.max_sharing": "flows",
    "sim.network.busy_frac": "fraction",
    "core.topology.self_s": "s",
    "core.topology.calls": "count",
    "core.groups.self_s": "s",
    "core.groups.calls": "count",
    "core.selection.self_s": "s",
    "core.selection.calls": "count",
    "service.plan.self_s": "s",
    "service.execute.self_s": "s",
    "service.batches": "count",
    "service.fusion_ratio": "fraction",
    "service.p50_ms": "ms",
    "service.p99_ms": "ms",
    "runtime.launch.spawn_s": "s",
    "runtime.transport.send_calls": "count",
    "runtime.transport.send_s": "s",
    "runtime.transport.recv_wait_s": "s",
    "runtime.transport.bytes": "bytes",
    "runtime.lat8_p50_us": "us",
    "runtime.lat8_p90_us": "us",
    "runtime.lat64k_p50_us": "us",
    "runtime.model_ratio": "ratio",
    "trace.overhead_frac": "fraction",
}

def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def run_session(workload: str, seed: int, seconds: float, trace: bool,
                reference: bool, timeout: float) -> dict:
    """Run one ``session.py`` in a fresh interpreter; its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)),
           "--reference", str(int(reference))]
    # a session of its own, so a timeout also stops the rank processes
    # a runtime session forked
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"session exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _median(values) -> float:
    return float(statistics.median(values))


def exact_problems(workload: str, sessions, reference) -> list:
    """Simulated quantities that failed to repeat or drifted from the
    reference; empty when every check held."""
    problems = []
    records = [s["warmup"] for s in sessions] + \
        [r for s in sessions for r in s["rounds"]]
    first = records[0]["exact"]
    for rec in records[1:]:
        if rec["exact"] != first:
            problems.append(f"{workload}: simulated quantities differ "
                            f"between rounds: {first} vs {rec['exact']}")
            break
    want = reference.get(workload)
    if want is None:
        return problems + [f"{workload}: no entry in {REFERENCE}"]
    got = sessions[0]["reference_exact"]
    for key in sorted(set(want) | set(got)):
        if got.get(key) != want.get(key):
            problems.append(f"{workload}: {key} changed "
                            f"{want.get(key)!r} -> {got.get(key)!r}")
    return problems


def end_to_end(sessions) -> dict:
    """Times in calibrated seconds: each set-up and round rescaled by the
    host probes taken around it (``probe.calibrated``)."""
    rounds = [r for s in sessions for r in s["rounds"]]
    return {
        "setup_s": _median(calibrated(s["setup_s"], s["setup_probe_s"])
                           for s in sessions),
        "wall_s": _median(calibrated(r["wall_s"], r["probe_s"])
                          for r in rounds),
        "peak_rss_mb": _median(s["peak_rss_mb"] for s in sessions),
        "ops_per_s": _median(
            r["ops"] / calibrated(r["busy_s"], r["probe_s"])
            for r in rounds),
    }


def per_layer(session) -> dict:
    traced = [r for r in session["rounds"] if r["traced"]]
    plain = [r for r in session["rounds"] if not r["traced"]]
    out = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        for kind in ("self_s", "calls"):
            if f"{layer}.{kind}" in out:
                out[f"{layer}.{kind}"] = _median(r[kind][layer]
                                                 for r in traced)
    out["core.api.resumes"] = _median(r["calls"]["core.api"]
                                      for r in traced)
    for key in traced[0]["layer"]:
        if key in out:
            out[key] = _median(r["layer"][key] for r in traced)
    channels = session["warmup"].get("channels")
    if channels:
        out["sim.network.max_sharing"] = channels["max_sharing"]
        out["sim.network.busy_frac"] = channels["busy_frac"]
    out["trace.overhead_frac"] = (
        _median(r["wall_s"] for r in traced)
        / _median(r["wall_s"] for r in plain) - 1.0)
    return {k: out[k] for k in PER_LAYER}


def write_reference() -> int:
    ref = {}
    for workload in WORKLOADS:
        s = run_session(workload, 0, 0.0, False, True, RUN_BUDGET_S)
        ref[workload] = s["reference_exact"]
        print(f"{workload}: {ref[workload]}")
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite reference.json from this checkout")
    args = ap.parse_args(argv)

    stray = [k for k in HERMETIC_ENV if k in os.environ]
    if stray:
        return _fail(f"refusing to run with {', '.join(stray)} set: the "
                     "benchmark measures the default code paths; unset "
                     "it and run again")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no library sources at {SRC}/repro; run from a "
                     "full checkout")
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read {REFERENCE}: {exc}")

    t_begin = time.monotonic()
    probe_start = host_probe()
    nsessions = 1 if args.trace else SETUP_SESSIONS
    sessions = []
    measured = 0.0
    try:
        for i in range(nsessions):
            # each session gets an equal share of what is left of the
            # measuring time, so a share too short for a second round
            # carries over to the next session
            share = (args.seconds - measured) / (nsessions - i)
            left = RUN_BUDGET_S - (time.monotonic() - t_begin)
            sessions.append(run_session(
                args.workload, args.seed, share, bool(args.trace),
                reference=(i == 0), timeout=left))
            measured += sessions[-1]["measured_s"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return _fail(f"{args.workload}: {exc}")
    probe_end = host_probe()

    records = [s["warmup"] for s in sessions] + \
        [r for s in sessions for r in s["rounds"]]
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = exact_problems(args.workload, sessions, reference)
    for msg in problems:
        print(f"EXACT CHECK FAILED: {msg}")
    if args.trace:
        values, units = per_layer(sessions[0]), PER_LAYER
    else:
        values, units = end_to_end(sessions), END_TO_END
    context = {
        "workload": args.workload, "seed": args.seed,
        "host_probe_ms": [probe_start * 1e3, probe_end * 1e3],
        # raw seconds, with the probes before and after: [[setup, p, p],
        # [round, p, p], ...] per session
        "raw_s": [[[s["setup_s"]] + s["setup_probe_s"]]
                  + [[r["wall_s"]] + r["probe_s"] for r in s["rounds"]]
                  for s in sessions],
        "elapsed_s": time.monotonic() - t_begin,
    }
    print("context: " + json.dumps(context))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
