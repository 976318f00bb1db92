"""The chaos grid: seeded fault schedules replayed over collectives.

Every row is ``(topology, op, profile, seed)``, built as a
:class:`~repro.chaos.generator.ChaosCase` (n = 1024 float64 elements
over the whole machine) and executed by
:func:`repro.chaos.executor.execute_case` against the analytic oracles
of :mod:`repro.chaos.oracles` — the autopilot's harness, with the
selection-regret audit off.  The row's schedule comes from
:func:`repro.sim.faults.profile_schedule`, drawn from
``random.Random(f"chaos/{row id}")``; string seeding is
hash-randomization-independent, so ``--grid full`` reproduces the
committed ``CHAOS_report.json`` bit-for-bit modulo timing metadata.

Profiles and the verdicts that do not fail the gate:

================  ============================  =====================
profile           schedule                      allowed
================  ============================  =====================
none              empty (passivity probe)       ok, bit-identical time
jitter            match-latency jitter          ok
slowdown          one link's beta degraded      ok
link-permanent    permanent link failure        ok | diagnosed-fault
link-transient    link outage that heals        ok | diagnosed-fault
crash             fail-stop node crash          ok | diagnosed-fault
crash-shrink      crash + ULFM-style shrink()   ok (survivor oracle)
================  ============================  =====================
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from repro.chaos.executor import execute_case
from repro.chaos.generator import OPS, ChaosCase, with_faults

N = 1024  # vector length (elements) for every collective

#: grid name -> (topology description, machine preset)
TOPOLOGIES: Dict[str, Tuple[tuple, str]] = {
    "mesh4x6": (("mesh", 4, 6), "paragon"),
    "linear12": (("linear", 12), "unit"),
}

PROFILES = ("none", "jitter", "slowdown", "link-permanent",
            "link-transient", "crash", "crash-shrink")

SEEDS = (101, 202, 303)

#: profile -> verdicts that do not fail the gate
ALLOWED = {
    "none": {"ok"},
    "jitter": {"ok"},
    "slowdown": {"ok"},
    "link-permanent": {"ok", "diagnosed-fault"},
    "link-transient": {"ok", "diagnosed-fault"},
    "crash": {"ok", "diagnosed-fault"},
    "crash-shrink": {"ok"},
}

GRIDS = {
    "full": [(t, o, pr, s) for t in TOPOLOGIES for o in OPS
             for pr in PROFILES for s in SEEDS],
    # CI smoke: one topology, the three most failure-prone profiles
    "smoke": [("mesh4x6", o, pr, s) for o in OPS
              for pr in ("jitter", "link-permanent", "crash")
              for s in SEEDS],
}

#: a row's random stream is keyed by the label its profile had when the
#: grid was first committed, so every committed schedule replays as is
_SEED_LABELS = {"link-permanent": "link-perm"}


def case_id(topo: str, op: str, profile: str, seed: int) -> str:
    return f"{topo}/{op}/{profile}/{seed}"


def grid_case(topo: str, op: str, profile: str, seed: int) -> ChaosCase:
    """The row as a self-contained case; ``origin`` is the row id."""
    spec, params = TOPOLOGIES[topo]
    case = ChaosCase(topo=spec, params=params, op=op, n=N,
                     dtype="float64", group=None, profile=profile,
                     origin=case_id(topo, op, profile, seed))
    label = _SEED_LABELS.get(profile, profile)
    return with_faults(
        case, random.Random(f"chaos/{case_id(topo, op, label, seed)}"))


def run_case(topo: str, op: str, profile: str, seed: int) -> dict:
    """Execute one grid row; returns the executor's record."""
    return execute_case(grid_case(topo, op, profile, seed), audit=False)


def run_case_entry(case: tuple) -> dict:
    """Picklable single-argument adapter for the parallel sweep driver:
    ``case`` is one ``(topo, op, profile, seed)`` grid entry."""
    return run_case(*case)
