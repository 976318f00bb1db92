"""Chaos coverage for the service: faults injected mid-storm.

The service's containment contract (docs/service.md) under injected
faults is the library-wide zero-silent-anything policy, lifted to the
request level:

* **delay-only** profiles (``jitter``, ``slowdown``) change timing,
  never delivery: every request must still complete ``ok`` with
  payloads bit-identical to the fault-free oracle;
* **lossy** profiles (``link-permanent``, ``crash``) may prevent
  batches from completing: every affected request must end as a
  ``dead-letter`` carrying the run's typed
  :class:`~repro.sim.faults.FaultDiagnosis`, every batch that fully
  completed before the fault keeps its ``ok`` outcome and its
  oracle-identical results, and **no request may ever disappear** —
  ``submitted == ok + rejected + dead-letter`` always.

Schedules come from the library's one profile builder,
:func:`repro.sim.faults.profile_schedule`, seeded per
``(profile, seed)`` and scaled to the storm's fault-free span, so one
pair reproduces the same mid-storm fault everywhere.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..sim.faults import FaultSchedule, profile_schedule

#: profile name -> whether the profile may legally dead-letter requests
SERVICE_CHAOS_PROFILES: Dict[str, bool] = {
    "jitter": False,
    "slowdown": False,
    "link-transient": False,
    "link-permanent": True,
    "crash": True,
}


def service_fault_schedule(profile: str, machine, *, seed: int = 0,
                           t_clean: Optional[float] = None
                           ) -> FaultSchedule:
    """A seeded mid-storm fault schedule for ``machine``.

    ``t_clean`` is the storm's fault-free span in simulated seconds
    (default: a few hundred alphas); event times scale to it, so the
    fault lands mid-flight.
    """
    if profile not in SERVICE_CHAOS_PROFILES:
        raise ValueError(
            f"unknown service chaos profile {profile!r}; expected one "
            f"of {sorted(SERVICE_CHAOS_PROFILES)}")
    alpha = machine.params.alpha
    if t_clean is None:
        t_clean = 200.0 * alpha
    return profile_schedule(profile,
                            random.Random(f"service-chaos/{profile}/{seed}"),
                            machine.topology, alpha, t_clean,
                            range(machine.nnodes))


def run_chaos_storm(profile: str, *, seed: int = 0, machine=None,
                    spec=None, config=None, workload_seed: int = 5):
    """One storm under one fault profile; returns ``(report, oracle)``.

    ``oracle`` is the same plan executed fault-free on a pristine
    machine — delay-only profiles must match it bit-exactly, lossy
    profiles must match on every request that stayed ``ok``.
    """
    from ..sim import Machine, Mesh2D, PARAGON
    from .core import ServiceCore
    from .execute import execute_plan
    from .traffic import run_workload, storm_spec

    if machine is None:
        machine = Machine(Mesh2D(2, 3), PARAGON)
    if spec is None:
        spec = storm_spec(tenants=3, requests=12, window=6)
    core = ServiceCore(machine.nnodes, params=machine.params,
                       topology=machine.topology, config=config)
    plan = run_workload(core, spec, seed=workload_seed)

    oracle = execute_plan(machine, plan)
    faults = service_fault_schedule(profile, machine, seed=seed,
                                    t_clean=oracle.elapsed_s)
    faulty = Machine(machine.topology, machine.params, faults=faults)
    report = execute_plan(faulty, plan)
    return report, oracle
