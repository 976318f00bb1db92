"""Fault-path regression: the vectorized network under real faults.

The differential suite (tests/sim/test_vectorized_network.py) proves
scalar/vectorized bit-identity on clean runs; faults exercise code the
corpus cannot — degraded-route interning, ``apply_slowdown`` capacity
rewrites mid-flight, flow aborts, crash-shrunk groups.  This module
replays the 45-case chaos smoke slice (mesh4x6 x 5 ops x {jitter,
link-permanent, crash} x 3 seeds — every one a non-empty
:class:`~repro.sim.faults.FaultSchedule`) with the vectorized fill
forced onto every component and asserts the per-case verdicts are
exactly the ones in the committed full-grid ``CHAOS_report.json``:
same outcome class, same diagnosis line, same completion clock, and in
particular zero silent corruption introduced by the fast path.
"""

import json
import os

import pytest

from benchmarks.chaos.cases import GRIDS, run_case

_REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
_REPORT = os.path.join(_REPO, "CHAOS_report.json")

_SMOKE = GRIDS["smoke"]


@pytest.fixture(scope="module")
def committed():
    with open(_REPORT) as f:
        report = json.load(f)
    return {rec["case"]["origin"]: rec for rec in report["records"]}


@pytest.fixture(autouse=True)
def _force_vectorized(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_SCALAR", raising=False)
    monkeypatch.setenv("REPRO_SIM_VEC_MIN", "0")


@pytest.mark.parametrize("case", _SMOKE,
                         ids=["-".join(map(str, c)) for c in _SMOKE])
def test_vectorized_verdict_matches_committed(case, committed):
    rec = run_case(*case)
    row = rec["case"]["origin"]
    want = committed.get(row)
    assert want is not None, (
        f"smoke case {row} missing from committed CHAOS_report.json"
        " — regenerate the full-grid report")
    assert rec["verdict"] == want["verdict"], (
        f"{row}: vectorized network changed the chaos verdict "
        f"{want['verdict']!r} -> {rec['verdict']!r}")
    assert rec["verdict"] != "silent-corruption"
    # completed runs must also finish at the bit-identical instant, and
    # diagnosed runs must attribute the same fault
    assert repr(rec["sim_time"]) == repr(want["sim_time"]), row
    if "diagnosis" in want:
        first = rec["diagnosis"]["message"].splitlines()[0]
        assert first == want["diagnosis"]["message"].splitlines()[0], row
