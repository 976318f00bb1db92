"""Selection-regret sweep: does the heuristic pick strategies that are
actually fast?

Section 6 of the paper chooses hybrids with "effective heuristics rather
than theoretically optimal methods"; the implicit claim is that the
alpha/beta/gamma model ranks candidates well enough that the chosen
strategy is (near-)optimal among them.  This sweep tests that claim
head-on, in the style of model-validation studies of collective
performance (LogP/PLogP fittings, Barchet-Estefanel & Mounié): for a
grid of (operation, group shape, vector length) cells it

1. prices **every** ranked candidate at the exact vector length,
2. *simulates* every candidate (explicit ``algorithm=strategy``), and
3. reports two quantities per cell:

   * **model error** — predicted/measured ratio per strategy (how well
     the closed forms track the simulator), and
   * **selection regret** — measured time of the strategy that
     ``algorithm="auto"`` picks divided by the measured time of the true
     best candidate.  Regret 1.0 means the heuristic found the optimum;
     the CI gate fails when the median regret exceeds 1.05.

The sweep also embeds the conflict-freedom verdicts of the four
building blocks (:func:`repro.obs.audit.verify_building_blocks`) and an
alpha/beta drift fit (:func:`repro.obs.audit.fit_drift`), producing one
self-contained ``AUDIT_model.json`` artifact::

    python -m repro.analysis.report --audit [--grid smoke|full]
        [--params paragon] [--out AUDIT_model.json] [--check]

Group shapes deliberately include non-powers-of-two (p = 7, 12, 30) and
mesh-aligned groups (whole submeshes, rows, columns), where the
conflict factors and the (R + C - 2) alpha mesh refinements of section
7.1 actually bite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: the default gate: median regret above this fails ``--check``
MAX_MEDIAN_REGRET = 1.05

#: sweep grids: cells are (operations x shapes x lengths).  Shapes are
#: ("line", p) for a p-node linear array, ("mesh", R, C) for a whole
#: R x C mesh, ("row", R, C) / ("col", R, C) for the middle row/column
#: group of an R x C mesh (the section 9 group cases).
SMOKE_GRID: Dict[str, tuple] = {
    "operations": ("bcast", "allreduce", "reduce_scatter"),
    "shapes": (("line", 7), ("line", 8), ("mesh", 3, 4)),
    "lengths": (64, 4096),
}
FULL_GRID: Dict[str, tuple] = {
    "operations": ("bcast", "reduce", "allreduce", "collect",
                   "reduce_scatter"),
    "shapes": (("line", 7), ("line", 8), ("line", 12), ("line", 30),
               ("mesh", 3, 4), ("mesh", 4, 4), ("row", 4, 5),
               ("col", 4, 5)),
    "lengths": (64, 1024, 16384),
}
GRIDS = {"smoke": SMOKE_GRID, "full": FULL_GRID}

#: runtime-backend sweep grids (real OS processes are ~1000x slower to
#: measure than simulated cells, so these stay small: every ranked
#: candidate of every cell is *executed*, repeatedly)
RUNTIME_SMOKE_GRID: Dict[str, tuple] = {
    "operations": ("bcast", "allreduce", "reduce_scatter"),
    "shapes": (("line", 4),),
    "lengths": (1024, 65536),
}
RUNTIME_FULL_GRID: Dict[str, tuple] = {
    "operations": ("bcast", "allreduce", "collect", "reduce_scatter"),
    "shapes": (("line", 4), ("line", 7)),
    "lengths": (1024, 65536),
}
RUNTIME_GRIDS = {"smoke": RUNTIME_SMOKE_GRID, "full": RUNTIME_FULL_GRID}

#: runtime regret gate: wall-clock measurements on a shared host are
#: noisy (scheduler jitter easily moves a single cell 20-30%), so the
#: real-process gate is looser than the simulator's 1.05
RUNTIME_MAX_MEDIAN_REGRET = 1.5

#: non-power-of-two group sizes the conflict-freedom section always
#: covers (the MST recursions and ring wrap are exactly where
#: power-of-two-only testing hides bugs)
CONFLICT_PS = (7, 12)


@dataclass(frozen=True)
class CandidateResult:
    """One strategy of one cell: predicted vs simulated."""

    strategy: str
    predicted: float
    measured: float

    @property
    def ratio(self) -> float:
        """Model error, predicted/measured (1.0 = perfect model)."""
        return self.predicted / self.measured if self.measured > 0 \
            else math.nan

    def to_json(self) -> Dict[str, float]:
        return {"strategy": self.strategy, "predicted": self.predicted,
                "measured": self.measured,
                "ratio": None if math.isnan(self.ratio) else self.ratio}


@dataclass(frozen=True)
class CellResult:
    """One (operation, shape, length) cell of the sweep."""

    operation: str
    shape: Tuple
    p: int
    n: int
    mesh_shape: Optional[Tuple[int, int]]
    chosen: str                 #: strategy auto dispatch resolves to
    best: str                   #: measured-fastest candidate
    chosen_measured: float
    best_measured: float
    candidates: Tuple[CandidateResult, ...]

    @property
    def regret(self) -> float:
        """Measured chosen / measured true-best (>= 1; 1 = optimal)."""
        return self.chosen_measured / self.best_measured \
            if self.best_measured > 0 else math.nan

    def to_json(self) -> Dict[str, object]:
        return {"operation": self.operation, "shape": list(self.shape),
                "p": self.p, "n": self.n,
                "mesh_shape": list(self.mesh_shape)
                if self.mesh_shape else None,
                "chosen": self.chosen, "best": self.best,
                "chosen_measured": self.chosen_measured,
                "best_measured": self.best_measured,
                "regret": None if math.isnan(self.regret) else self.regret,
                "candidates": [c.to_json() for c in self.candidates]}


def cell_environment(shape: Tuple):
    """(topology, group, p) of a sweep-grid shape."""
    from ..core.topology import LinearArray, Mesh2D
    kind = shape[0]
    if kind == "line":
        return LinearArray(shape[1]), None, shape[1]
    if kind not in ("mesh", "row", "col"):
        raise KeyError(f"unknown sweep shape {shape!r}")
    R, C = shape[1], shape[2]
    topo = Mesh2D(R, C)
    if kind == "mesh":
        return topo, None, R * C
    if kind == "row":
        r = R // 2
        return topo, [r * C + c for c in range(C)], C
    if kind == "col":
        c = C // 2
        return topo, [r * C + c for r in range(R)], R
    raise KeyError(f"unknown sweep shape {shape!r}")


def _cell_program(operation: str, n: int, algorithm, group):
    """Rank program running one collective with a pinned algorithm."""
    from ..core import api
    from ..core.partition import partition_sizes

    def prog(env):
        g = list(group) if group is not None else None
        if g is not None and env.rank not in g:
            return None
        me = g.index(env.rank) if g is not None else env.rank
        size = len(g) if g is not None else env.nranks
        if operation == "bcast":
            buf = np.arange(n, dtype=np.float64) if me == 0 else None
            yield from api.bcast(env, buf, root=0, total=n, group=g,
                                 algorithm=algorithm)
        elif operation == "collect":
            sizes = partition_sizes(n, size)
            yield from api.collect(env, np.full(sizes[me], float(me)),
                                   sizes=sizes, group=g,
                                   algorithm=algorithm)
        else:
            vec = np.arange(n, dtype=np.float64) + me
            fn = getattr(api, operation)
            yield from fn(env, vec, group=g, algorithm=algorithm)
        return None
    return prog


def measure_cell(operation: str, shape: Tuple, n: int, params,
                 algorithm) -> float:
    """Simulated time of one cell under one pinned algorithm."""
    from ..sim.machine import Machine
    topo, group, _ = cell_environment(shape)
    machine = Machine(topo, params)
    return machine.run(_cell_program(operation, n, algorithm, group)).time


def audit_cell(operation: str, shape: Tuple, n: int, params) -> CellResult:
    """Price and simulate every ranked candidate of one cell."""
    from ..core.groups import classify
    from ..core.selection import selector_for
    from ..core.strategy import Strategy

    topo, group, p = cell_environment(shape)
    g = tuple(group) if group is not None else tuple(range(topo.nnodes))
    struct = classify(g, topo)
    mesh_shape = struct.shape \
        if struct.is_mesh_aligned and struct.shape is not None else None

    sel = selector_for(params)
    # exact-length pricing for the model-error ratios ...
    ranked = sel.ranked(operation, p, n, mesh_shape)
    # ... but the *chosen* strategy is what dispatch actually resolves
    # (bucketed), so regret charges the production path, bucketing
    # included.
    chosen = sel.ranked_bucketed(operation, p, n, mesh_shape)[0]

    results: List[CandidateResult] = []
    for c in ranked:
        t = measure_cell(operation, shape, n, params, c.strategy)
        results.append(CandidateResult(
            strategy=str(c.strategy), predicted=c.cost, measured=t))
    by_strategy = {r.strategy: r for r in results}
    chosen_s = str(chosen.strategy)
    if chosen_s not in by_strategy:   # defensive: bucket-only candidate
        t = measure_cell(operation, shape, n, params, chosen.strategy)
        by_strategy[chosen_s] = CandidateResult(
            strategy=chosen_s, predicted=chosen.cost, measured=t)
        results.append(by_strategy[chosen_s])
    best = min(results, key=lambda r: (r.measured, r.strategy))
    return CellResult(
        operation=operation, shape=shape, p=p, n=n,
        mesh_shape=mesh_shape, chosen=chosen_s, best=best.strategy,
        chosen_measured=by_strategy[chosen_s].measured,
        best_measured=best.measured,
        candidates=tuple(results))


def grid_tasks(grid: Dict[str, tuple]) -> List[Tuple[str, Tuple, int]]:
    """The grid's cells as ``(operation, shape, n)`` tuples, in the
    canonical sweep order (operations, then shapes, then lengths) —
    the merge order of both the serial and the parallel sweep."""
    return [(operation, shape, n)
            for operation in grid["operations"]
            for shape in grid["shapes"]
            for n in grid["lengths"]]


def run_sweep(grid: Dict[str, tuple], params,
              progress=None) -> List[CellResult]:
    """All cells of a grid; ``progress(msg)`` is called per cell."""
    cells: List[CellResult] = []
    for operation, shape, n in grid_tasks(grid):
        cell = audit_cell(operation, shape, n, params)
        if progress is not None:
            progress(f"{operation} {shape} n={n}: "
                     f"{len(cell.candidates)} candidates, "
                     f"regret={cell.regret:.3f}")
        cells.append(cell)
    return cells


def _sweep_cell(task: Tuple[str, Tuple, int, str]) -> CellResult:
    """Picklable worker for the parallel sweep: one grid cell, with
    the params rebuilt from the preset name inside the worker."""
    operation, shape, n, params_name = task
    from ..core.params import preset
    return audit_cell(operation, shape, n, preset(params_name))


def run_sweep_parallel(grid: Dict[str, tuple], params_name: str,
                       workers: Optional[int] = None,
                       progress=None) -> List[CellResult]:
    """Shard :func:`run_sweep` over worker processes.

    Every cell is a pure function of ``(operation, shape, n,
    params_name)`` — each worker builds its own machine — and the
    results are merged in canonical sweep order, so the output is
    identical to the serial :func:`run_sweep` for any worker count
    (the determinism contract pinned by tests/analysis/test_parallel.py).
    """
    from .parallel import parallel_map
    tasks = [(operation, shape, n, params_name)
             for operation, shape, n in grid_tasks(grid)]
    cells = parallel_map(_sweep_cell, tasks, workers=workers)
    if progress is not None:
        for cell in cells:
            progress(f"{cell.operation} {cell.shape} n={cell.n}: "
                     f"{len(cell.candidates)} candidates, "
                     f"regret={cell.regret:.3f}")
    return cells


# ----------------------------------------------------------------------
# runtime backend: regret measured on real processes
# ----------------------------------------------------------------------


def _timed_cell_program(operation: str, n: int, algorithm, group,
                        reps: int):
    """Rank program running one pinned collective ``reps`` times, wall
    clock around the loop (after a group barrier), excluding process
    spawn and mesh wiring.  Member ranks return mean seconds per rep."""
    import time as _time

    from ..core import api
    from ..core.partition import partition_sizes

    def prog(env):
        g = list(group) if group is not None else None
        if g is not None and env.rank not in g:
            return None
        me = g.index(env.rank) if g is not None else env.rank
        size = len(g) if g is not None else env.nranks
        sizes = partition_sizes(n, size)
        yield from api.barrier(env, group=g)
        t0 = _time.perf_counter()
        for _ in range(reps):
            if operation == "bcast":
                buf = (np.arange(n, dtype=np.float64) if me == 0
                       else None)
                yield from api.bcast(env, buf, root=0, total=n, group=g,
                                     algorithm=algorithm)
            elif operation == "collect":
                yield from api.collect(env, np.full(sizes[me], float(me)),
                                       sizes=sizes, group=g,
                                       algorithm=algorithm)
            else:
                vec = np.arange(n, dtype=np.float64) + me
                fn = getattr(api, operation)
                yield from fn(env, vec, group=g, algorithm=algorithm)
        return (_time.perf_counter() - t0) / reps
    return prog


def measure_cell_runtime(machine, operation: str, n: int, algorithm,
                         group, reps: int = 3, trials: int = 3,
                         aggregate: str = "median") -> float:
    """Measured wall seconds of one cell on real processes: per trial
    the slowest member rank, reduced deterministically over trials."""
    from .calibrate import aggregate_trials
    raw = []
    for _ in range(trials):
        res = machine.run(_timed_cell_program(operation, n, algorithm,
                                              group, reps))
        raw.append(max(t for t in res.results if t is not None))
    return aggregate_trials(raw, aggregate)


def audit_cell_runtime(operation: str, shape: Tuple, n: int, params,
                       transport: str = "local", reps: int = 3,
                       trials: int = 3, timeout: float = 120.0
                       ) -> CellResult:
    """Price every ranked candidate with the fitted constants and
    *execute* each over :class:`~repro.runtime.launch.ProcessMachine`.

    The regret column charges exactly the production path: ``chosen``
    is what ``algorithm="auto"`` dispatch resolves (bucketed pricing)
    under the same fitted params the launcher now auto-loads.
    """
    from ..core.groups import classify
    from ..core.selection import selector_for
    from ..runtime.launch import ProcessMachine

    topo, group, p = cell_environment(shape)
    g = tuple(group) if group is not None else tuple(range(topo.nnodes))
    struct = classify(g, topo)
    mesh_shape = struct.shape \
        if struct.is_mesh_aligned and struct.shape is not None else None

    sel = selector_for(params)
    ranked = sel.ranked(operation, p, n, mesh_shape)
    chosen = sel.ranked_bucketed(operation, p, n, mesh_shape)[0]

    machine = ProcessMachine(topology=topo, params=params,
                             transport=transport, timeout=timeout)
    results: List[CandidateResult] = []
    for c in ranked:
        t = measure_cell_runtime(machine, operation, n, c.strategy,
                                 group, reps=reps, trials=trials)
        results.append(CandidateResult(
            strategy=str(c.strategy), predicted=c.cost, measured=t))
    by_strategy = {r.strategy: r for r in results}
    chosen_s = str(chosen.strategy)
    if chosen_s not in by_strategy:   # defensive: bucket-only candidate
        t = measure_cell_runtime(machine, operation, n, chosen.strategy,
                                 group, reps=reps, trials=trials)
        by_strategy[chosen_s] = CandidateResult(
            strategy=chosen_s, predicted=chosen.cost, measured=t)
        results.append(by_strategy[chosen_s])
    best = min(results, key=lambda r: (r.measured, r.strategy))
    return CellResult(
        operation=operation, shape=shape, p=p, n=n,
        mesh_shape=mesh_shape, chosen=chosen_s, best=best.strategy,
        chosen_measured=by_strategy[chosen_s].measured,
        best_measured=best.measured,
        candidates=tuple(results))


def run_sweep_runtime(grid: Dict[str, tuple], params,
                      transport: str = "local", reps: int = 3,
                      trials: int = 3, progress=None
                      ) -> List[CellResult]:
    """All cells of a grid, measured on real processes (serial: each
    cell already spawns a process group per candidate trial)."""
    cells: List[CellResult] = []
    for operation, shape, n in grid_tasks(grid):
        cell = audit_cell_runtime(operation, shape, n, params,
                                  transport=transport, reps=reps,
                                  trials=trials)
        if progress is not None:
            progress(f"{operation} {shape} n={n}: "
                     f"{len(cell.candidates)} candidates, "
                     f"regret={cell.regret:.3f}")
        cells.append(cell)
    return cells


def build_runtime_audit(grid_name="smoke", transport: str = "local",
                        profile=None, reps: int = 3, trials: int = 3,
                        progress=None) -> Dict[str, object]:
    """The selection-regret sweep on real processes under fitted
    constants: the paper's Table 3 methodology against live hardware.

    ``profile`` is a :class:`~repro.runtime.profile.MachineProfile`;
    None loads (or calibrates and persists) this host's profile.  The
    report mirrors ``AUDIT_model.json`` where the sections make sense —
    regret and model-error columns per cell — and adds the fitted
    profile (with provenance and noise stats) in place of the
    simulator-only conflict-freedom/drift sections.
    """
    from ..runtime.profile import ensure_profile

    if profile is None:
        profile = ensure_profile(transport=transport, progress=progress)
    grid = (RUNTIME_GRIDS[grid_name] if isinstance(grid_name, str)
            else grid_name)
    cells = run_sweep_runtime(grid, profile.params, transport=transport,
                              reps=reps, trials=trials, progress=progress)
    return {
        "backend": "runtime",
        "transport": transport,
        "grid": grid_name if isinstance(grid_name, str) else "custom",
        "max_median_regret": RUNTIME_MAX_MEDIAN_REGRET,
        "profile": profile.to_json(),
        "regret": _regret_stats(cells),
        "model_error": _ratio_stats(cells),
        "cells": [c.to_json() for c in cells],
    }


def check_runtime(report: Dict[str, object],
                  max_median_regret: float = RUNTIME_MAX_MEDIAN_REGRET
                  ) -> List[str]:
    """Gate a runtime audit; returns failure messages (empty = pass)."""
    failures: List[str] = []
    regret = report["regret"]
    if regret.get("count"):
        if regret["median"] > max_median_regret:
            failures.append(
                f"median runtime selection regret {regret['median']:.4f} "
                f"exceeds {max_median_regret:.4f}")
    else:
        failures.append("runtime regret sweep produced no cells")
    return failures


def render_runtime(report: Dict[str, object]) -> str:
    """Human-readable summary of a runtime audit report."""
    prof = report["profile"]
    p = prof["params"]
    lines = [f"runtime audit [{report['transport']}] "
             f"grid={report['grid']} host={prof['host']}",
             f"  fitted: alpha={p['alpha'] * 1e6:.1f}us "
             f"beta={p['beta'] * 1e9:.3f}ns/B "
             f"gamma={p['gamma'] * 1e9:.2f}ns/elem "
             f"overhead={p['sw_overhead'] * 1e6:.2f}us"]
    reg, err = report["regret"], report["model_error"]
    if reg.get("count"):
        lines.append(
            f"  regret: median={reg['median']:.4f} max={reg['max']:.4f} "
            f"({reg['optimal_cells']}/{reg['count']} cells optimal)")
    if err.get("count"):
        lines.append(
            f"  model error (pred/meas): median={err['median']:.4f} "
            f"range [{err['min']:.4f}, {err['max']:.4f}] over "
            f"{err['count']} strategy timings")
    worst = sorted((c for c in report["cells"]
                    if c["regret"] is not None),
                   key=lambda c: -c["regret"])[:5]
    for c in worst:
        lines.append(
            f"  cell {c['operation']} {tuple(c['shape'])} n={c['n']}: "
            f"chose {c['chosen']} ({c['chosen_measured']:.3g}s), best "
            f"{c['best']} ({c['best_measured']:.3g}s), "
            f"regret={c['regret']:.4f}")
    return "\n".join(lines)


def main_runtime(grid: str = "smoke", transport: str = "local",
                 out_path: str = "AUDIT_runtime.json",
                 do_check: bool = False, verbose: bool = True,
                 reps: int = 3, trials: int = 3) -> int:
    """CLI body for ``--audit --backend runtime``."""
    progress = print if verbose else None
    report = build_runtime_audit(grid, transport=transport, reps=reps,
                                 trials=trials, progress=progress)
    write_report(report, out_path)
    print(render_runtime(report))
    print(f"wrote {out_path}")
    if do_check:
        failures = check_runtime(report)
        for f in failures:
            print(f"FAIL: {f}")
        if failures:
            return 1
        print(f"check passed: median runtime regret <= "
              f"{RUNTIME_MAX_MEDIAN_REGRET}")
    return 0


# ----------------------------------------------------------------------
# report assembly
# ----------------------------------------------------------------------


def _ratio_stats(cells: Sequence[CellResult]) -> Dict[str, float]:
    ratios = [c.ratio for cell in cells for c in cell.candidates
              if not math.isnan(c.ratio)]
    if not ratios:
        return {"count": 0}
    return {"count": len(ratios), "median": median(ratios),
            "min": min(ratios), "max": max(ratios)}


def _regret_stats(cells: Sequence[CellResult]) -> Dict[str, float]:
    regrets = [c.regret for c in cells if not math.isnan(c.regret)]
    if not regrets:
        return {"count": 0}
    return {"count": len(regrets), "median": median(regrets),
            "max": max(regrets),
            "optimal_cells": sum(1 for r in regrets
                                 if r <= 1.0 + 1e-12)}


def build_audit(grid_name="smoke", params_name: str = "paragon",
                progress=None,
                workers: Optional[int] = None) -> Dict[str, object]:
    """Run the full model audit and return the JSON-ready report.

    Sections: the regret sweep over ``GRIDS[grid_name]`` (``grid_name``
    may also be a grid dict directly), the conflict-freedom verdicts
    for all four building blocks at each ``CONFLICT_PS`` group size
    (always including a non-power-of-two) plus a mesh column group, and
    the alpha/beta drift fit pooled over the conflict-free verification
    traffic.
    """
    from ..obs.audit import (BUILDING_BLOCKS, drift_from_runs,
                             run_block_primitive, verify_building_blocks)
    from ..core.params import preset
    from ..core.topology import Mesh2D

    params = preset(params_name)
    grid = GRIDS[grid_name] if isinstance(grid_name, str) else grid_name
    if workers is not None and workers != 1:
        cells = run_sweep_parallel(grid, params_name, workers=workers,
                                   progress=progress)
    else:
        cells = run_sweep(grid, params, progress=progress)

    verdicts = []
    for p in CONFLICT_PS:
        for v in verify_building_blocks(p, params=params).values():
            verdicts.append(v)
    # the mesh-aligned claim: a column group of a 4x5 mesh
    topo = Mesh2D(4, 5)
    col = [r * 5 + 2 for r in range(4)]
    for v in verify_building_blocks(4, params=params, topology=topo,
                                    group=col).values():
        verdicts.append(v)
    if progress is not None:
        bad = [v for v in verdicts if not v.ok]
        progress(f"conflict-freedom: {len(verdicts)} verdicts, "
                 f"{len(bad)} violated")

    drift_runs = [run_block_primitive(kind, 8, params=params, n=n)
                  for kind in ("mst_bcast", "bucket_collect")
                  for n in (64, 512, 4096)]
    drift = drift_from_runs(drift_runs, params)

    return {
        "params": params_name,
        "grid": grid_name if isinstance(grid_name, str) else "custom",
        "max_median_regret": MAX_MEDIAN_REGRET,
        "regret": _regret_stats(cells),
        "model_error": _ratio_stats(cells),
        "cells": [c.to_json() for c in cells],
        "conflict_freedom": [v.to_json() for v in verdicts],
        "drift": drift.to_json(),
    }


def check(report: Dict[str, object],
          max_median_regret: float = MAX_MEDIAN_REGRET) -> List[str]:
    """Gate a report; returns failure messages (empty = pass).

    Fails on any violated conflict-freedom verdict and on median
    selection regret above ``max_median_regret`` — the two invariants
    the library's whole selection story rests on.
    """
    failures: List[str] = []
    for v in report["conflict_freedom"]:
        if not v["ok"]:
            chans = ", ".join(str(tuple(c["channel"]))
                              for c in v["contended"])
            failures.append(
                f"conflict-freedom violated: {v['block']} p={v['p']} on "
                f"{v['topology']} shared {chans}")
    regret = report["regret"]
    if regret.get("count"):
        if regret["median"] > max_median_regret:
            failures.append(
                f"median selection regret {regret['median']:.4f} exceeds "
                f"{max_median_regret:.4f}")
    else:
        failures.append("regret sweep produced no cells")
    return failures


def render(report: Dict[str, object]) -> str:
    """Human-readable summary of an audit report."""
    lines = [f"model audit [{report['params']}] grid={report['grid']}"]
    reg, err = report["regret"], report["model_error"]
    if reg.get("count"):
        lines.append(
            f"  regret: median={reg['median']:.4f} max={reg['max']:.4f} "
            f"({reg['optimal_cells']}/{reg['count']} cells optimal)")
    if err.get("count"):
        lines.append(
            f"  model error (pred/meas): median={err['median']:.4f} "
            f"range [{err['min']:.4f}, {err['max']:.4f}] over "
            f"{err['count']} strategy timings")
    worst = sorted((c for c in report["cells"]
                    if c["regret"] is not None),
                   key=lambda c: -c["regret"])[:5]
    for c in worst:
        lines.append(
            f"  cell {c['operation']} {tuple(c['shape'])} n={c['n']}: "
            f"chose {c['chosen']} ({c['chosen_measured']:.3g}s), best "
            f"{c['best']} ({c['best_measured']:.3g}s), "
            f"regret={c['regret']:.4f}")
    bad = [v for v in report["conflict_freedom"] if not v["ok"]]
    lines.append(
        f"  conflict-freedom: {len(report['conflict_freedom'])} verdicts, "
        + ("all conflict-free" if not bad
           else f"{len(bad)} VIOLATED ({', '.join(v['block'] for v in bad)})"))
    d = report["drift"]
    lines.append(
        f"  drift: alpha fit {d['alpha_fit']:.4g} vs configured "
        f"{d['alpha_configured']:.4g}, beta fit {d['beta_fit']:.4g} vs "
        f"{d['beta_configured']:.4g} ({d['samples']} samples)")
    return "\n".join(lines)


def write_report(report: Dict[str, object], path: str) -> str:
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def main(grid: str = "smoke", params_name: str = "paragon",
         out_path: str = "AUDIT_model.json", do_check: bool = False,
         verbose: bool = True, workers: Optional[int] = None) -> int:
    """CLI body for ``python -m repro.analysis.report --audit``."""
    progress = print if verbose else None
    report = build_audit(grid, params_name, progress=progress,
                         workers=workers)
    write_report(report, out_path)
    print(render(report))
    print(f"wrote {out_path}")
    if do_check:
        failures = check(report)
        for f in failures:
            print(f"FAIL: {f}")
        if failures:
            return 1
        print(f"check passed: median regret <= {MAX_MEDIAN_REGRET}, "
              f"all building blocks conflict-free")
    return 0
