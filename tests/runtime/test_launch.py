"""Launcher tests: failure propagation, watchdog, CLI, run surface."""

import time

import numpy as np
import pytest

from repro.core import api
from repro.runtime import (ProcessMachine, RankError,
                           RuntimeHangDiagnosis)
from repro.runtime import launch as launch_mod


def _echo(env):
    yield env.delay(0.0)
    return env.rank


class TestRunSurface:
    def test_per_rank_results_and_times(self):
        res = ProcessMachine(3, timeout=20).run(_echo)
        assert res.results == [0, 1, 2]
        assert res.nprocs == 3
        assert res.transport == "local"
        assert set(res.rank_times) == {0, 1, 2}
        assert res.time >= 0.0

    def test_inactive_ranks_return_none(self):
        def prog(env):
            if env.rank == 0:
                yield env.send(2, "hi", tag=4)
                return "sent"
            got = yield env.recv(0, tag=4)
            return got

        res = ProcessMachine(4, timeout=20).run(prog, ranks=[0, 2])
        assert res.results == ["sent", None, "hi", None]

    def test_program_args_forwarded(self):
        def prog(env, base, *, scale=1):
            yield env.delay(0.0)
            return (base + env.rank) * scale

        res = ProcessMachine(2, timeout=20).run(prog, 10, scale=3)
        assert res.results == [30, 33]

    def test_constructor_validation(self):
        from repro.core.topology import LinearArray
        with pytest.raises(ValueError, match="nprocs or topology"):
            ProcessMachine()
        with pytest.raises(ValueError, match="topology has"):
            ProcessMachine(4, topology=LinearArray(8))
        with pytest.raises(ValueError, match="unknown transport"):
            ProcessMachine(2, transport="smoke-signals")
        with pytest.raises(ValueError, match="out of range"):
            ProcessMachine(2, timeout=5).run(_echo, ranks=[0, 7])
        # nprocs inferred from the topology
        assert ProcessMachine(topology=LinearArray(5)).nnodes == 5

    def test_non_generator_program_rejected(self):
        def not_spmd(env):
            return env.rank

        with pytest.raises(RankError, match="yield style"):
            ProcessMachine(2, timeout=10).run(not_spmd)


class TestFailurePropagation:
    def test_rank_exception_carries_traceback(self):
        def prog(env):
            if env.rank == 1:
                raise ValueError("rank 1 exploded deliberately")
            out = yield from api.allreduce(env, np.ones(8))
            return out

        with pytest.raises(RankError) as ei:
            ProcessMachine(3, timeout=8, hard_grace=2.0).run(prog)
        err = ei.value
        assert set(err.failures) == {1}
        assert "rank 1 exploded deliberately" in err.failures[1]
        assert "ValueError" in err.failures[1]
        # peers stuck waiting on the dead rank are reported as collateral
        assert "rank 1 exploded" in str(err)

    def test_hang_produces_typed_diagnosis(self):
        def prog(env):
            if env.rank == 0:
                got = yield env.recv(1, tag=99)  # never sent
                return got
            yield env.delay(0.0)
            return env.rank

        t0 = time.monotonic()
        with pytest.raises(RuntimeHangDiagnosis) as ei:
            ProcessMachine(2, timeout=2.0, hard_grace=2.0).run(prog)
        diag = ei.value
        assert time.monotonic() - t0 < 8.0
        assert 1 in diag.finished
        assert 0 in diag.blocked
        assert "src=1" in diag.blocked[0]
        assert "tag=99" in diag.blocked[0]
        d = diag.to_dict()
        assert d["finished"] == [1]
        assert "tag=99" in d["blocked"]["0"]

    def test_watchdog_kills_wedged_rank(self):
        # A rank stuck *outside* the progress loop never trips its soft
        # deadline; the parent's hard deadline must reap it and report
        # its last status.
        def prog(env):
            if env.rank == 0:
                time.sleep(60)  # wedged in user code, not in a wait
            yield env.delay(0.0)
            return env.rank

        t0 = time.monotonic()
        with pytest.raises(RuntimeHangDiagnosis) as ei:
            ProcessMachine(2, timeout=1.0, hard_grace=1.0).run(prog)
        assert time.monotonic() - t0 < 10.0
        diag = ei.value
        assert diag.killed == [0]
        assert "killed by launcher watchdog" in diag.blocked[0]

    def test_wedged_rank_after_short_waits_reports_running(self):
        # Short waits write no status text; a rank wedged in user code
        # after them must still report "running", not an empty slot.
        def prog(env):
            peer = 1 - env.rank
            for k in range(3):
                yield env.send(peer, k, tag=k)
                yield env.recv(peer, tag=k)
            if env.rank == 0:
                time.sleep(60)
            return env.rank

        with pytest.raises(RuntimeHangDiagnosis) as ei:
            ProcessMachine(2, timeout=1.0, hard_grace=1.0).run(prog)
        diag = ei.value
        assert diag.killed == [0]
        assert diag.blocked[0].startswith("running")

    def test_deadlock_all_ranks_reported(self):
        def prog(env):
            # everyone waits on their left neighbour; nobody sends
            got = yield env.recv((env.rank - 1) % env.nranks, tag=0)
            return got

        with pytest.raises(RuntimeHangDiagnosis) as ei:
            ProcessMachine(3, timeout=1.5, hard_grace=2.0).run(prog)
        assert set(ei.value.blocked) == {0, 1, 2}
        assert ei.value.finished == []


class TestCli:
    def test_cli_runs_program(self, capsys):
        rc = launch_mod.main(["--np", "3", "--params", "unit",
                              "--topology", "linear:3",
                              "--timeout", "30",
                              "tests.runtime.progs:allreduce_demo"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# 3 ranks over local transport" in out
        # allreduce of arange(16)*(r%7+1)+r at index 1: sum of (r%7+1)+r
        want = float(sum((r % 7 + 1) + r for r in range(3)))
        assert f"rank 0: {want!r}" in out

    def test_cli_pingpong_tcp(self, capsys):
        rc = launch_mod.main(["--np", "2", "--transport", "tcp",
                              "--timeout", "30",
                              "tests.runtime.progs:pingpong"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rank 0: 126.0" in out  # 63 doubled on the way back

    def test_cli_reports_rank_error(self, capsys):
        rc = launch_mod.main(["--np", "2", "--timeout", "8",
                              "tests.runtime.progs:crasher"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "deliberate failure for the CLI test" in err

    def test_cli_rejects_bad_specs(self):
        with pytest.raises(SystemExit):
            launch_mod.main(["--np", "2", "no-colon-here"])
        with pytest.raises(SystemExit):
            launch_mod.main(["--np", "2", "--topology", "klein-bottle:4",
                             "tests.runtime.progs:pingpong"])
        with pytest.raises(SystemExit):
            launch_mod.main(["--np", "2", "--topology", "mesh:2xQ",
                             "tests.runtime.progs:pingpong"])
