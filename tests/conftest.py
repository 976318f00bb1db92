"""Suite-wide isolation from the host: no stored profile, no env switches.

``ProcessMachine`` auto-loads a per-host calibration profile from
``~/.cache/repro`` (or ``$REPRO_PROFILE_PATH``), and a few environment
switches change dispatch or the simulator's inner loop.  Any of them
would make a test's outcome depend on the machine it runs on, so the
whole session sees an empty temporary profile store and none of the
switches.  Tests that want a profile or a switch set their own.
"""

import pytest

#: environment switches that change what a run computes or how
_SWITCHES = ("REPRO_AUTOTUNE", "REPRO_SIM_SCALAR", "REPRO_SIM_VEC_MIN")


@pytest.fixture(scope="session", autouse=True)
def _hermetic_env(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    store = tmp_path_factory.mktemp("repro-profiles") / "profiles.json"
    mp.setenv("REPRO_PROFILE_PATH", str(store))
    for name in _SWITCHES:
        mp.delenv(name, raising=False)
    yield
    mp.undo()
