"""Suite-wide isolation from the host: no stored profile, no env switches.

``ProcessMachine`` auto-loads a per-host calibration profile from
``~/.cache/repro`` (or ``$REPRO_PROFILE_PATH``), and a few environment
switches change dispatch or the simulator's inner loop.  Any of them
would make a test's outcome depend on the machine it runs on, so the
whole session sees an empty temporary profile store and none of the
switches.  Tests that want a profile or a switch set their own.

``--shuffle-seed N`` runs the test modules in an order drawn from ``N``
(tests inside a module keep their order), so a module that only passes
after another one has run shows up.
"""

import random

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


def pytest_addoption(parser):
    parser.addoption("--shuffle-seed", type=int, default=None,
                     help="run test modules in an order shuffled by this "
                          "seed")


def pytest_collection_modifyitems(config, items):
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        return
    modules = {}
    for item in items:
        modules.setdefault(item.nodeid.split("::", 1)[0], []).append(item)
    order = list(modules)
    random.Random(seed).shuffle(order)
    items[:] = [item for name in order for item in modules[name]]
