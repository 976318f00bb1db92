"""Case generator: determinism, RNG isolation, strict round-trips."""

import json
import os
import random

import numpy as np
import pytest

import repro.chaos.generator as generator
from repro.chaos.generator import (CaseGenerator, ChaosCase, OPS, PROFILES,
                                   TOPO_CLASSES, build_topology,
                                   topo_nranks)
from repro.chaos.oracles import clean_run
from repro.sim import preset
from repro.sim.faults import profile_schedule

ADVERSARIAL_PROFILES = ("byzantine", "withholding", "misrouting")

_CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, os.pardir, "CHAOS_corpus.jsonl")


class TestDeterminism:
    def test_same_seed_same_cases(self):
        a = CaseGenerator(42)
        b = CaseGenerator(42)
        for _ in range(12):
            assert a.sample().to_dict() == b.sample().to_dict()

    def test_different_seeds_diverge(self):
        a = [CaseGenerator(1).sample().case_hash for _ in range(1)]
        b = [CaseGenerator(2).sample().case_hash for _ in range(1)]
        assert a != b

    def test_biased_sampling_is_deterministic_too(self):
        explored = {(tc, op, "none")
                    for tc in TOPO_CLASSES[:3] for op in OPS}
        a = CaseGenerator(9, profiles=("none",))
        b = CaseGenerator(9, profiles=("none",))
        for _ in range(8):
            assert a.sample(explored).to_dict() == \
                b.sample(explored).to_dict()

    def test_bias_reaches_unexplored_cells(self):
        # all cells explored except one: the redraw bias must find it
        # within a modest number of samples (deterministic per seed)
        target = ("ring", "bcast", "none")
        explored = {(tc, op, "none") for tc in TOPO_CLASSES
                    for op in OPS} - {target}
        gen = CaseGenerator(0, profiles=("none",))
        hits = sum((c.topo[0], c.op, c.profile) == target
                   for c in (gen.sample(explored) for _ in range(40)))
        assert hits >= 1


class TestSharedBuilder:
    """Every case gets its schedule from repro.sim.faults."""

    def test_generator_and_builder_agree_from_equal_rng_states(
            self, monkeypatch):
        states = []

        def spy(profile, rng, *args):
            states.append(rng.getstate())
            return profile_schedule(profile, rng, *args)

        monkeypatch.setattr(generator, "profile_schedule", spy)
        for profile in PROFILES[1:]:
            case = CaseGenerator(7, profiles=(profile,)).sample()
            rng = random.Random()
            rng.setstate(states[-1])
            t_clean, _ = clean_run(case)
            want = profile_schedule(profile, rng, case.topology(),
                                    preset(case.params).alpha, t_clean,
                                    case.members())
            assert case.faults == want.to_dict(), profile

    def test_generator_replays_committed_corpus(self):
        """Seed 42 with the corpus's own coverage bias redraws every
        committed case: the draw order is pinned end to end."""
        with open(_CORPUS) as f:
            records = [json.loads(line) for line in f][1:]
        records.sort(key=lambda r: int(r["case"]["origin"].split("=")[-1]))
        gen = CaseGenerator(42)
        explored = set()
        for rec in records:
            assert gen.sample(explored).to_dict() == rec["case"]
            c = rec["case"]
            explored.add((c["topo"][0], c["op"], c["profile"]))


class TestRngIsolation:
    def test_global_rng_state_untouched(self):
        random.seed(123)
        py_state = random.getstate()
        np.random.seed(123)
        np_state = np.random.get_state()
        gen = CaseGenerator(5)
        for _ in range(15):
            gen.sample()
        assert random.getstate() == py_state
        after = np.random.get_state()
        assert after[0] == np_state[0]
        assert np.array_equal(after[1], np_state[1])
        assert after[2:] == np_state[2:]


class TestSampling:
    def test_profiles_subset_respected(self):
        gen = CaseGenerator(3, profiles=("byzantine", "crash"))
        seen = {gen.sample().profile for _ in range(10)}
        assert seen <= {"byzantine", "crash"}

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="gremlin"):
            CaseGenerator(0, profiles=("gremlin",))

    def test_cases_are_well_formed(self):
        gen = CaseGenerator(11)
        for _ in range(25):
            case = gen.sample()
            p = case.nranks
            assert p == build_topology(case.topo).nnodes
            assert case.op in OPS
            assert case.profile in PROFILES
            assert case.n >= 1
            if case.group is not None:
                assert len(set(case.group)) == len(case.group)
                assert all(0 <= m < p for m in case.group)
                assert len(case.group) >= 2
            if case.op in ("collect", "reduce_scatter"):
                assert case.n >= len(case.members())
            sched = case.schedule()  # parses (strict from_dict)
            if case.profile == "none":
                assert case.faults == {}
            elif case.profile in ADVERSARIAL_PROFILES:
                assert sched.has_adversaries
                (rank,) = sched.adversarial_ranks()
                assert rank in case.members()
            else:
                assert not sched.has_adversaries

    def test_misrouting_worlds_have_three_ranks(self):
        gen = CaseGenerator(4, profiles=("misrouting",))
        for _ in range(10):
            assert gen.sample().nranks >= 3


class TestChaosCase:
    def _case(self, **over):
        base = dict(topo=("ring", 4), params="unit", op="bcast", n=8,
                    dtype="float64", group=None, profile="none",
                    faults={}, origin="test")
        base.update(over)
        return ChaosCase(**base)

    def test_hash_excludes_origin(self):
        a = self._case(origin="x")
        b = self._case(origin="y")
        assert a.case_hash == b.case_hash

    def test_hash_covers_content(self):
        assert self._case().case_hash != self._case(n=16).case_hash

    def test_round_trip(self):
        case = self._case(group=(0, 2))
        assert ChaosCase.from_dict(case.to_dict()) == case

    def test_unknown_field_rejected_by_name(self):
        d = self._case().to_dict()
        d["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            ChaosCase.from_dict(d)

    def test_members_and_nranks(self):
        assert self._case().members() == (0, 1, 2, 3)
        assert self._case(group=(1, 3)).members() == (1, 3)
        assert topo_nranks(("mesh", 3, 4)) == 12
        assert topo_nranks(("hypercube", 3)) == 8
