import importlib
import random
import types

import saflip
from saflip.cnf import EvalState
from saflip.flip import flip

from conftest import AuditedState, random_3cnf


class FixedPermutation:
    """rng stub whose shuffle installs a chosen permutation."""

    def __init__(self, perm):
        self.perm = list(perm)

    def shuffle(self, seq):
        seq[:] = self.perm


def test_hand_simulated_pass(tiny_formula):
    # Pass 1 (order 2, 1, 3): var 2 has gain +1 and is kept; vars 1 and 3
    # are zero-gain sideways moves, also kept -> [1, 1, 1], one clause
    # repaired.  Pass 2: vars 2 and 1 slide back (gain 0), var 3 would
    # break a clause (gain -1) and is rejected -> [0, 0, 1]; no positive
    # improvement, so the loop stops after two passes.
    state = EvalState(tiny_formula, [0, 0, 0])
    outcome = flip(state, FixedPermutation([2, 1, 3]))
    assert outcome.final_score == 0.0
    assert state.values == [0, 0, 1]
    assert outcome.passes == 2

def test_satisfying_input_stays_satisfying(tiny_formula):
    state = EvalState(tiny_formula, [0, 1, 0])
    outcome = flip(state, random.Random(3))
    assert outcome.final_score == 0.0


def test_score_never_increases_and_gains_audited():
    rng = random.Random(99)
    for _ in range(50):
        f = random_3cnf(rng.randint(4, 20), rng.randint(5, 80), rng)
        state = AuditedState(f, [rng.randrange(2) for _ in range(f.num_vars)])
        initial = state.unsat_fraction()
        outcome = flip(state, random.Random(rng.randrange(2**32)))
        assert outcome.final_score <= initial
        # Kept flips have gain >= 0, so the unsat count never increases.
        assert all(b <= a for a, b in zip(state.unsat_trace, state.unsat_trace[1:]))
        assert outcome.final_score == state.unsat_fraction()
        assert outcome.assignment == tuple(state.values)


def test_pass_bound():
    rng = random.Random(5)
    for _ in range(30):
        f = random_3cnf(10, 42, rng)
        state = EvalState(f, [rng.randrange(2) for _ in range(10)])
        initial_unsat = state.unsat_count
        outcome = flip(state, random.Random(rng.randrange(2**32)))
        assert outcome.passes <= initial_unsat + 1


def test_determinism():
    rng = random.Random(11)
    f = random_3cnf(15, 64, rng)
    values = [rng.randrange(2) for _ in range(15)]
    a = flip(EvalState(f, values), random.Random(123))
    b = flip(EvalState(f, values), random.Random(123))
    assert a == b


def test_one_permutation_reused_across_passes():
    # A second shuffle would change behavior; the stub raises if called twice.
    class OneShot(FixedPermutation):
        def __init__(self, perm):
            super().__init__(perm)
            self.calls = 0

        def shuffle(self, seq):
            self.calls += 1
            assert self.calls == 1, "permutation must be drawn once per call"
            super().shuffle(seq)

    rng = random.Random(21)
    f = random_3cnf(8, 34, rng)
    stub = OneShot(range(1, 9))
    flip(EvalState(f, [0] * 8), stub)
    assert stub.calls == 1


def test_flip_submodule_not_shadowed():
    module = importlib.import_module("saflip.flip")
    assert isinstance(module, types.ModuleType)
    assert saflip.flip is module
    assert module.flip is flip
