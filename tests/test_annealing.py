import dataclasses
import math
import random

import pytest

from reference import accept, acceptance_probability
from saflip._kernel import COIN, METROPOLIS
from saflip.annealing import SolverParams, run_sa_flip
from saflip.cnf import CnfFormula, EvalState

from conftest import PINNED, random_3cnf, timeless

UNSAT_PAIR = CnfFormula(1, ((1,), (-1,)), source_id="unsat-pair")


class TestAcceptanceProbability:
    def test_zero_delta_accepts(self):
        assert acceptance_probability(0.0, 10.0) == 1.0

    def test_negative_delta_accepts(self):
        assert acceptance_probability(-0.3, 0.01) == 1.0

    def test_direct_evaluation(self):
        assert acceptance_probability(0.1, 0.1) == pytest.approx(math.exp(-1))

    def test_high_temperature_limit(self):
        assert acceptance_probability(0.05, 1e6) > 0.9999

    def test_zero_temperature_is_the_greedy_limit(self):
        # T = t0 * alpha**k reaches 0.0 only by underflow; there, as at
        # t = 1e-300, only a neighbor that is no worse is accepted.
        assert acceptance_probability(0.0, 0.0) == 1.0
        assert acceptance_probability(-0.1, 0.0) == 1.0
        assert acceptance_probability(0.1, 0.0) == 0.0
        assert acceptance_probability(5e-324, 0.0) == 0.0

    def test_greedy_degeneration_at_tiny_temperature(self):
        rng = random.Random(0)
        for _ in range(1000):
            delta = rng.uniform(1e-6, 1.0)
            assert acceptance_probability(delta, 1e-300) == 0.0


@pytest.mark.parametrize("rule, draws", [(METROPOLIS, 1), (COIN, 2)], ids=["metropolis", "coin"])
def test_accept_draw_count(rule, draws):
    """Each decision draws the same number of uniforms whatever the score
    difference, so the stream stays aligned with the C kernel's."""

    class CountingRng(random.Random):
        draws = 0

        def random(self):
            self.draws += 1
            return super().random()

    for delta_y in (-0.1, 0.0, 0.1):
        rng = CountingRng(1)
        accept(rule, rng, delta_y, 1.0)
        assert rng.draws == draws


class TestSolverParams:
    def test_defaults_are_pinned_tuned_settings(self):
        p = SolverParams()
        assert (p.t0, p.alpha, p.m_steps, p.mni) == (51.71, 0.92, 50, 103)
        assert 1 + p.m_steps * p.mni == 1 + 50 * 103 == 5151

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t0": 0.0},
            {"t0": -1.0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"m_steps": 0},
            {"mni": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"m_steps": 5.0},
            {"mni": 2**63},
            # random.Random seeds 1.5 from its hash and "7" from its sha512,
            # streams that neither 1 nor 7 gives; the kernel takes an int.
            {"seed": 1.5},
            {"seed": "7"},
            # bool is an int subclass; a config's `true` must not run as 1.
            {"t0": True},
            {"alpha": True},
            {"m_steps": True},
            {"mni": True},
            {"seed": True},
            {"seed": False},
            {"t0": True, "m_steps": True, "mni": True, "seed": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverParams(**kwargs)


class TestRunSaFlip:
    def test_trivially_satisfiable(self):
        f = CnfFormula(3, ((1, 2, 3),))
        out = run_sa_flip(f, SolverParams(seed=5))
        assert out.solved
        assert out.best_score == 0.0
        assert out.flip_calls == 1  # the initial Flip already satisfies

    def test_determinism(self):
        rng = random.Random(31)
        for _ in range(5):
            f = random_3cnf(20, 85, rng)
            params = SolverParams(**PINNED, seed=rng.randrange(2**63))
            assert timeless(run_sa_flip(f, params)) == timeless(run_sa_flip(f, params))

    def test_best_score_matches_best_assignment(self):
        rng = random.Random(77)
        for _ in range(5):
            f = random_3cnf(15, 64, rng)
            out = run_sa_flip(f, SolverParams(t0=1.0, alpha=0.9, m_steps=5, mni=5,
                                              seed=rng.randrange(2**63)))
            state = EvalState(f, list(out.best_assignment))
            assert out.best_score == state.unsat_fraction()
            assert out.solved == (out.best_score == 0.0)
            assert out.min_evaluated_score <= out.best_score

    def test_flip_budget_bound(self):
        params = SolverParams(t0=1.0, alpha=0.5, m_steps=7, mni=9, seed=3)
        out = run_sa_flip(UNSAT_PAIR, params)
        assert not out.solved
        assert out.best_score == 0.5
        # Unsatisfiable input exhausts the budget exactly.
        assert out.flip_calls == 1 + params.m_steps * params.mni == 1 + 7 * 9
        assert out.iterations_completed == 9

    def test_budget_never_exceeded_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(10):
            f = random_3cnf(20, 85, rng)
            params = SolverParams(t0=5.0, alpha=0.8, m_steps=4, mni=6,
                                  seed=rng.randrange(2**63))
            out = run_sa_flip(f, params)
            assert out.flip_calls <= 1 + params.m_steps * params.mni

    def test_geometric_schedule_is_exact(self):
        params = SolverParams(t0=51.71, alpha=0.92, m_steps=50, mni=103)
        for k in range(params.mni + 1):
            assert params.t0 * params.alpha**k == 51.71 * 0.92**k

    def test_tiny_temperature_never_accepts_worsening(self):
        # At t0 ~ 0 the acceptance rule is pure descent; the incumbent's
        # score can then never exceed the initial Flip result.
        rng = random.Random(55)
        for _ in range(5):
            f = random_3cnf(20, 85, rng)
            seed = rng.randrange(2**63)
            greedy = SolverParams(t0=1e-300, alpha=0.5, m_steps=10, mni=10, seed=seed)
            out = run_sa_flip(f, greedy)
            baseline = run_sa_flip(
                f, dataclasses.replace(greedy, m_steps=1, mni=1)
            )
            assert out.best_score <= baseline.best_score
