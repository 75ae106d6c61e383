import dataclasses
import random

from saflip.annealing import COIN, SolverParams, accept
from saflip.cnf import CnfFormula
from saflip.placebo import run_placebo_flip

from conftest import PINNED, random_3cnf, timeless

UNSAT_PAIR = CnfFormula(1, ((1,), (-1,)), source_id="unsat-pair")


def test_trivially_satisfiable():
    f = CnfFormula(3, ((1, 2, 3),))
    out = run_placebo_flip(f, SolverParams(seed=9))
    assert out.solved
    assert out.best_score == 0.0


def test_determinism():
    rng = random.Random(41)
    for _ in range(5):
        f = random_3cnf(20, 85, rng)
        params = SolverParams(**PINNED, seed=rng.randrange(2**63))
        assert timeless(run_placebo_flip(f, params)) == timeless(run_placebo_flip(f, params))


def test_temperature_parameters_ignored():
    rng = random.Random(43)
    f = random_3cnf(20, 85, rng)
    a = SolverParams(t0=1e-9, alpha=0.01, m_steps=10, mni=10, seed=7)
    b = SolverParams(t0=1e9, alpha=0.999, m_steps=10, mni=10, seed=7)
    assert timeless(run_placebo_flip(f, a)) == timeless(run_placebo_flip(f, b))


def test_budget_parity_with_annealer():
    from saflip.annealing import run_sa_flip

    params = SolverParams(t0=2.0, alpha=0.9, m_steps=6, mni=8, seed=17)
    sa = run_sa_flip(UNSAT_PAIR, params)
    pl = run_placebo_flip(UNSAT_PAIR, params)
    # Unsatisfiable input exhausts the identical budget on both sides.
    assert sa.flip_calls == pl.flip_calls == params.flip_budget()


def test_budget_bound_random_instances():
    rng = random.Random(47)
    for _ in range(10):
        f = random_3cnf(20, 85, rng)
        params = SolverParams(m_steps=4, mni=6, seed=rng.randrange(2**63))
        assert run_placebo_flip(f, params).flip_calls <= params.flip_budget()


def test_acceptance_rate_is_half():
    # p ~ U[0,1] then u ~ U[0,1], accept iff u < p: marginal rate 1/2.
    rng = random.Random(2024)
    n = 100_000
    accepted = sum(accept(COIN, rng, 0.0, 1.0) for _ in range(n))
    assert abs(accepted / n - 0.5) < 0.01


def test_best_score_non_increasing():
    rng = random.Random(53)
    f = random_3cnf(20, 85, rng)
    params = SolverParams(m_steps=5, mni=5, seed=rng.randrange(2**63))
    out = run_placebo_flip(f, params)
    longer = run_placebo_flip(f, dataclasses.replace(params, mni=10))
    assert longer.best_score <= out.best_score
