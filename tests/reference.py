"""The Python run loop and acceptance rule that the C kernel (`_kernel.c`)
must match step for step.

`run_loop(formula, params, rule)` is the reference for
`saflip._kernel.run(formula, params, rule)`: the parity tests run both on the
same inputs and compare the outcomes, with `wall_time` 0 on this side.
"""

from __future__ import annotations

import math
import random

from saflip._kernel import COIN, RunOutcome
from saflip.cnf import EvalState, random_assignment
from saflip.flip import flip


def acceptance_probability(delta_y, t):
    """Metropolis acceptance probability at temperature t >= 0.  T = t0 *
    alpha**k reaches 0.0 only by underflow; there only a neighbor that is no
    worse is accepted, the greedy limit of exp(-delta_y / t)."""
    if delta_y <= 0:
        return 1.0
    return math.exp(-delta_y / t) if t > 0 else 0.0


def accept(rule, rng, delta_y, t):
    """Whether a neighbor `delta_y` worse than the incumbent replaces it at
    temperature t.

    METROPOLIS (the annealer) draws u ~ U[0,1) and accepts iff
    u < acceptance_probability(delta_y, t).  COIN (the placebo) draws
    p ~ U[0,1), then u ~ U[0,1), and accepts iff u < p: a marginal rate of
    1/2 that ignores delta_y and t.
    """
    if rule == COIN:
        p = rng.random()
        return rng.random() < p
    return rng.random() < acceptance_probability(delta_y, t)


def run_loop(formula, params, rule):
    """One run under the acceptance `rule` (METROPOLIS or COIN).

    RNG draw order (one stream per run, seeded from params.seed): initial
    valuation bits in variable order, permutation of the initial Flip, then
    per step: neighbor variable, Flip permutation, acceptance draw(s).

    Best tracking: each step compares the incumbent (not the new neighbor)
    with the best so far, before the acceptance decision.  A neighbor that
    solves the formula ends the run at once; any other better state accepted
    on the last step is therefore never recorded as best.
    """
    rng = random.Random(params.seed)

    def outcome(assignment, score, iterations):
        return RunOutcome(
            best_assignment=tuple(assignment),
            best_score=score,
            flip_calls=flip_calls,
            iterations_completed=iterations,
            wall_time=0.0,
            min_evaluated_score=min_evaluated,
        )

    state = EvalState(formula, random_assignment(formula.num_vars, rng))
    flip(state, rng)
    flip_calls = 1
    y = state.unsat_fraction()
    min_evaluated = y

    best = state.values.copy()
    best_y = y

    if y == 0.0:
        return outcome(state.values, y, 0)

    n = formula.num_vars
    k = 0
    while k < params.mni:
        t = params.t0 * params.alpha**k  # t0 * alpha^k directly, so the schedule is exact
        for _ in range(params.m_steps):
            neighbor = state.copy()
            neighbor.apply_flip(rng.randrange(n) + 1)
            flip(neighbor, rng)
            flip_calls += 1
            y_new = neighbor.unsat_fraction()
            if y_new < min_evaluated:
                min_evaluated = y_new
            if y_new == 0.0:
                return outcome(neighbor.values, y_new, k)
            if y < best_y:
                best = state.values.copy()
                best_y = y
            if accept(rule, rng, y_new - y, t):
                state = neighbor
                y = y_new
        k += 1
    return outcome(best, best_y, k)
