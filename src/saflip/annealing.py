"""Simulated annealing over Flip-improved neighbors, plus the shared run skeleton."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from . import _kernel
from .cnf import EvalState, random_assignment
from .flip import flip


@dataclass(frozen=True)
class SolverParams:
    """Run parameters shared by the annealer and the placebo solver.

    The placebo ignores t0 and alpha; it inherits only m_steps and mni so the
    two solvers spend the same Flip budget.
    """

    t0: float = 51.71
    alpha: float = 0.92
    m_steps: int = 50
    mni: int = 103
    seed: int = 0

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError("t0 must be positive")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        # Both counts reach the C kernel as 64-bit integers.
        for name in ("m_steps", "mni"):
            value = getattr(self, name)
            if not isinstance(value, int) or not 1 <= value < 2**63:
                raise ValueError(f"{name} must be an integer in [1, 2**63)")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")

    def flip_budget(self):
        return 1 + self.m_steps * self.mni


@dataclass(frozen=True)
class RunOutcome:
    best_assignment: tuple
    best_score: float
    flip_calls: int
    iterations_completed: int
    solved: bool
    wall_time: float
    # Minimum score over every solution evaluated during the run.  The
    # best-tracking rule compares the incumbent, not the freshly evaluated
    # neighbor, so best_score can exceed this when a better neighbor was
    # evaluated but immediately replaced.
    min_evaluated_score: float = float("nan")

    def __post_init__(self):
        if self.solved != (self.best_score == 0.0):
            raise ValueError(
                f"solved={self.solved} contradicts best_score={self.best_score}"
            )


def acceptance_probability(delta_y, t):
    """Metropolis acceptance probability at temperature t (> 0)."""
    if not t > 0:
        raise ValueError("temperature must be positive")
    if delta_y <= 0:
        return 1.0
    return math.exp(-delta_y / t)


METROPOLIS, COIN = 0, 1  # acceptance rules, numbered as in `_kernel.c`


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


def _run_loop(formula, params, rule):
    """Shared solver skeleton.

    The annealer and the placebo differ only in `rule`, the acceptance rule
    (METROPOLIS or COIN) that decides whether a worse-or-equal neighbor
    replaces the incumbent at temperature t = t0 * alpha**k of level k.  The
    C kernel (`_kernel.c`) runs the whole loop in one call and gives the same
    outcome.  Without a C compiler the Python loop below runs; it is also the
    reference the kernel is tested against.

    RNG draw order (one stream per run, seeded from params.seed): initial
    valuation bits in variable order, permutation of the initial Flip, then
    per step: neighbor variable, Flip permutation, acceptance draw(s).

    Best tracking: each step compares the incumbent (not the new neighbor)
    with the best so far, before the acceptance decision.  A neighbor that
    solves the formula ends the run at once; any other better state accepted
    on the last step is therefore never recorded as best.
    """
    kernel = _kernel.load()  # loaded (or built) on the first call, before the clock
    start = time.perf_counter()
    rng = random.Random(params.seed)

    def outcome(assignment, score, iterations):
        return RunOutcome(
            best_assignment=tuple(assignment),
            best_score=score,
            flip_calls=flip_calls,
            iterations_completed=iterations,
            solved=score == 0.0,
            wall_time=time.perf_counter() - start,
            min_evaluated_score=min_evaluated,
        )

    if kernel is not None:
        best, best_unsat, min_unsat, flip_calls, k = _kernel.run(
            kernel, formula, params, rng.getstate()[1], rule
        )
        m = formula.num_clauses
        min_evaluated = min_unsat / m
        return outcome(best, best_unsat / m, k)

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


def run_sa_flip(formula, params):
    """Simulated annealing with geometric cooling; every candidate is
    post-processed by the Flip heuristic before evaluation."""
    return _run_loop(formula, params, METROPOLIS)
