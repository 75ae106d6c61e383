"""Simulated annealing over Flip-improved neighbors, plus the shared run skeleton."""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import _kernel
from .flip import flip  # noqa: F401  (the benchmark's traced run shims `annealing.flip`)


@dataclass(frozen=True)
class SolverParams:
    """Run parameters shared by the annealer and the placebo solver.

    The placebo ignores t0 and alpha; it inherits only m_steps and mni so the
    two solvers spend the same Flip budget.  Level k's temperature t0 *
    alpha**k reaches 0.0 only by underflow; such a level accepts only
    neighbors that are no worse.  The kernel's only failure is an allocation
    failure (MemoryError).
    """

    t0: float = 51.71
    alpha: float = 0.92
    m_steps: int = 50
    mni: int = 103
    seed: int = 0

    def __post_init__(self):
        # bool is a subclass of int: True would pass below as 1.
        if isinstance(self.t0, bool) or not self.t0 > 0:
            raise ValueError("t0 must be a positive number")
        if isinstance(self.alpha, bool) or not 0 < self.alpha < 1:
            raise ValueError("alpha must be a number in (0, 1)")
        # Both counts reach the C kernel as 64-bit integers.
        for name in ("m_steps", "mni"):
            value = getattr(self, name)
            if type(value) is not int or not 1 <= value < 2**63:
                raise ValueError(f"{name} must be an integer in [1, 2**63)")
        # The kernel takes the seed as a uint64 and seeds its generator as
        # `random.Random` does from an int; Random seeds a float or a str
        # from its hash or its sha512, which the kernel does not.
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")


@dataclass(frozen=True)
class RunOutcome:
    best_assignment: tuple
    best_score: float
    flip_calls: int
    iterations_completed: int
    wall_time: float
    # Minimum score over every solution evaluated during the run.  The
    # best-tracking rule compares the incumbent, not the freshly evaluated
    # neighbor, so best_score can exceed this when a better neighbor was
    # evaluated but immediately replaced.
    min_evaluated_score: float

    @property
    def solved(self):
        return self.best_score == 0.0


METROPOLIS, COIN = 0, 1  # acceptance rules, numbered as in `_kernel.c`


def _run_loop(formula, params, rule):
    """Shared solver skeleton, run in one call of the C kernel (`_kernel.c`).

    The annealer and the placebo differ only in `rule`, the acceptance rule
    (METROPOLIS or COIN) that decides whether a worse-or-equal neighbor
    replaces the incumbent at temperature t = t0 * alpha**k of level k.  The
    Python loop in `tests/reference.py` is the step-for-step reference the
    kernel is tested against; it documents the RNG draw order and the
    best-tracking rule.
    """
    kernel = _kernel.load()  # loaded (or built) on the first call, before the clock
    start = time.perf_counter()
    best, best_unsat, min_unsat, flip_calls, k = _kernel.run(kernel, formula, params, rule)
    m = formula.num_clauses
    return RunOutcome(
        best_assignment=best,
        best_score=best_unsat / m,
        flip_calls=flip_calls,
        iterations_completed=k,
        wall_time=time.perf_counter() - start,
        min_evaluated_score=min_unsat / m,
    )


def run_sa_flip(formula, params):
    """Simulated annealing with geometric cooling; every candidate is
    post-processed by the Flip heuristic before evaluation."""
    return _run_loop(formula, params, METROPOLIS)
