"""Simulated annealing over Flip-improved neighbors, and the run parameters
it shares with the placebo."""

from __future__ import annotations

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


def run_sa_flip(formula, params):
    """Simulated annealing with geometric cooling; every candidate is
    post-processed by the Flip heuristic before evaluation."""
    return _kernel.run(formula, params, _kernel.METROPOLIS)
