"""Annealer-vs-placebo evaluation toolkit for 3-SAT local search."""

from .annealing import RunOutcome, SolverParams, acceptance_probability, run_sa_flip
from .ber import (
    BerReport,
    PairingError,
    ResultMatrix,
    ber_grouped,
    ber_pairwise,
    success_rate,
)
from .cnf import CnfFormula, DimacsError, EvalState, parse_dimacs, serialize_dimacs
from .flip import FlipOutcome
from .placebo import run_placebo_flip

__version__ = "0.1.0"

# The Flip subroutine is `saflip.flip.flip`; re-exporting it here would
# shadow the `saflip.flip` submodule.
__all__ = [
    "BerReport",
    "CnfFormula",
    "DimacsError",
    "EvalState",
    "FlipOutcome",
    "PairingError",
    "ResultMatrix",
    "RunOutcome",
    "SolverParams",
    "acceptance_probability",
    "ber_grouped",
    "ber_pairwise",
    "parse_dimacs",
    "run_placebo_flip",
    "run_sa_flip",
    "serialize_dimacs",
    "success_rate",
]
