#!/usr/bin/env python3
"""Print one sha256 over the RunOutcomes of a fixed grid of runs.

The grid is the 30 committed fixtures x seeds 1-3 x {sa, placebo} at the
pinned params, then 100 seeded random formulas with clause widths 1-5 (a
clause may hold x and -x) under varied params, both solvers.  Each run adds
one JSON line of its outcome's fields and `solved`, without `wall_time`.  A
change that leaves this checksum unchanged changed no RNG draw and no result
on the grid.

    python3 tools/trajectory_checksum.py
"""

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from saflip.annealing import SolverParams, run_sa_flip
from saflip.cnf import CnfFormula
from saflip.harness import ingest_benchmarks
from saflip.placebo import run_placebo_flip

SOLVERS = (run_sa_flip, run_placebo_flip)
PINNED = SolverParams(t0=51.71, alpha=0.92, m_steps=50, mni=103)


def mixed_cnf(n, m, rng, max_width=5):
    """m clauses of 1 to max_width distinct literals over n variables; x and
    -x may share one."""
    literals = [*range(1, n + 1), *range(-n, 0)]
    return CnfFormula(n, tuple(tuple(rng.sample(literals, min(rng.randint(1, max_width), 2 * n)))
                               for _ in range(m)))


def runs():
    for inst in ingest_benchmarks(ROOT / "tests" / "data" / "instances"):
        for seed in (1, 2, 3):
            yield inst.formula, dataclasses.replace(PINNED, seed=seed)
    rng = random.Random(20261018)
    for _ in range(100):
        formula = mixed_cnf(rng.randint(1, 30), rng.randint(1, 120), rng)
        yield formula, SolverParams(t0=10 ** rng.uniform(-2, 2), alpha=rng.uniform(0.1, 0.99),
                                    m_steps=rng.randint(1, 20), mni=rng.randint(1, 20),
                                    seed=rng.randrange(2**64))


def main():
    h = hashlib.sha256()
    count = 0
    for formula, params in runs():
        for solver in SOLVERS:
            outcome = solver(formula, params)
            out = dataclasses.asdict(outcome)
            out["solved"] = outcome.solved
            del out["wall_time"]
            h.update(json.dumps(out, sort_keys=True).encode() + b"\n")
            count += 1
    print(f"{h.hexdigest()}  {count} runs, C loop")


if __name__ == "__main__":
    main()
