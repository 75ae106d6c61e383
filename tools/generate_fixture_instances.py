#!/usr/bin/env python3
"""Generate the benchmark fixtures committed under tests/data/instances/.

Uniform random 3-SAT at the phase-transition clause counts (218/325/430/538
for n = 50/75/100/125), filtered to satisfiable instances the same way the
public uf* benchmark families were built: candidates are kept only when a
satisfying assignment is found.  Deterministic given the master seed.
"""

import argparse
import dataclasses
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from saflip.annealing import SolverParams, run_sa_flip
from saflip.cnf import random_3cnf, serialize_dimacs

CLAUSE_COUNTS = {50: 218, 75: 325, 100: 430, 125: 538}
SEARCH_PARAMS = SolverParams(t0=51.71, alpha=0.92, m_steps=50, mni=103)


def is_solvable(formula, seeds):
    for seed in seeds:
        outcome = run_sa_flip(
            formula, dataclasses.replace(SEARCH_PARAMS, seed=seed)
        )
        if outcome.solved:
            return True
    return False


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="tests/data/instances")
    parser.add_argument("--master-seed", type=int, default=20260826)
    parser.add_argument("--count", type=int, default=None,
                        help="instances per group (default 12 for n=50, else 6)")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.master_seed)
    for n, m in CLAUSE_COUNTS.items():
        wanted = args.count if args.count else (12 if n == 50 else 6)
        kept = 0
        candidate = 0
        while kept < wanted:
            candidate += 1
            name = f"genuf{n}-{kept + 1:02d}"
            formula = random_3cnf(n, m, rng, name)
            # Filter with search seeds disjoint from anything the tests use.
            search_seeds = [rng.randrange(2**63) for _ in range(3)]
            if not is_solvable(formula, search_seeds):
                print(f"n={n}: candidate {candidate} rejected")
                continue
            path = out / f"{name}.cnf"
            path.write_text(serialize_dimacs(formula))
            kept += 1
            print(f"n={n}: kept {name} (candidate {candidate})")


if __name__ == "__main__":
    main()
