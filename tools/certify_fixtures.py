#!/usr/bin/env python3
"""Certify every committed fixture satisfiable with a plain DPLL search.

The fixtures were kept only where the annealer solved them, so a solve rate
measured on them would lean on the solver under test.  This tool finds one
satisfying assignment per fixture with its own DPLL (unit propagation, then
a branch on the most frequent literal of the shortest clauses), uses no
saflip solver code, checks each assignment with a plain clause scan, and
writes them, keyed by the formula's content digest, to
`tests/data/fixture_certificates.json`.  A tier-1 test checks the file
against the fixtures without searching again; rerun this tool (about 4 s
on a 2-vCPU x86-64 machine) only when the fixtures change:

    python3 tools/certify_fixtures.py
"""

import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from saflip.harness import ingest_benchmarks

FIXTURES = ROOT / "tests" / "data" / "instances"
CERTIFICATES = ROOT / "tests" / "data" / "fixture_certificates.json"


def assign(clauses, lit):
    """The clauses with `lit` true: satisfied clauses dropped and `-lit`
    struck out; None when a clause is left empty."""
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = tuple(x for x in clause if x != -lit)
            if not clause:
                return None
        out.append(clause)
    return out


def dpll(clauses, true_lits=()):
    """Literals whose truth satisfies every clause (the other variables are
    free), or None when the clauses are unsatisfiable."""
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        clauses = assign(clauses, unit)
        if clauses is None:
            return None
        true_lits += (unit,)
    if not clauses:
        return true_lits
    shortest = min(map(len, clauses))
    counts = Counter(lit for c in clauses if len(c) == shortest for lit in c)
    lit = counts.most_common(1)[0][0]
    for choice in (lit, -lit):
        reduced = assign(clauses, choice)
        if reduced is not None:
            found = dpll(reduced, true_lits + (choice,))
            if found is not None:
                return found
    return None


def main():
    certificates = {}
    for inst in ingest_benchmarks(FIXTURES):
        clauses = inst.formula.clauses
        true_lits = dpll(clauses)
        if true_lits is None:
            sys.exit(f"{inst.instance_id} is unsatisfiable")
        true_vars = {lit for lit in true_lits if lit > 0}
        values = [int(v in true_vars) for v in range(1, inst.formula.num_vars + 1)]
        if not all(any(values[abs(x) - 1] == (x > 0) for x in c) for c in clauses):
            sys.exit(f"{inst.instance_id}: the search returned a falsifying assignment")
        certificates[inst.digest] = {"instance_id": inst.instance_id,
                                     "values": "".join(map(str, values))}
        print(f"{inst.instance_id}: satisfiable", file=sys.stderr)
    CERTIFICATES.write_text(json.dumps(certificates, indent=1, sort_keys=True) + "\n")
    print(CERTIFICATES)


if __name__ == "__main__":
    main()
