"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`.

Benchmark fixtures are locally generated satisfiable uniform random 3-SAT
instances at the phase-transition clause counts (see tools/ and
tests/data/instances/); the public uf archives are not reachable from the
test environment.
"""

import dataclasses
import itertools
import json
import random

import pytest

from reference import accept
from saflip._kernel import COIN
from saflip.annealing import SolverParams, run_sa_flip
from saflip.ber import ber_grouped
from saflip.doe import box_behnken_4, estimate_effects, fractional_factorial_2_4_1
from saflip.flip import flip
from saflip.harness import ExperimentPlan, execute
from saflip.placebo import run_placebo_flip

from conftest import AuditedState, random_3cnf, timeless
from test_ber import make_matrix, oracle_ber

PINNED_PARAMS = SolverParams(t0=51.71, alpha=0.92, m_steps=50, mni=103)
N_SEEDS = 10


def report(num, ok, detail=""):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def ceiling_results(fixture_benchmarks):
    """>= 10 n=50 instances x 10 paired seeds, pinned params, both solvers."""
    n50 = [inst for inst in fixture_benchmarks if inst.group == 50]
    assert len(n50) >= 10
    plan = ExperimentPlan(
        instances=n50, n_runs=N_SEEDS, master_seed=1, params=PINNED_PARAMS
    )
    matrices, failed = execute(plan)
    assert failed == []
    return matrices


@pytest.fixture(scope="module")
def desk_scale_results(fixture_benchmarks):
    """5 instances per n in {50, 75, 100, 125} x 10 paired seeds."""
    first_five = [
        inst
        for _, members in itertools.groupby(fixture_benchmarks, lambda inst: inst.group)
        for inst in itertools.islice(members, 5)
    ]
    assert len(first_five) == 20
    plan = ExperimentPlan(
        instances=first_five, n_runs=N_SEEDS, master_seed=2, params=PINNED_PARAMS
    )
    matrices, failed = execute(plan)
    assert failed == []
    return matrices


def test_criterion_1_n50_ceiling(ceiling_results):
    sa, pl = ceiling_results["sa"], ceiling_results["placebo"]
    stats = {}
    for label, matrix in (("sa", sa), ("placebo", pl)):
        cells = [y for row in matrix.scores for y in row]
        stats[label] = (cells.count(0.0) / len(cells), sum(cells) / len(cells))
    ok = all(rate == 1.0 and mean == 0.0 for rate, mean in stats.values())
    report(1, ok, f"success/mean per algorithm: {stats}")


def test_criterion_2_ber_degeneracy_n50(ceiling_results):
    reports = ber_grouped(ceiling_results["sa"], ceiling_results["placebo"], 0.0)
    triples = {rep.group: (rep.b, rep.e, rep.r) for rep in reports}
    ok = all(t == (0.0, 1.0, 0.0) for t in triples.values())
    report(2, ok, f"BER at delta=0: {triples}")


def test_criterion_3_equivalence_dominance(desk_scale_results):
    rep = ber_grouped(desk_scale_results["sa"], desk_scale_results["placebo"], 0.0)[-1]
    ok = rep.e >= 0.80 and max(rep.b, rep.r) <= 0.12
    report(3, ok, f"overall delta=0: b={rep.b:.4f} e={rep.e:.4f} r={rep.r:.4f}")


def test_criterion_4_delta_collapse(desk_scale_results):
    reports = ber_grouped(
        desk_scale_results["sa"], desk_scale_results["placebo"], 0.02
    )
    triples = {rep.group: (rep.b, rep.e, rep.r) for rep in reports}
    ok = all(t == (0.0, 1.0, 0.0) for t in triples.values())
    report(4, ok, f"BER at delta=0.02: {triples}")


def test_criterion_5_ber_oracle_equivalence():
    rng = random.Random(505)
    checked = 0
    for _ in range(1000):
        l, n = rng.randint(1, 5), rng.randint(1, 6)
        pool = [round(rng.random(), 2) for _ in range(8)]
        ym = make_matrix([[rng.choice(pool) for _ in range(n)] for _ in range(l)])
        y0 = make_matrix([[rng.choice(pool) for _ in range(n)] for _ in range(l)])
        delta = rng.uniform(0, 0.5)
        rep = ber_grouped(ym, y0, delta)[-1]
        b, e, total = oracle_ber(ym.scores, y0.scores, delta)
        assert (rep.b_count, rep.e_count) == (b, e)
        assert rep.b_count + rep.e_count + rep.r_count == total
        checked += 1
    report(5, checked == 1000, f"{checked} random matrices match the enumeration")


def test_criterion_6_monotonicity_and_antisymmetry():
    rng = random.Random(606)
    checked = 0
    for _ in range(1000):
        l, n = rng.randint(1, 4), rng.randint(1, 5)
        ym = make_matrix([[rng.random() for _ in range(n)] for _ in range(l)])
        y0 = make_matrix([[rng.random() for _ in range(n)] for _ in range(l)])
        d1, d2 = sorted((rng.uniform(0, 0.5), rng.uniform(0, 0.5)))
        lo, hi = ber_grouped(ym, y0, d1)[-1], ber_grouped(ym, y0, d2)[-1]
        assert hi.b <= lo.b and hi.r <= lo.r and hi.e >= lo.e
        swapped = ber_grouped(y0, ym, d1)[-1]
        assert (swapped.b_count, swapped.r_count, swapped.e_count) == (
            lo.r_count, lo.b_count, lo.e_count,
        )
        checked += 1
    report(6, checked == 1000, f"{checked} random inputs")


def test_criterion_7_flip_correctness():
    rng = random.Random(707)
    audited_gains = 0
    for _ in range(500):
        n = rng.randint(5, 20)
        m = rng.randint(n, min(4 * n, 85))
        formula = random_3cnf(n, m, rng)
        state = AuditedState(formula, [rng.randrange(2) for _ in range(n)])
        initial = state.unsat_fraction()
        outcome = flip(state, random.Random(rng.randrange(2**32)))
        assert outcome.final_score <= initial
        assert all(
            later <= earlier
            for earlier, later in zip(state.unsat_trace, state.unsat_trace[1:])
        )
        audited_gains += state.gain_checks
    report(7, True, f"500 instances, {audited_gains} incremental gains audited")


def test_criterion_8_determinism_and_seed_pairing(fixture_benchmarks, tmp_path):
    rng = random.Random(808)
    pairs = [
        (rng.choice(fixture_benchmarks), rng.randrange(2**63))
        for _ in range(20)
    ]
    fast = dataclasses.replace(PINNED_PARAMS, m_steps=10, mni=10)
    for inst, seed in pairs:
        params = dataclasses.replace(fast, seed=seed)
        for solver in (run_sa_flip, run_placebo_flip):
            assert timeless(solver(inst.formula, params)) == timeless(
                solver(inst.formula, params))

    # Harness journal confirms elementwise seed pairing.
    n50 = [inst for inst in fixture_benchmarks if inst.group == 50]
    plan = ExperimentPlan(instances=n50[:2], n_runs=3, master_seed=8, params=fast)
    journal = tmp_path / "journal.jsonl"
    execute(plan, journal_path=journal)
    seeds = {}
    for line in journal.read_text().splitlines():
        rec = json.loads(line)
        seeds.setdefault(rec["algorithm"], {})[
            (rec["instance_id"], rec["run_index"])
        ] = rec["seed"]
    ok = seeds["sa"] == seeds["placebo"] and len(seeds["sa"]) == 6
    report(8, ok, "20 determinism pairs + journal seed pairing")


def test_criterion_9_budget_parity_and_acceptance_rate(fixture_benchmarks):
    from saflip.cnf import CnfFormula

    params = dataclasses.replace(PINNED_PARAMS, m_steps=5, mni=7, seed=99)
    budget = 1 + params.m_steps * params.mni
    unsat = CnfFormula(1, ((1,), (-1,)))
    sa = run_sa_flip(unsat, params)
    pl = run_placebo_flip(unsat, params)
    inst = fixture_benchmarks[0]
    sat_sa = run_sa_flip(inst.formula, dataclasses.replace(PINNED_PARAMS, seed=4))
    sat_pl = run_placebo_flip(inst.formula, dataclasses.replace(PINNED_PARAMS, seed=4))
    pinned_budget = 1 + PINNED_PARAMS.m_steps * PINNED_PARAMS.mni
    budget_ok = (
        sa.flip_calls == pl.flip_calls == budget
        and sat_sa.flip_calls <= pinned_budget
        and sat_pl.flip_calls <= pinned_budget
    )

    rng = random.Random(909)
    trials = 100_000
    rate = sum(accept(COIN, rng, 0.0, 1.0) for _ in range(trials)) / trials
    rate_ok = abs(rate - 0.5) <= 0.01
    report(9, budget_ok and rate_ok,
           f"budgets ok={budget_ok}, acceptance rate {rate:.4f}")


def test_criterion_10_doe_correctness():
    bb = [row for row, _ in box_behnken_4()]
    bb_ok = (
        len(bb) == 27
        and sum(1 for r in bb if any(r)) == 24
        and all(sum(1 for c in r if c != 0) <= 2 for r in bb)
    )

    center = SolverParams(t0=50.0, alpha=0.9, m_steps=20, mni=50)
    ff = fractional_factorial_2_4_1(center)
    ff_rows = [row for row, _ in ff]
    relation_ok = all(d == a * b * c for a, b, c, d in ff_rows)
    balance_ok = all(
        [r[i] for r in ff_rows].count(sign) == 4
        for i in range(4)
        for sign in (-1, 1)
    )
    ortho_ok = all(
        sum(r[i] * r[j] for r in ff_rows) == 0
        for i in range(4)
        for j in range(i + 1, 4)
    )

    coeffs = (1.5, -0.25, 0.75, -2.0)
    responses = [
        0.3 + sum(c * x for c, x in zip(coeffs, row)) for row in ff_rows
    ]
    effects = estimate_effects(ff, responses)
    planted_ok = all(
        abs(effects["main_effects"][name] - 2 * c) < 1e-12
        for name, c in zip(("t0", "alpha", "m_steps", "mni"), coeffs)
    )
    interaction_responses = [row[0] * row[1] for row in ff_rows]
    inter = estimate_effects(ff, interaction_responses)
    planted_ok = planted_ok and abs(inter["interactions"]["t0+alpha"] - 2) < 1e-12

    ok = bb_ok and relation_ok and balance_ok and ortho_ok and planted_ok
    report(10, ok, f"bb={bb_ok} relation={relation_ok} balance={balance_ok} "
                   f"ortho={ortho_ok} planted={planted_ok}")
