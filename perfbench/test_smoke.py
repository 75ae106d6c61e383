"""Smoke test of the benchmark at tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))
import run as bench  # noqa: E402
from saflip.cnf import parse_dimacs  # noqa: E402

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def assert_metrics(result, declared):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert isinstance(reported["value"], (int, float)), m["name"]


def test_unsat_generator_output_is_unsatisfiable():
    dest = bench.WORK_ROOT / "smoke-unsat"
    try:
        paths = workloads.write_unsat_formulas(dest)
        assert len(paths) == 4
        for path, fixture in zip(paths, workloads.first_fixture_per_group()):
            formula = parse_dimacs(path.read_text())
            base = parse_dimacs(fixture.read_text())
            assert formula.clauses[: base.num_clauses] == base.clauses
            assert workloads.certify_unsat(formula.clauses)
            assert not workloads.certify_unsat(base.clauses)
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def test_certificate_rejects_a_missing_sign_pattern():
    clauses = workloads.sign_pattern_clauses()
    assert workloads.certify_unsat(clauses)
    assert not workloads.certify_unsat(clauses[1:])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_metric_with_a_stable_checksum(workload):
    first, record = bench.run(workload, seed=3, seconds=0, trace=False,
                              scale=workloads.TINY)
    second, again = bench.run(workload, seed=3, seconds=0, trace=False,
                              scale=workloads.TINY)
    assert_metrics(first, BENCHMARK["end_to_end"])
    assert_metrics(second, BENCHMARK["end_to_end"])
    assert record["checksum"] == again["checksum"]
    assert [c["checksum"] for c in record["calls"]] == [
        c["checksum"] for c in again["calls"]]


def test_traced_run_reports_every_layer_metric():
    result, record = bench.run("unsat-budget", seed=3, seconds=0, trace=True,
                               scale=workloads.TINY)
    assert_metrics(result, BENCHMARK["per_layer"])
    assert set(record["targets"]) == {m["name"] for m in BENCHMARK["per_layer"]}
