"""Every committed fixture is satisfiable, without trusting the solver under
test: `tools/certify_fixtures.py` found the assignments with its own DPLL,
and a plain clause scan checks them here."""

import json
from pathlib import Path

from conftest import brute_force_unsat_count

CERTIFICATES = Path(__file__).parent / "data" / "fixture_certificates.json"


def test_every_fixture_has_a_satisfying_assignment(fixture_benchmarks):
    certificates = json.loads(CERTIFICATES.read_text())
    assert sorted(certificates) == sorted(inst.digest for inst in fixture_benchmarks)
    for inst in fixture_benchmarks:
        entry = certificates[inst.digest]
        values = [int(bit) for bit in entry["values"]]
        assert entry["instance_id"] == inst.instance_id
        assert len(values) == inst.formula.num_vars
        assert brute_force_unsat_count(inst.formula, values) == 0, inst.instance_id
