import itertools
from collections import Counter

import pytest

from saflip.annealing import SolverParams
from saflip.doe import (
    FACTOR_NAMES,
    box_behnken_4,
    estimate_effects,
    fractional_factorial_2_4_1,
    rsm_walk,
)

START = SolverParams(t0=50.0, alpha=0.9, m_steps=20, mni=50)


class TestBoxBehnken:
    def test_row_counts(self):
        design = box_behnken_4(center_points=3)
        assert len(design.coded_rows) == 27
        edge = [r for r in design.coded_rows if any(r)]
        center = [r for r in design.coded_rows if not any(r)]
        assert len(edge) == 24
        assert len(center) == 3

    def test_at_most_two_nonzero_coordinates(self):
        for row in box_behnken_4().coded_rows:
            assert sum(1 for c in row if c != 0) <= 2

    def test_center_decode_default_levels(self):
        design = box_behnken_4(center_points=1)
        center_params = design.decoded[-1]
        assert center_params == SolverParams(t0=100.0, alpha=0.85, m_steps=10, mni=50)

    def test_relabeling_symmetry(self):
        rows = box_behnken_4(center_points=1).coded_rows
        base = Counter(rows)
        for perm in itertools.permutations(range(4)):
            permuted = Counter(tuple(row[i] for i in perm) for row in rows)
            assert permuted == base


class TestFractionalFactorial:
    def test_defining_relation(self):
        design = fractional_factorial_2_4_1(START)
        assert len(design.coded_rows) == 8
        for a, b, c, d in design.coded_rows:
            assert d == a * b * c

    def test_columns_balanced(self):
        design = fractional_factorial_2_4_1(START)
        for col in range(4):
            values = [row[col] for row in design.coded_rows]
            assert values.count(-1) == 4 and values.count(1) == 4

    def test_columns_orthogonal(self):
        design = fractional_factorial_2_4_1(START)
        for i, j in itertools.combinations(range(4), 2):
            assert sum(row[i] * row[j] for row in design.coded_rows) == 0

    def test_decoded_spans(self):
        design = fractional_factorial_2_4_1(START)
        assert {p.t0 for p in design.decoded} == {40.0, 60.0}
        assert {round(p.alpha, 10) for p in design.decoded} == {0.86, 0.94}
        assert {p.m_steps for p in design.decoded} == {15, 25}
        assert {p.mni for p in design.decoded} == {40, 60}

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            fractional_factorial_2_4_1(
                SolverParams(t0=50, alpha=0.98, m_steps=20, mni=50)
            )


class TestEstimateEffects:
    def test_planted_main_effect(self):
        design = fractional_factorial_2_4_1(START)
        responses = [row[0] for row in design.coded_rows]
        report = estimate_effects(design, responses)
        assert report.main_effects["t0"] == pytest.approx(2.0)
        for name in FACTOR_NAMES[1:]:
            assert report.main_effects[name] == pytest.approx(0.0)

    def test_constant_responses(self):
        design = fractional_factorial_2_4_1(START)
        report = estimate_effects(design, [3.5] * 8)
        assert all(v == 0.0 for v in report.main_effects.values())
        assert all(v == 0.0 for v in report.interactions.values())
        assert report.intercept == 3.5

    def test_planted_interaction(self):
        design = fractional_factorial_2_4_1(START)
        responses = [row[0] * row[1] for row in design.coded_rows]
        report = estimate_effects(design, responses)
        assert report.interactions[("t0", "alpha")] == pytest.approx(2.0)
        for name in FACTOR_NAMES:
            assert report.main_effects[name] == pytest.approx(0.0)

    def test_planted_linear_model_recovered_exactly(self):
        design = fractional_factorial_2_4_1(START)
        coeffs = (0.7, -1.2, 0.4, 2.5)
        responses = [
            1.0 + sum(c * x for c, x in zip(coeffs, row)) for row in design.coded_rows
        ]
        report = estimate_effects(design, responses)
        for name, c in zip(FACTOR_NAMES, coeffs):
            assert report.main_effects[name] == pytest.approx(2 * c)
        assert report.intercept == pytest.approx(1.0)

    def test_center_rows_excluded(self):
        design = box_behnken_4(center_points=3)
        # Center rows carry an outlier response; contrasts must not see it.
        responses = [row[0] if any(row) else 99.0 for row in design.coded_rows]
        report = estimate_effects(design, responses)
        assert report.main_effects["t0"] == pytest.approx(2.0)

    def test_count_mismatch(self):
        design = fractional_factorial_2_4_1(START)
        with pytest.raises(ValueError):
            estimate_effects(design, [0.0] * 7)


class TestRsmWalk:
    def test_moves_toward_synthetic_optimum(self):
        def evaluator(params):
            return (params.m_steps - 30) ** 2 / 1000.0

        trace, final = rsm_walk(
            START, budget_limit=10**9, evaluator=evaluator, dead_band=1e-12
        )
        assert final.m_steps == 30
        # First step moves m_steps up by one half-distance.
        assert trace[0].effects.main_effects["m_steps"] < 0
        assert trace[1].center.m_steps == 25

    def test_budget_stopping_rule(self):
        def evaluator(params):
            return 1.0 / (params.m_steps * params.mni)

        trace, final = rsm_walk(START, budget_limit=5000, evaluator=evaluator)
        assert final.m_steps * final.mni > 5000
        assert "exceeds 5000" in trace[-1].decision

    def test_parameters_stay_valid(self):
        def evaluator(params):
            return params.alpha + params.t0 / 1e6  # pushes alpha and t0 down

        trace, final = rsm_walk(START, budget_limit=10**9, evaluator=evaluator)
        for step in trace:
            assert 0 < step.center.alpha < 1
            assert step.center.t0 > 0
            for params in step.decoded:
                assert 0 < params.alpha < 1
                assert params.t0 > 0
                assert params.m_steps >= 1 and params.mni >= 1

    def test_center_pinned_at_lower_bound(self):
        # t0 alone drives the score, so the walk lowers t0 until it sits one
        # half-distance above its lower bound and can move no further.
        trace, final = rsm_walk(START, budget_limit=10**9, evaluator=lambda p: p.t0)
        centers = [step.center.t0 for step in trace]
        assert centers == [50.0, 40.0, 30.0, 20.0, 10.000000001]
        assert [step.decision for step in trace] == ["move center"] * 4 + [
            "stop: center pinned at bounds"
        ]
        assert final == trace[-1].center
        assert all(p.t0 > 0 for step in trace for p in step.decoded)

    def test_evaluator_failure_preserves_trace(self):
        from saflip.doe import RsmEvaluationError

        calls = [0]

        def evaluator(params):
            calls[0] += 1
            if calls[0] > 10:
                raise RuntimeError("boom")
            return 1.0 / (params.m_steps * params.mni)

        with pytest.raises(RsmEvaluationError) as info:
            rsm_walk(START, budget_limit=10**9, evaluator=evaluator)
        assert len(info.value.trace) == 1  # one completed step before the failure
