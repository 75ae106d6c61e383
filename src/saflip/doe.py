"""Design-of-experiments tuning for the annealer's four parameters.

Screening uses a four-factor Box-Behnken design; calibration walks the
parameter space with 8-run half-fraction (2^4-1, generator D = ABC) designs,
moving the center along the estimated main effects until the Flip budget cap
is reached.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

from .annealing import SolverParams

# Most steepest-descent steps one `rsm_walk` takes.
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class Factor:
    """One tuned parameter: screening levels, calibration step and bounds."""

    levels: tuple  # screening levels (low, medium, high)
    half_distance: float  # calibration step and design half-width
    lo: float  # validity bounds of a decoded value
    hi: float
    integral: bool = False

    def value(self, x):
        """x as this factor's SolverParams field: rounded half up if integral."""
        return math.floor(x + 0.5) if self.integral else float(x)


FACTORS = {
    "t0": Factor((1.0, 100.0, 1000.0), 10.0, 1e-9, math.inf),
    "alpha": Factor((0.5, 0.85, 0.99), 0.04, 1e-9, 1 - 1e-9),
    "m_steps": Factor((1, 10, 20), 5.0, 1, math.inf, integral=True),
    "mni": Factor((10, 50, 100), 10.0, 1, math.inf, integral=True),
}
FACTOR_NAMES = tuple(FACTORS)


@dataclass(frozen=True)
class DesignMatrix:
    coded_rows: tuple  # rows of 4 coded levels
    decoded: tuple  # SolverParams per row (seed left at 0)


def box_behnken_4(center_points=3):
    """Four-factor Box-Behnken screening design.

    For each of the 6 factor pairs, the four (+/-1, +/-1) combinations with
    the remaining two factors at their medium level; plus `center_points`
    all-medium rows.  27 rows with the default 3 center points.
    """
    if center_points < 1:
        raise ValueError("center_points must be >= 1")
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for a, b in itertools.product((-1, 1), repeat=2):
            row = [0, 0, 0, 0]
            row[i], row[j] = a, b
            rows.append(tuple(row))
    rows.extend([(0, 0, 0, 0)] * center_points)
    decoded = tuple(
        SolverParams(**{
            name: f.value(f.levels[c + 1]) for (name, f), c in zip(FACTORS.items(), row)
        })
        for row in rows
    )
    return DesignMatrix(tuple(rows), decoded)


def fractional_factorial_2_4_1(center):
    """8-run half-fraction of the 2^4 factorial with generator D = ABC
    (resolution IV), centered on `center` with each factor's half-distance.

    Main effects are clear of two-factor interactions, but the two-factor
    interactions are aliased in pairs: t0*alpha with m_steps*mni, t0*m_steps
    with alpha*mni, and t0*mni with alpha*m_steps."""
    rows = tuple(
        (a, b, c, a * b * c) for a, b, c in itertools.product((-1, 1), repeat=3)
    )
    decoded = []
    for row in rows:
        values = {}
        for (name, f), coded in zip(FACTORS.items(), row):
            v = f.value(getattr(center, name) + coded * f.half_distance)
            # Snap float roundoff (e.g. a center clamped to lo + h minus h)
            # back onto the bound before rejecting genuine violations.
            tol = 1e-12 * max(1.0, abs(v))
            if f.lo - tol <= v < f.lo:
                v = f.lo
            elif f.hi < v <= f.hi + tol:
                v = f.hi
            if not f.lo <= v <= f.hi:
                raise ValueError(
                    f"decoded {name}={v} outside validity bounds at row {row}"
                )
            values[name] = v
        decoded.append(SolverParams(**values))
    return DesignMatrix(rows, tuple(decoded))


@dataclass(frozen=True)
class EffectReport:
    intercept: float
    main_effects: dict
    interactions: dict


def _contrast(signs, responses):
    """Mean response where the sign column is positive minus where negative."""
    plus = [y for s, y in zip(signs, responses) if s > 0]
    minus = [y for s, y in zip(signs, responses) if s < 0]
    return (sum(plus) / len(plus)) - (sum(minus) / len(minus)) if plus and minus else 0.0


def estimate_effects(design, responses):
    """Balanced-contrast effect estimates from one response per design row.

    Main effect of a factor = mean response at its +1 rows minus at its -1
    rows; interactions use the product column the same way.  Center rows
    (all-zero coded) carry no contrast information and are excluded.
    """
    responses = [float(y) for y in responses]
    if len(responses) != len(design.coded_rows):
        raise ValueError(
            f"{len(responses)} responses for {len(design.coded_rows)} design rows"
        )
    pairs = [
        (row, y)
        for row, y in zip(design.coded_rows, responses)
        if any(c != 0 for c in row)
    ]
    rows = [row for row, _ in pairs]
    ys = [y for _, y in pairs]
    main = {
        name: _contrast([row[idx] for row in rows], ys)
        for idx, name in enumerate(FACTOR_NAMES)
    }
    interactions = {
        (FACTOR_NAMES[i], FACTOR_NAMES[j]):
            _contrast([row[i] * row[j] for row in rows], ys)
        for i, j in itertools.combinations(range(4), 2)
    }
    intercept = sum(ys) / len(ys)
    return EffectReport(intercept=intercept, main_effects=main, interactions=interactions)


def _clamp(f, value):
    # A half-distance margin keeps the next design's +/- rows in bounds too.
    v = min(max(value, f.lo + f.half_distance), f.hi - f.half_distance)
    # A float factor keeps its type: an int t0 from a config stays an int.
    return f.value(v) if f.integral else v


@dataclass
class RsmStep:
    center: SolverParams
    coded_rows: tuple
    decoded: tuple
    responses: tuple
    effects: EffectReport
    decision: str

    def as_dict(self):
        return {
            "center": dataclasses.asdict(self.center),
            "design_rows": [list(r) for r in self.coded_rows],
            "row_params": [dataclasses.asdict(p) for p in self.decoded],
            "responses": list(self.responses),
            "main_effects": self.effects.main_effects,
            "interactions": {
                "+".join(k): v for k, v in self.effects.interactions.items()
            },
            "decision": self.decision,
        }


def rsm_walk(start, evaluator, budget_limit=5000, dead_band=0.0):
    """Steepest-descent walk over half-fraction designs.

    At each step: build the 2^4-1 design around the current center, evaluate
    the mean score per row with `evaluator(params)`, estimate main effects,
    and move the center one half-distance per factor against the sign of the
    effect (the score is minimized).  Stops when m_steps * mni exceeds
    `budget_limit`, when every main effect falls inside `dead_band`, when the
    center is pinned at its bounds, or after MAX_ITERATIONS steps.  Returns
    (trace, final center).
    """
    center = start
    trace = []
    for _ in range(MAX_ITERATIONS):
        design = fractional_factorial_2_4_1(center)
        responses = []
        try:
            for params in design.decoded:
                responses.append(float(evaluator(params)))
        except Exception as exc:
            raise RsmEvaluationError(trace, exc) from exc
        effects = estimate_effects(design, responses)

        def record(decision):
            trace.append(RsmStep(center, design.coded_rows, design.decoded,
                                 tuple(responses), effects, decision))

        if all(abs(v) <= dead_band for v in effects.main_effects.values()):
            record("stop: effects in dead band")
            break

        values = {}
        for name, f in FACTORS.items():
            effect = effects.main_effects[name]
            h = f.half_distance
            move = 0 if effect == 0 else (-h if effect > 0 else h)
            values[name] = _clamp(f, getattr(center, name) + move)
        new_center = dataclasses.replace(center, **values)
        if new_center.m_steps * new_center.mni > budget_limit:
            record(f"stop: m_steps*mni exceeds {budget_limit}")
            center = new_center
            break
        if new_center == center:
            record("stop: center pinned at bounds")
            break
        record("move center")
        center = new_center
    return trace, center


class RsmEvaluationError(RuntimeError):
    """Evaluator failure during the walk; carries the partial trace."""

    def __init__(self, trace, cause):
        super().__init__(f"evaluator failed: {cause}")
        self.trace = trace
