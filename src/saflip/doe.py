"""Design-of-experiments tuning for the annealer's four parameters.

Screening uses a four-factor Box-Behnken design; calibration walks the
parameter space with 8-run half-fraction (2^4-1, generator D = ABC) designs,
moving the center along the estimated main effects until the Flip budget cap
is reached.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

from .annealing import SolverParams

FACTOR_NAMES = ("t0", "alpha", "m_steps", "mni")

# Screening levels (low, medium, high) and calibration half-distances.
DEFAULT_LEVELS = {
    "t0": (1.0, 100.0, 1000.0),
    "alpha": (0.5, 0.85, 0.99),
    "m_steps": (1, 10, 20),
    "mni": (10, 50, 100),
}
DEFAULT_HALF_DISTANCES = {"t0": 10.0, "alpha": 0.04, "m_steps": 5.0, "mni": 10.0}

_BOUNDS = {
    "t0": (1e-9, float("inf")),
    "alpha": (1e-9, 1 - 1e-9),
    "m_steps": (1, float("inf")),
    "mni": (1, float("inf")),
}
_INTEGRAL = {"t0": False, "alpha": False, "m_steps": True, "mni": True}


@dataclass(frozen=True)
class FactorSpec:
    name: str
    low: float
    medium: float
    high: float
    half_distance: float
    integral: bool = False

    def __post_init__(self):
        if self.name not in FACTOR_NAMES:
            raise ValueError(f"unknown factor {self.name!r}")
        if not self.low < self.medium < self.high:
            raise ValueError(f"{self.name}: levels must be strictly increasing")
        if not self.half_distance > 0:
            raise ValueError(f"{self.name}: half_distance must be positive")

    def level(self, coded):
        value = {-1: self.low, 0: self.medium, 1: self.high}[coded]
        return _round_half_up(value) if self.integral else value


def default_factors():
    return tuple(
        FactorSpec(
            name=name,
            low=DEFAULT_LEVELS[name][0],
            medium=DEFAULT_LEVELS[name][1],
            high=DEFAULT_LEVELS[name][2],
            half_distance=DEFAULT_HALF_DISTANCES[name],
            integral=_INTEGRAL[name],
        )
        for name in FACTOR_NAMES
    )


def _round_half_up(x):
    import math

    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class DesignMatrix:
    design_name: str
    coded_rows: tuple  # rows of 4 coded levels
    decoded: tuple  # SolverParams per row (seed left at 0)

    def __post_init__(self):
        if len(self.coded_rows) != len(self.decoded):
            raise ValueError("coded/decoded row counts differ")


def _params_from_values(values):
    t0, alpha, m, mni = values
    return SolverParams(t0=float(t0), alpha=float(alpha), m_steps=int(m), mni=int(mni))


def box_behnken_4(factors=None, center_points=3):
    """Four-factor Box-Behnken screening design.

    For each of the 6 factor pairs, the four (+/-1, +/-1) combinations with
    the remaining two factors at their medium level; plus `center_points`
    all-medium rows.  27 rows with the default 3 center points.
    """
    factors = tuple(factors) if factors is not None else default_factors()
    if len(factors) != 4:
        raise ValueError("exactly 4 factors required")
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
        _params_from_values([f.level(c) for f, c in zip(factors, row)]) for row in rows
    )
    return DesignMatrix("box-behnken-4", tuple(rows), decoded)


def fractional_factorial_2_4_1(center, half_distances=None):
    """8-run half-fraction of the 2^4 factorial with generator D = ABC
    (resolution IV), centered on `center` with the given half-distances.

    Main effects are clear of two-factor interactions, but the two-factor
    interactions are aliased in pairs: t0*alpha with m_steps*mni, t0*m_steps
    with alpha*mni, and t0*mni with alpha*m_steps."""
    if half_distances is None:
        half_distances = DEFAULT_HALF_DISTANCES
    hd = [float(half_distances[name]) for name in FACTOR_NAMES]
    if any(h <= 0 for h in hd):
        raise ValueError("half-distances must be positive")
    center_values = [center.t0, center.alpha, center.m_steps, center.mni]
    rows = []
    for a, b, c in itertools.product((-1, 1), repeat=3):
        rows.append((a, b, c, a * b * c))
    decoded = []
    for row in rows:
        values = []
        for idx, name in enumerate(FACTOR_NAMES):
            v = center_values[idx] + row[idx] * hd[idx]
            if _INTEGRAL[name]:
                v = _round_half_up(v)
            lo, hi = _BOUNDS[name]
            # Snap float roundoff (e.g. a center clamped to lo + h minus h)
            # back onto the bound before rejecting genuine violations.
            tol = 1e-12 * max(1.0, abs(v))
            if lo - tol <= v < lo:
                v = lo
            elif hi < v <= hi + tol:
                v = hi
            if not lo <= v <= hi:
                raise ValueError(
                    f"decoded {name}={v} outside validity bounds at row {row}"
                )
            values.append(v)
        decoded.append(_params_from_values(values))
    return DesignMatrix("fractional-factorial-2^(4-1)", tuple(rows), tuple(decoded))


@dataclass(frozen=True)
class EffectReport:
    intercept: float
    main_effects: dict
    interactions: dict


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
    main = {}
    for idx, name in enumerate(FACTOR_NAMES):
        plus = [y for row, y in pairs if row[idx] > 0]
        minus = [y for row, y in pairs if row[idx] < 0]
        main[name] = (
            (sum(plus) / len(plus)) - (sum(minus) / len(minus)) if plus and minus else 0.0
        )
    interactions = {}
    for i, j in itertools.combinations(range(4), 2):
        plus = [y for row, y in pairs if row[i] * row[j] > 0]
        minus = [y for row, y in pairs if row[i] * row[j] < 0]
        interactions[(FACTOR_NAMES[i], FACTOR_NAMES[j])] = (
            (sum(plus) / len(plus)) - (sum(minus) / len(minus)) if plus and minus else 0.0
        )
    intercept = sum(y for _, y in pairs) / len(pairs)
    return EffectReport(intercept=intercept, main_effects=main, interactions=interactions)


def _clamp(name, value, margin=0.0):
    # `margin` keeps the next design's +/- half-distance rows in bounds too.
    lo, hi = _BOUNDS[name]
    v = min(max(value, lo + margin), hi - margin if hi != float("inf") else hi)
    if _INTEGRAL[name]:
        v = max(int(_round_half_up(v)), 1 + int(_round_half_up(margin)))
    return v


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


def rsm_walk(start, half_distances=None, budget_limit=5000, evaluator=None,
             dead_band=0.0, max_iterations=100):
    """Steepest-descent walk over half-fraction designs.

    At each step: build the 2^4-1 design around the current center, evaluate
    the mean score per row with `evaluator(params)`, estimate main effects,
    and move the center one half-distance per factor against the sign of the
    effect (the score is minimized).  Stops when m_steps * mni exceeds
    `budget_limit`, when every main effect falls inside `dead_band`, or after
    `max_iterations` steps.  Returns (trace, final center).
    """
    if evaluator is None:
        raise ValueError("evaluator is required")
    if half_distances is None:
        half_distances = DEFAULT_HALF_DISTANCES
    hd = {name: float(half_distances[name]) for name in FACTOR_NAMES}
    if any(h <= 0 for h in hd.values()):
        raise ValueError("half-distances must be positive")

    center = start
    trace = []
    for _ in range(max_iterations):
        design = fractional_factorial_2_4_1(center, hd)
        responses = []
        try:
            for params in design.decoded:
                responses.append(float(evaluator(params)))
        except Exception as exc:
            raise RsmEvaluationError(trace, exc) from exc
        effects = estimate_effects(design, responses)

        if all(abs(v) <= dead_band for v in effects.main_effects.values()):
            trace.append(RsmStep(center, design.coded_rows, design.decoded,
                                 tuple(responses), effects, "stop: effects in dead band"))
            break

        values = {}
        for name in FACTOR_NAMES:
            effect = effects.main_effects[name]
            step = 0 if effect == 0 else (-hd[name] if effect > 0 else hd[name])
            values[name] = _clamp(name, getattr(center, name) + step, margin=hd[name])
        new_center = SolverParams(
            t0=values["t0"], alpha=values["alpha"],
            m_steps=values["m_steps"], mni=values["mni"], seed=center.seed,
        )
        if new_center.m_steps * new_center.mni > budget_limit:
            trace.append(RsmStep(center, design.coded_rows, design.decoded,
                                 tuple(responses), effects,
                                 f"stop: m_steps*mni exceeds {budget_limit}"))
            center = new_center
            break
        trace.append(RsmStep(center, design.coded_rows, design.decoded,
                             tuple(responses), effects, "move center"))
        if new_center == center:
            trace[-1].decision = "stop: center pinned at bounds"
            break
        center = new_center
    return trace, center


class RsmEvaluationError(RuntimeError):
    """Evaluator failure during the walk; carries the partial trace."""

    def __init__(self, trace, cause):
        super().__init__(f"evaluator failed: {cause}")
        self.trace = trace
