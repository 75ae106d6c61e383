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


# All-medium rows of the screen.  `estimate_effects` leaves them out, and
# under common random numbers each reruns the same cells.
CENTER_POINTS = 3


def box_behnken_4():
    """Four-factor Box-Behnken screening design: 27 (coded row, SolverParams)
    pairs, each row 4 coded levels and its params' seed left at 0.

    For each of the 6 factor pairs, the four (+/-1, +/-1) combinations with
    the remaining two factors at their medium level; plus `CENTER_POINTS`
    all-medium rows.
    """
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for a, b in itertools.product((-1, 1), repeat=2):
            row = [0, 0, 0, 0]
            row[i], row[j] = a, b
            rows.append(tuple(row))
    rows.extend([(0, 0, 0, 0)] * CENTER_POINTS)
    return tuple(
        (row, SolverParams(**{
            name: f.value(f.levels[c + 1]) for (name, f), c in zip(FACTORS.items(), row)
        }))
        for row in rows
    )


def fractional_factorial_2_4_1(center):
    """8-run half-fraction of the 2^4 factorial with generator D = ABC
    (resolution IV), centered on `center` with each factor's half-distance:
    8 (coded row, SolverParams) pairs, as `box_behnken_4` gives.

    Main effects are clear of two-factor interactions, but the two-factor
    interactions are aliased in pairs: t0*alpha with m_steps*mni, t0*m_steps
    with alpha*mni, and t0*mni with alpha*m_steps."""
    design = []
    for a, b, c in itertools.product((-1, 1), repeat=3):
        row = (a, b, c, a * b * c)
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
        design.append((row, SolverParams(**values)))
    return tuple(design)


def _contrast(signs, responses):
    """Mean response where the sign column is positive minus where negative."""
    plus = [y for s, y in zip(signs, responses) if s > 0]
    minus = [y for s, y in zip(signs, responses) if s < 0]
    return (sum(plus) / len(plus)) - (sum(minus) / len(minus)) if plus and minus else 0.0


def estimate_effects(design, responses):
    """Balanced-contrast effect estimates from one response per row of
    `design`: {"intercept": mean, "main_effects": {factor name: effect},
    "interactions": {"t0+alpha": effect, ...}}, one interaction per factor
    pair, as `screening_effects.json` and each `rsm_trace.json` step hold them.

    Main effect of a factor = mean response at its +1 rows minus at its -1
    rows; interactions use the product column the same way.  Center rows
    (all-zero coded) carry no contrast information and are excluded.
    """
    responses = [float(y) for y in responses]
    if len(responses) != len(design):
        raise ValueError(f"{len(responses)} responses for {len(design)} design rows")
    pairs = [(row, y) for (row, _), y in zip(design, responses) if any(row)]
    rows = [row for row, _ in pairs]
    ys = [y for _, y in pairs]
    main = {
        name: _contrast([row[idx] for row in rows], ys)
        for idx, name in enumerate(FACTOR_NAMES)
    }
    interactions = {
        f"{FACTOR_NAMES[i]}+{FACTOR_NAMES[j]}":
            _contrast([row[i] * row[j] for row in rows], ys)
        for i, j in itertools.combinations(range(4), 2)
    }
    return {"intercept": sum(ys) / len(ys), "main_effects": main, "interactions": interactions}


def _clamp(f, value):
    # A half-distance margin keeps the next design's +/- rows in bounds too.
    v = min(max(value, f.lo + f.half_distance), f.hi - f.half_distance)
    # A float factor keeps its type: an int t0 from a config stays an int.
    return f.value(v) if f.integral else v


def rsm_walk(start, evaluator, trace, budget_limit=5000, dead_band=0.0):
    """Steepest-descent walk over half-fraction designs.

    At each step: build the 2^4-1 design around the current center, evaluate
    the mean score per row with `evaluator(params)`, estimate main effects,
    and move the center one half-distance per factor against the sign of the
    effect (the score is minimized).  Stops when m_steps * mni exceeds
    `budget_limit`, when every main effect falls inside `dead_band`, when the
    center is pinned at its bounds, or after MAX_ITERATIONS steps.

    Each finished step appends its JSON-ready record (center, design rows
    and their params, responses, effects, decision) to the list `trace`, so
    the steps before an evaluator failure stay there; returns the final
    center.
    """
    center = start
    for _ in range(MAX_ITERATIONS):
        design = fractional_factorial_2_4_1(center)
        responses = [float(evaluator(params)) for _, params in design]
        effects = estimate_effects(design, responses)

        def record(decision):
            trace.append({
                "center": dataclasses.asdict(center),
                "design_rows": [list(row) for row, _ in design],
                "row_params": [dataclasses.asdict(params) for _, params in design],
                "responses": responses,
                "main_effects": effects["main_effects"],
                "interactions": effects["interactions"],
                "decision": decision,
            })

        if all(abs(v) <= dead_band for v in effects["main_effects"].values()):
            record("stop: effects in dead band")
            break

        values = {}
        for name, f in FACTORS.items():
            effect = effects["main_effects"][name]
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
    return center
