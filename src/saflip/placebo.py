"""Placebo counterpart of the annealer: same skeleton, purely random acceptance."""

from __future__ import annotations

from .annealing import _run_loop


def placebo_accept(rng, delta_y=None, k=None):
    """Accept the neighbor with a freshly drawn random probability.

    Two independent uniform draws: p ~ U[0,1], then u ~ U[0,1]; the neighbor
    is accepted iff u < p, so the marginal acceptance rate is 1/2.  The score
    difference and iteration index are ignored.
    """
    p = rng.random()
    u = rng.random()
    return u < p


def run_placebo_flip(formula, params):
    """Run the naive solver: random restarts of nothing — random initial
    valuation, random neighbors, random acceptance — under the same Flip
    budget (1 + m_steps * mni) as the annealer.

    params.t0 and params.alpha are accepted but ignored; only m_steps, mni,
    and seed are used.
    """
    return _run_loop(formula, params, placebo_accept, placebo=True)
