"""Placebo counterpart of the annealer: the same run, coin-flip acceptance."""

from __future__ import annotations

from . import _kernel


def run_placebo_flip(formula, params):
    """Run the naive solver: random restarts of nothing — random initial
    valuation, random neighbors, random acceptance — under the same Flip
    budget (1 + m_steps * mni) as the annealer.

    params.t0 and params.alpha are accepted but ignored; only m_steps, mni,
    and seed are used.
    """
    return _kernel.run(formula, params, _kernel.COIN)
