"""Annealer-vs-placebo evaluation toolkit for 3-SAT local search."""

__version__ = "0.1.0"
