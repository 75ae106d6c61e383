import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from saflip.cnf import CnfFormula, EvalState, random_3cnf  # noqa: F401 (used by the tests)

DATA_DIR = Path(__file__).parent / "data" / "instances"

PINNED = dict(t0=51.71, alpha=0.92, m_steps=50, mni=103)


def timeless(outcome):
    """A RunOutcome with wall_time zeroed, so two runs compare with `==`."""
    return dataclasses.replace(outcome, wall_time=0.0)


def run_python(*args, timeout=None):
    """`python *args` in a fresh interpreter that imports this checkout's saflip."""
    import saflip

    src = str(Path(saflip.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def brute_force_unsat_count(formula, values):
    """From-scratch clause scan; the independent oracle for the incremental cache."""
    unsat = 0
    for clause in formula.clauses:
        if not any(
            values[lit - 1] if lit > 0 else not values[-lit - 1] for lit in clause
        ):
            unsat += 1
    return unsat


class AuditedState(EvalState):
    """EvalState that cross-checks every gain query against a full recount."""

    def __init__(self, formula, values):
        super().__init__(formula, values)
        self.gain_checks = 0
        self.unsat_trace = [self.unsat_count]

    def flip_gain(self, var):
        gain = super().flip_gain(var)
        before = brute_force_unsat_count(self.formula, self.values)
        flipped = self.values.copy()
        flipped[var - 1] ^= 1
        after = brute_force_unsat_count(self.formula, flipped)
        assert gain == before - after, f"incremental gain {gain} != oracle {before - after}"
        self.gain_checks += 1
        return gain

    def apply_flip(self, var):
        super().apply_flip(var)
        self.unsat_trace.append(self.unsat_count)


@pytest.fixture(scope="session", autouse=True)
def session_cache(tmp_path_factory):
    """Keep what the tests build and parse in a session directory, not in the
    checkout's `src/saflip/__pycache__`; yields that directory."""
    from saflip import _kernel

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "CACHE_DIR", tmp_path_factory.mktemp("cache") / "__pycache__")
        _kernel.load.cache_clear()
        yield _kernel.CACHE_DIR
    _kernel.load.cache_clear()


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """Point the kernel's build cache at an empty directory and log every
    compiler run; yields a function that returns the number of builds."""
    from saflip import _kernel

    root = tmp_path / "kernel"
    root.mkdir()
    log = root / "builds.log"
    log.touch()
    argv = ["sh", "-c", f'echo >> "{log}"; exec "$@"', "cc", *_kernel._compiler()]
    monkeypatch.setattr(_kernel, "_compiler", lambda: argv)
    monkeypatch.setattr(_kernel, "CACHE_DIR", root / "__pycache__")
    _kernel.load.cache_clear()
    yield lambda: len(log.read_text())
    _kernel.load.cache_clear()


@pytest.fixture(scope="session")
def fixture_benchmarks():
    from saflip.harness import ingest_benchmarks

    return ingest_benchmarks(DATA_DIR)


@pytest.fixture
def tiny_formula():
    return CnfFormula(num_vars=3, clauses=((1, 2, 3), (-1, 2, 3)), source_id="tiny")
