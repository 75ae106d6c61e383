"""The C run loop against the Python reference loop it replaces."""

import dataclasses
import random
import shutil
import subprocess
import time

import pytest

from saflip import _kernel
from saflip.annealing import SolverParams, run_sa_flip
from saflip.cnf import CnfFormula
from saflip.placebo import run_placebo_flip

from conftest import PINNED, random_3cnf, run_python

SOLVERS = (run_sa_flip, run_placebo_flip)
UNSAT_PAIR = CnfFormula(1, ((1,), (-1,)), source_id="unsat-pair")


@pytest.fixture(scope="module")
def kernel():
    fn = _kernel.load()
    if fn is None:
        compiler = _kernel._compiler()[0]
        assert shutil.which(compiler) is None, f"{compiler} is on PATH but the kernel did not load"
        pytest.skip("no C compiler")
    return fn


def result(solver, formula, params):
    """The outcome, or the raised error, as a comparable value."""
    try:
        out = solver(formula, params)
    except Exception as exc:
        return type(exc), str(exc)
    return dataclasses.replace(out, wall_time=0.0)


def outcomes():
    """Results of a few runs of both solvers on random 15-variable formulas."""
    rng = random.Random(7)
    cases = [(random_3cnf(15, 64, rng), SolverParams(**PINNED, seed=s)) for s in range(3)]
    return [result(solver, f, p) for f, p in cases for solver in SOLVERS]


@pytest.fixture(scope="module")
def expected(kernel):
    """`outcomes()` through the kernel as first loaded."""
    return outcomes()


def reference(solver, formula, params, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(_kernel, "load", lambda: None)
        return result(solver, formula, params)


def test_fixture_grid_matches_reference(kernel, fixture_benchmarks, monkeypatch):
    assert len(fixture_benchmarks.instances) == 30
    for inst in fixture_benchmarks.instances:
        for seed in (1, 2, 3):
            params = SolverParams(**PINNED, seed=seed)
            for solver in SOLVERS:
                fast = result(solver, inst.formula, params)
                assert fast == reference(solver, inst.formula, params, monkeypatch), (
                    inst.instance_id, seed, solver.__name__)


def random_case(rng, i):
    """Case i: UNSAT_PAIR for i < 2, else a random 3-CNF formula; every 40th
    case from i = 1 has t0 = 1e-300 and alpha = 0.01, where T = t0 * alpha**k
    reaches 0.0 at k = 12 and both paths must raise."""
    if i < 2:
        formula = UNSAT_PAIR
    else:
        formula = random_3cnf(rng.randint(3, 20), rng.randint(1, 90), rng)
    if i % 40 == 1:
        t0, alpha, mni = 1e-300, 0.01, 40
    else:
        t0, alpha, mni = 10 ** rng.uniform(-3, 3), rng.uniform(0.01, 0.99), rng.randint(1, 40)
    params = SolverParams(t0=t0, alpha=alpha, m_steps=rng.randint(1, 20), mni=mni,
                          seed=rng.randrange(2**64))
    return formula, params


def test_random_formulas_match_reference(kernel, monkeypatch):
    rng = random.Random(2024)
    raised = []
    for i in range(320):
        formula, params = random_case(rng, i)
        for solver in SOLVERS:
            fast = result(solver, formula, params)
            assert fast == reference(solver, formula, params, monkeypatch), (i, solver.__name__)
            if fast == (ValueError, "temperature must be positive"):
                raised.append(i)
    assert raised[0] == 1


def mixed_cnf(n, m, rng):
    """m clauses of 1-5 distinct literals over n variables; x and -x may share one."""
    literals = [*range(1, n + 1), *range(-n, 0)]
    return CnfFormula(n, tuple(tuple(rng.sample(literals, min(rng.randint(1, 5), 2 * n)))
                               for _ in range(m)))


def test_mixed_width_formulas_match_reference(kernel, monkeypatch):
    """Clause widths 1-5 and clauses holding x and -x, which 3-CNF never has."""
    rng = random.Random(5151)
    tautologies = unsolved = 0
    for i in range(200):
        formula = mixed_cnf(rng.randint(1, 20), rng.randint(1, 90), rng)
        tautologies += any(-lit in c for c in formula.clauses for lit in c)
        params = SolverParams(t0=10 ** rng.uniform(-3, 3), alpha=rng.uniform(0.01, 0.99),
                              m_steps=rng.randint(1, 20), mni=rng.randint(1, 40),
                              seed=rng.randrange(2**64))
        for solver in SOLVERS:
            fast = result(solver, formula, params)
            assert fast == reference(solver, formula, params, monkeypatch), (i, solver.__name__)
            unsolved += not fast.solved
    assert tautologies > 100 and unsolved > 100


def test_missing_compiler_falls_back_with_one_warning(expected, kernel_cache, monkeypatch,
                                                      capsys):
    capsys.readouterr()
    monkeypatch.setattr(_kernel, "_compiler", lambda: ["/nonexistent/cc"])
    assert outcomes() == expected
    assert _kernel.load() is None
    err = capsys.readouterr().err
    assert err.count("C kernel unavailable") == 1
    assert "/nonexistent/cc" in err
    assert list(_kernel.CACHE_DIR.iterdir()) == []


def test_kernel_load_is_outside_wall_time(kernel, monkeypatch):
    def slow_load():
        time.sleep(0.3)
        return kernel

    monkeypatch.setattr(_kernel, "load", slow_load)
    out = run_sa_flip(CnfFormula(3, ((1, 2, 3),)), SolverParams(seed=5))
    assert out.wall_time < 0.3


def cached_libraries():
    return sorted(p.name for p in _kernel.CACHE_DIR.glob("_kernel.*.so"))


def test_cold_cache_builds_once_and_later_loads_build_nothing(expected, kernel_cache):
    assert outcomes() == expected
    assert kernel_cache() == 1
    assert cached_libraries() == [_kernel._cache_path().name]
    _kernel.load.cache_clear()
    assert outcomes() == expected
    assert kernel_cache() == 1


def test_fresh_process_loads_the_cached_library(kernel, kernel_cache):
    assert _kernel.load() is not None
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from saflip import _kernel\n"
        "_kernel.CACHE_DIR = Path(sys.argv[1])\n"
        "_kernel._compiler = lambda: sys.argv[2:]\n"
        "raise SystemExit(_kernel.load() is None)\n"
    )
    proc = run_python("-c", code, str(_kernel.CACHE_DIR), *_kernel._compiler())
    assert proc.returncode == 0, proc.stderr
    assert kernel_cache() == 1


def test_edited_source_is_rebuilt_and_the_old_library_pruned(expected, kernel_cache, monkeypatch,
                                                             tmp_path):
    assert outcomes() == expected
    old = cached_libraries()
    edited = tmp_path / "_kernel.c"
    edited.write_bytes(_kernel.SOURCE.read_bytes() + b"\n/* edited */\n")
    monkeypatch.setattr(_kernel, "SOURCE", edited)
    _kernel.load.cache_clear()
    assert outcomes() == expected
    assert kernel_cache() == 2
    assert cached_libraries() == [_kernel._cache_path().name]
    assert cached_libraries() != old


def test_garbage_library_is_rebuilt(expected, kernel_cache):
    lib_path = _kernel._cache_path()
    lib_path.parent.mkdir()
    lib_path.write_bytes(b"not a shared library")
    assert outcomes() == expected
    assert kernel_cache() == 1
    assert lib_path.read_bytes().startswith(b"\x7fELF")


def test_unwritable_cache_builds_into_a_temporary_directory(expected, kernel_cache, monkeypatch,
                                                            tmp_path, capsys):
    capsys.readouterr()
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setattr(_kernel, "CACHE_DIR", not_a_dir / "__pycache__")
    assert outcomes() == expected
    assert kernel_cache() == 1
    assert capsys.readouterr().err == ""
    _kernel.load.cache_clear()
    assert _kernel.load() is not None
    assert kernel_cache() == 2


def test_kernel_compiles_without_warnings(tmp_path):
    compiler = _kernel._compiler()
    if shutil.which(compiler[0]) is None:
        pytest.skip("no C compiler")
    proc = subprocess.run(
        [*compiler, *_kernel.CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "_kernel.so"), str(_kernel.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
