"""The C run loop against the Python reference loop in `reference.py`."""

import dataclasses
import itertools
import json
import os
import random
import runpy
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import reference
from saflip import _kernel
from saflip._kernel import COIN, METROPOLIS
from saflip.annealing import SolverParams, run_sa_flip
from saflip.cnf import CnfFormula
from saflip.placebo import run_placebo_flip

from conftest import PINNED, random_3cnf, run_python

RULES = (METROPOLIS, COIN)
UNSAT_PAIR = CnfFormula(1, ((1,), (-1,)), source_id="unsat-pair")
TRAJECTORY_TOOL = Path(__file__).resolve().parents[1] / "tools" / "trajectory_checksum.py"
mixed_cnf = runpy.run_path(str(TRAJECTORY_TOOL))["mixed_cnf"]


@pytest.fixture(scope="module")
def kernel():
    return _kernel.load()


def fields(outcome):
    """`dataclasses.asdict` of a RunOutcome without its `wall_time`."""
    out = dataclasses.asdict(outcome)
    del out["wall_time"]
    return out


def result(formula, params, rule, run=_kernel.run):
    """The `fields` of `run(formula, params, rule)`, or the raised error, as
    a comparable value."""
    try:
        out = run(formula, params, rule)
    except Exception as exc:
        return type(exc), str(exc)
    return fields(out)


def reference_result(formula, params, rule):
    """`result` of the reference loop."""
    return result(formula, params, rule, run=reference.run_loop)


def outcomes():
    """Results of a few runs under both rules on random 15-variable formulas."""
    rng = random.Random(7)
    cases = [(random_3cnf(15, 64, rng), SolverParams(**PINNED, seed=s)) for s in range(3)]
    return [result(f, p, rule) for f, p in cases for rule in RULES]


@pytest.fixture(scope="module")
def expected(kernel):
    """`outcomes()` through the kernel as first loaded."""
    return outcomes()


def test_fixture_grid_matches_reference(kernel, fixture_benchmarks):
    assert len(fixture_benchmarks) == 30
    for inst in fixture_benchmarks:
        for seed in (1, 2, 3):
            params = SolverParams(**PINNED, seed=seed)
            for rule in RULES:
                fast = result(inst.formula, params, rule)
                assert fast == reference_result(inst.formula, params, rule), (
                    inst.instance_id, seed, rule)


def test_solvers_are_the_kernel_run_under_their_rule(kernel):
    """At 5 clauses per variable the runs spend their whole budget, and the
    two rules end in different outcomes at some seed."""
    formula = random_3cnf(40, 200, random.Random(4))
    parted = 0
    for seed in range(3):
        params = SolverParams(**PINNED, seed=seed)
        sa = fields(run_sa_flip(formula, params))
        placebo = fields(run_placebo_flip(formula, params))
        assert sa == result(formula, params, METROPOLIS)
        assert placebo == result(formula, params, COIN)
        parted += placebo != sa
    assert parted


def random_case(rng, i):
    """Case i: UNSAT_PAIR for i < 2, else a random 3-CNF formula; every 40th
    case from i = 1 has t0 = 1e-300 and alpha = 0.01, where T = t0 * alpha**k
    underflows to 0.0 at k = 12; both paths then accept only neighbors
    that are no worse."""
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


def test_random_formulas_match_reference(kernel):
    rng = random.Random(2024)
    past_zero = []  # zero-temperature SA cases still unsolved after level 12
    for i in range(320):
        formula, params = random_case(rng, i)
        for rule in RULES:
            fast = result(formula, params, rule)
            assert fast == reference_result(formula, params, rule), (i, rule)
            if (i % 40 == 1 and rule == METROPOLIS and fast["best_score"] > 0
                    and fast["iterations_completed"] > 12):
                past_zero.append(i)
    assert past_zero[0] == 1


def test_underflowed_temperature_matches_reference(kernel):
    """51.71 * 0.5**k underflows to 0.0 at k = 1075; x1 and -x1 keep every
    run going through the last of the 1100 levels."""
    formula = CnfFormula(3, ((1,), (-1,), (2, 3)))
    for seed in range(5):
        params = SolverParams(alpha=0.5, m_steps=1, mni=1100, seed=seed)
        for rule in RULES:
            fast = result(formula, params, rule)
            assert fast == reference_result(formula, params, rule), (seed, rule)
            assert fast["iterations_completed"] == 1100


def test_mixed_width_formulas_match_reference(kernel):
    """Clause widths 1-5 and clauses holding x and -x, which 3-CNF never has."""
    rng = random.Random(5151)
    tautologies = unsolved = 0
    for i in range(200):
        formula = mixed_cnf(rng.randint(1, 20), rng.randint(1, 90), rng)
        tautologies += any(-lit in c for c in formula.clauses for lit in c)
        params = SolverParams(t0=10 ** rng.uniform(-3, 3), alpha=rng.uniform(0.01, 0.99),
                              m_steps=rng.randint(1, 20), mni=rng.randint(1, 40),
                              seed=rng.randrange(2**64))
        for rule in RULES:
            fast = result(formula, params, rule)
            assert fast == reference_result(formula, params, rule), (i, rule)
            unsolved += fast["best_score"] > 0
    assert tautologies > 100 and unsolved > 100


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129])
def test_shuffle_at_powers_of_two_matches_reference(kernel, n):
    """Flip's shuffle draws randbelow(i + 1) with the bit length of i + 1,
    which the kernel tracks across the loop: it changes where i + 1 crosses
    a power of two."""
    rng = random.Random(n)
    formula = mixed_cnf(n, 4 * n, rng)
    unsolved = 0
    for seed in range(2):
        params = SolverParams(t0=1.0, alpha=0.9, m_steps=3, mni=2, seed=seed)
        for rule in RULES:
            fast = result(formula, params, rule)
            assert fast == reference_result(formula, params, rule), (seed, rule)
            unsolved += fast["best_score"] > 0
    assert unsolved > 0 or n < 3


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_seeding_at_key_length_edges_matches_reference(kernel, seed):
    """The kernel seeds MT19937 as `random.Random(seed)` does, from one
    32-bit key word below 2**32 and from two at and above it.  The runs
    spend their whole budget, so every draw of the stream is compared."""
    rng = random.Random(seed % 1000)
    formula = mixed_cnf(40, 160, rng)
    formula = CnfFormula(formula.num_vars, formula.clauses + ((1,), (-1,)))
    params = SolverParams(t0=1.0, alpha=0.9, m_steps=4, mni=3, seed=seed)
    for rule in RULES:
        fast = result(formula, params, rule)
        assert fast == reference_result(formula, params, rule), rule
        assert fast["flip_calls"] == 1 + params.m_steps * params.mni


def sanitizer_runtimes():
    """The compiler's ASan and UBSan runtime libraries, or None when it
    lacks either."""
    paths = []
    for name in ("libasan.so", "libubsan.so"):
        proc = subprocess.run([*_kernel._compiler(), f"-print-file-name={name}"],
                              capture_output=True, text=True, timeout=60)
        path = proc.stdout.strip()
        if proc.returncode or not os.path.isabs(path):  # a bare name: not found
            return None
        paths.append(path)
    return paths


def test_kernel_indexing_is_clean_under_sanitizers(kernel, tmp_path, monkeypatch):
    """Both rules on few wide clauses, where tx[c] can exceed n, through a
    kernel built with AddressSanitizer and UndefinedBehaviorSanitizer; the
    sanitized build must also give the plain build's outcomes.  Every other
    formula gets the clauses x1 and -x1, so its runs spend the whole budget
    and reach the neighbour's state block, the last in the allocation."""
    runtimes = sanitizer_runtimes()
    if runtimes is None:
        pytest.skip("the compiler has no ASan or UBSan runtime")
    lib = tmp_path / "_kernel_sanitized.so"
    proc = subprocess.run(
        [*_kernel._compiler(), *_kernel.CFLAGS, "-fsanitize=address,undefined",
         "-fno-sanitize-recover=all", "-o", str(lib), str(_kernel.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr

    rng = random.Random(1717)
    cases, expected = [], []
    for i in range(300):
        formula = mixed_cnf(rng.randint(1, 70), rng.randint(1, 6), rng, max_width=9)
        if i % 2:
            formula = CnfFormula(formula.num_vars, formula.clauses + ((1,), (-1,)))
        params = SolverParams(t0=10 ** rng.uniform(-3, 3), alpha=rng.uniform(0.01, 0.99),
                              m_steps=rng.randint(1, 10), mni=rng.randint(1, 10),
                              seed=rng.randrange(2**64))
        for rule in RULES:
            cases.append([formula.num_vars, formula.clauses, dataclasses.asdict(params), rule])
            expected.append(fields(_kernel.run(formula, params, rule)))
    # Where just x and y of a clause are true, tx names x ^ y, which may exceed n.
    assert any(abs(x) ^ abs(y) > n for n, clauses, _, _ in cases
               for c in clauses for x, y in itertools.combinations(c, 2))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(cases))
    code = (
        "import ctypes, dataclasses, json, sys\n"
        "from pathlib import Path\n"
        "from saflip import _kernel\n"
        "from saflip.annealing import SolverParams\n"
        "from saflip.cnf import CnfFormula\n"
        "_kernel._library = lambda: ctypes.CDLL(sys.argv[1])\n"
        "out = []\n"
        "for n, clauses, params, rule in json.loads(Path(sys.argv[2]).read_text()):\n"
        "    params = SolverParams(**params)\n"
        "    run = _kernel.run(CnfFormula(n, tuple(map(tuple, clauses))), params, rule)\n"
        "    out.append(dataclasses.asdict(run))\n"
        "    del out[-1]['wall_time']\n"
        "print(json.dumps(out))\n"
    )
    monkeypatch.setenv("LD_PRELOAD", " ".join(runtimes))
    monkeypatch.setenv("ASAN_OPTIONS", "detect_leaks=0")
    proc = run_python("-c", code, str(lib), str(grid), timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert json.loads(proc.stdout) == json.loads(json.dumps(expected))


def test_packed_arrays_are_built_once_per_formula_and_dropped_with_it(kernel):
    formula = random_3cnf(15, 64, random.Random(3))
    params = SolverParams(**PINNED, seed=1)
    first = result(formula, params, METROPOLIS)
    lits, starts = pair = formula.packed
    assert result(formula, params, METROPOLIS) == first
    assert formula.packed is pair
    assert list(lits) == [lit for c in formula.clauses for lit in c]
    assert list(starts) == list(range(0, 3 * 64 + 1, 3))
    copy = CnfFormula(formula.num_vars, formula.clauses, formula.source_id)
    assert copy == formula and hash(copy) == hash(formula) and repr(copy) == repr(formula)
    assert result(copy, params, METROPOLIS) == first
    assert copy.packed is not pair
    alive = weakref.ref(lits)
    del formula, lits, starts, pair
    assert alive() is None


def test_threads_share_one_formula_that_nothing_has_packed(kernel):
    """More threads than cores run both rules on one fresh formula, with
    a tiny switch interval so they interleave while its arrays are built;
    each outcome must equal the serial one for its seed.  The clauses x1
    and -x1 make every run spend its whole budget in the kernel."""
    clauses = random_3cnf(40, 170, random.Random(11)).clauses + ((1,), (-1,))
    jobs = [(SolverParams(**PINNED, seed=seed), rule) for seed in range(8) for rule in RULES]
    serial = [result(CnfFormula(40, clauses), params, rule) for params, rule in jobs]
    formula = CnfFormula(40, clauses)
    assert "packed" not in vars(formula)
    outcomes = [None] * len(jobs)
    start = threading.Barrier(4)

    def work(k):
        start.wait(timeout=30)
        for i in range(k, len(jobs), 4):
            params, rule = jobs[i]
            outcomes[i] = result(formula, params, rule)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == serial
    lits, starts = pair = formula.packed
    assert formula.packed is pair
    assert list(lits) == [lit for c in clauses for lit in c]
    assert list(starts) == [0, *itertools.accumulate(map(len, clauses))]


def test_missing_compiler_raises_naming_it(kernel_cache, monkeypatch):
    monkeypatch.setattr(_kernel, "_compiler", lambda: ["/nonexistent/cc"])
    with pytest.raises(RuntimeError, match="/nonexistent/cc"):
        _kernel.load()
    assert list(_kernel.CACHE_DIR.iterdir()) == []


def test_failing_compiler_raises_with_its_message(kernel_cache, monkeypatch):
    stub = ["sh", "-c", 'echo "cc: no licence left" >&2; exit 1', "cc"]
    monkeypatch.setattr(_kernel, "_compiler", lambda: stub)
    with pytest.raises(RuntimeError) as info:
        _kernel.load()
    assert str(info.value) == "the C kernel cannot be built: cc: no licence left"
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
    _kernel.load()
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from saflip import _kernel\n"
        "_kernel.CACHE_DIR = Path(sys.argv[1])\n"
        "_kernel._compiler = lambda: sys.argv[2:]\n"
        "_kernel.load()\n"
    )
    proc = run_python("-c", code, str(_kernel.CACHE_DIR), *_kernel._compiler())
    assert proc.returncode == 0, proc.stderr
    assert kernel_cache() == 1


def test_warm_load_imports_no_subprocess(kernel, session_cache):
    assert _kernel._cache_path().exists()
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import saflip.cli\n"
        "from saflip import _kernel\n"
        "_kernel.CACHE_DIR = Path(sys.argv[1])\n"
        "_kernel.load()\n"
        "print('subprocess' in sys.modules)\n"
    )
    proc = run_python("-c", code, str(session_cache))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    _kernel.load()
    assert kernel_cache() == 2


def test_kernel_compiles_without_warnings(tmp_path):
    proc = subprocess.run(
        [*_kernel._compiler(), *_kernel.CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "_kernel.so"), str(_kernel.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


TRAJECTORY_SHA256 = "45979331a31f9185c14c95d3c1608fe073fb462c43b0c57751463b396f807fdf"


def test_trajectory_checksum_is_unchanged(session_cache):
    """No RNG draw and no result changed on the tool's grid of 380 runs.  The
    tool ingests the fixtures through the parse cache, so this also covers a
    cache hit once the cache is warm.  A change that alters results on purpose
    updates the hash."""
    code = (
        "import runpy, sys\n"
        "from pathlib import Path\n"
        "from saflip import _kernel\n"
        "_kernel.CACHE_DIR = Path(sys.argv[1])\n"
        "runpy.run_path(sys.argv[2], run_name='__main__')\n"
    )
    proc = run_python("-c", code, str(session_cache), str(TRAJECTORY_TOOL), timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{TRAJECTORY_SHA256}  380 runs, ")
