"""Workload definitions for the saflip benchmark.

Every workload is a sequence of `saflip` CLI calls.  Call k of a run uses the
master seed `call_seed(seed, k)`; call 0 uses the run's seed itself, so its
output checksum can be compared with the value committed in `expected.json`.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "data" / "instances"
EXPECTED = BENCH_DIR / "expected.json"

WORKLOADS = ("fixture-sweep", "unsat-budget", "tune-screen")
DEFAULT_SEED = 7
JOBS = 2  # fixture-sweep runs on the process-pool path at the box's core count
CALL_TIMEOUT_S = 120  # a call takes ~15 s; a run must end within 180 s
# The paper's pinned parameters: 1 + 50 * 103 = 5151 Flip calls per run.
PINNED_PARAMS = {"t0": 51.71, "alpha": 0.92, "m_steps": 50, "mni": 103}


@dataclass(frozen=True)
class Scale:
    """Sizes of the workloads.  FULL is what the benchmark measures; TINY
    exists for the smoke test and is never compared with expected.json."""

    groups: tuple  # instance sizes used (empty = all four)
    fixture_limit: int  # fixtures per group in fixture-sweep (0 = all)
    fixture_runs: int  # runs per instance and algorithm in fixture-sweep
    tune_runs: int  # runs per instance and design row in tune-screen
    params: dict = field(default_factory=lambda: dict(PINNED_PARAMS))
    layer_reps: int = 7  # repeats of each timed micro-measurement


FULL = Scale(groups=(), fixture_limit=0, fixture_runs=4, tune_runs=2)
TINY = Scale(
    groups=(50,), fixture_limit=2, fixture_runs=1, tune_runs=1,
    params={"t0": 51.71, "alpha": 0.92, "m_steps": 10, "mni": 30}, layer_reps=2,
)


def inputs_present():
    return (SRC / "saflip" / "cli.py").is_file() and FIXTURES.is_dir()


def call_seed(seed, k):
    """Master seed of call k: the run seed itself for call 0, then
    independent blake2b-derived seeds, so runs at nearby seeds share no calls."""
    if k == 0:
        return seed
    h = hashlib.blake2b(f"perfbench:{seed}:{k}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "big")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


# ---------------------------------------------------------------------------
# Inputs


def fixture_sizes():
    """{fixture path: number of variables}, in name order."""
    return {path: int(path.read_text().split("p cnf", 1)[1].split()[0])
            for path in sorted(FIXTURES.glob("*.cnf"))}


def first_fixture_per_group(groups=()):
    """Path of the first fixture (by name) of each size, ordered by size."""
    firsts = {}
    for path, n in fixture_sizes().items():
        firsts.setdefault(n, path)
    return [firsts[n] for n in sorted(firsts) if not groups or n in groups]


def sign_pattern_clauses():
    """The 8 clauses over variables 1-3 with every sign pattern; together
    they falsify every assignment of variables 1-3."""
    return [
        tuple(v if s else -v for v, s in zip((1, 2, 3), signs))
        for signs in itertools.product((True, False), repeat=3)
    ]


def unsat_formula(fixture):
    """The fixture plus the 8 sign-pattern clauses over variables 1-3:
    unsatisfiable by construction."""
    from saflip.cnf import CnfFormula, parse_dimacs

    base = parse_dimacs(fixture.read_text())
    return CnfFormula(base.num_vars, base.clauses + tuple(sign_pattern_clauses()),
                      f"unsat-{fixture.stem}")


def write_unsat_formulas(dest, groups=()):
    """Write the unsat formula of the first fixture of each size to `dest`."""
    from saflip.cnf import serialize_dimacs

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    paths = []
    for fixture in first_fixture_per_group(groups):
        formula = unsat_formula(fixture)
        out = dest / f"{formula.source_id}.cnf"
        out.write_text(serialize_dimacs(formula))
        paths.append(out)
    return paths


def certify_unsat(clauses):
    """True iff the clauses over variables 1-3 alone falsify every one of
    the 8 assignments of those variables (a brute-force certificate that the
    whole formula is unsatisfiable; it uses no solver code)."""
    small = [c for c in clauses if all(1 <= abs(lit) <= 3 for lit in c)]
    for bits in itertools.product((False, True), repeat=3):
        if all(any(bits[abs(lit) - 1] == (lit > 0) for lit in c) for c in small):
            return False
    return True


def satisfies(clauses, assignment):
    """Plain clause scan: does the 0/1 assignment satisfy every clause?"""
    return all(
        any(bool(assignment[abs(lit) - 1]) == (lit > 0) for lit in c) for c in clauses
    )


def write_config(workload, work, scale):
    """Write the workload's experiment config into `work`; return its path."""
    work = Path(work)
    work.mkdir(parents=True, exist_ok=True)
    doc = {"out_dir": "out", "deltas": [0.0, 0.01, 0.02], "params": scale.params}
    if scale.groups:
        doc["groups"] = list(scale.groups)
    if workload == "fixture-sweep":
        doc.update(benchmarks=[str(FIXTURES)], n_runs=scale.fixture_runs)
        if scale.fixture_limit:
            doc["limit_per_group"] = scale.fixture_limit
    elif workload == "unsat-budget":
        write_unsat_formulas(work / "unsat", scale.groups)
        doc.update(benchmarks=[str(work / "unsat")], n_runs=1,
                   validate_phase_transition=False)
    elif workload == "tune-screen":
        doc.update(benchmarks=[str(FIXTURES)], limit_per_group=1)
        # tune varies the parameters itself; keep the package defaults as centre
        del doc["params"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    path = work / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def cli_argv(workload, config, out_dir, master_seed, scale):
    if workload == "tune-screen":
        return ["tune", "--config", str(config), "--phase", "screen",
                "--runs", str(scale.tune_runs), "--seed", str(master_seed),
                "--out", str(out_dir)]
    jobs = JOBS if workload == "fixture-sweep" else 1
    return ["run", "--config", str(config), "--jobs", str(jobs),
            "--seed", str(master_seed), "--out", str(out_dir)]


# ---------------------------------------------------------------------------
# Running the CLI in a fresh process


@dataclass
class CallResult:
    wall_s: float
    exit_code: int
    flip_calls: int = 0
    flip_call_vars: int = 0  # sum of flip_calls * n over the call's runs
    cells: int = 0
    failed_cells: int = 0
    checksum: str = ""
    problems: list = field(default_factory=list)


def run_child(argv, log_path, timeout=CALL_TIMEOUT_S):
    """Run `python3 <argv>` from the checkout root; return (wall_s, exit code).
    The child is killed if it outlives `timeout`."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = -signal.SIGKILL
        return time.perf_counter() - start, code


def children_peak_rss_mb():
    """Largest resident set of any finished child process or its pool workers."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def run_workload_call(workload, config, out_dir, master_seed, scale, expected_cells):
    """One timed CLI call in a fresh process, then its output checks."""
    out_dir = Path(out_dir)
    argv = cli_argv(workload, config, out_dir, master_seed, scale)
    count_path = out_dir.parent / f"{out_dir.name}.count.json"
    if workload == "tune-screen":
        # tune journals nothing, so its Flip calls are summed by a wrapper
        # that only adds up RunOutcome.flip_calls (it reads no clock)
        argv = [str(BENCH_DIR / "count_tune.py"), str(count_path), *argv]
    else:
        argv = ["-m", "saflip.cli", *argv]
    wall, code = run_child(argv, out_dir.parent / f"{out_dir.name}.log")
    result = CallResult(wall_s=wall, exit_code=code, cells=expected_cells)
    if code != 0:
        result.failed_cells = expected_cells
        result.problems.append(f"{workload}: exit code {code}, see {out_dir}.log")
        return result
    check_outputs(workload, out_dir, scale, result, count_path)
    return result


# ---------------------------------------------------------------------------
# Output checks and checksum


def output_checksum(out_dir):
    """sha256 over the journal records without wall_time, then the bytes of
    every report file, in name order."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    journal = out_dir / "journal.jsonl"
    if journal.exists():
        for line in journal.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wall_time", None)
            h.update(json.dumps(rec, sort_keys=True).encode() + b"\n")
    reports = sorted(
        p for pattern in ("summary.json", "ber_*.csv", "results_*.csv",
                          "screening_effects.json")
        for p in out_dir.glob(pattern)
    )
    for path in reports:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def read_seed_column(path):
    with open(path, newline="") as fh:
        return [(row["instance_id"], row["run_index"], row["seed"])
                for row in csv.DictReader(fh)]


def check_outputs(workload, out_dir, scale, result, count_path):
    """Fill flip_calls, failed_cells, checksum and problems from the files
    one call wrote."""
    result.checksum = output_checksum(out_dir)
    if workload == "tune-screen":
        doc = json.loads(Path(count_path).read_text())
        result.flip_calls = doc["flip_calls"]
        result.flip_call_vars = doc["flip_call_vars"]
        if doc["runs"] != result.cells:
            result.problems.append(
                f"tune-screen: {doc['runs']} solver runs, expected {result.cells}")
        if not (out_dir / "screening_effects.json").is_file():
            result.problems.append("tune-screen: no screening_effects.json")
        return
    records = [json.loads(line)
               for line in (out_dir / "journal.jsonl").read_text().splitlines()]
    if len(records) != result.cells:
        result.problems.append(
            f"{workload}: {len(records)} journal records, expected {result.cells}")
    result.failed_cells = sum("error" in rec for rec in records)
    result.flip_calls = sum(rec.get("flip_calls", 0) for rec in records)
    sizes = {inst["instance_id"]: inst["n"]
             for inst in json.loads((out_dir / "manifest.json").read_text())}
    result.flip_call_vars = sum(rec.get("flip_calls", 0) * sizes[rec["instance_id"]]
                                for rec in records)
    if read_seed_column(out_dir / "results_sa.csv") != read_seed_column(
            out_dir / "results_placebo.csv"):
        result.problems.append(f"{workload}: SA and placebo seed columns differ")
    if workload == "unsat-budget":
        budget = 1 + scale.params["m_steps"] * scale.params["mni"]
        short = [rec for rec in records
                 if rec.get("solved") or rec.get("flip_calls") != budget]
        if short:
            result.problems.append(
                f"unsat-budget: {len(short)} runs solved or stopped before "
                f"the {budget}-call budget")


def expected_cells(workload, scale):
    """Solver runs one call of the workload performs."""
    if workload == "tune-screen":
        groups = len(scale.groups) or 4
        return 27 * groups * scale.tune_runs  # 27 Box-Behnken rows, 1 per group
    if workload == "unsat-budget":
        return 2 * (len(scale.groups) or 4)
    per_group = {}
    for n in fixture_sizes().values():
        per_group[n] = per_group.get(n, 0) + 1
    count = sum(
        min(c, scale.fixture_limit) if scale.fixture_limit else c
        for n, c in per_group.items() if not scale.groups or n in scale.groups
    )
    return 2 * count * scale.fixture_runs


def committed_checksum(workload):
    return json.loads(EXPECTED.read_text())["checksums"].get(workload)
