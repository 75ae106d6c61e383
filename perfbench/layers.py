"""Traced run: per-layer metrics timed from outside the package.

Spans are recorded by shims this file installs on the module attributes
through which one layer calls the next (`saflip.harness.ALGORITHMS`,
`saflip.cli.run_sa_flip`, `saflip.annealing.flip`), and by timing direct
calls into each module's public functions.  A shim whose target no longer
exists leaves its metrics "not measured" (value null), never 0.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import time
from pathlib import Path

import workloads
from workloads import certify_unsat, satisfies

# name -> (unit, better, end-to-end metric and workload it should move)
LAYER_METRICS = {
    "cnf.parse_dimacs_ms": ("ms", "lower", "setup_s on fixture-sweep"),
    "cnf.evalstate_init_us": ("us", "lower", "flip_call_vars_per_s on unsat-budget (once per run)"),
    "cnf.evalstate_copy_us": ("us", "lower", "flip_call_vars_per_s on unsat-budget (every step)"),
    "cnf.flip_gain_ns": ("ns", "lower", "flip_call_vars_per_s on unsat-budget"),
    "cnf.apply_flip_ns": ("ns", "lower", "flip_call_vars_per_s on unsat-budget"),
    "flip.call_us.n50": ("us", "lower", "flip_call_vars_per_s on unsat-budget, less on fixture-sweep"),
    "flip.call_us.n125": ("us", "lower", "flip_call_vars_per_s on unsat-budget, less on fixture-sweep"),
    "flip.gain_queries_per_call": ("count", "lower", "flip_call_vars_per_s on unsat-budget"),
    "flip.applied_per_call": ("count", "lower", "flip_call_vars_per_s on unsat-budget"),
    "flip.passes_per_call": ("count", "lower", "flip_call_vars_per_s on unsat-budget"),
    "flip.applied_per_query": ("ratio", "higher", "flip_call_vars_per_s on unsat-budget"),
    "annealing.run_full_s.n50": ("s", "lower", "flip_call_vars_per_s on unsat-budget"),
    "annealing.run_full_s.n125": ("s", "lower", "flip_call_vars_per_s on unsat-budget"),
    "placebo.run_full_s.n50": ("s", "lower", "flip_call_vars_per_s on unsat-budget"),
    "placebo.run_full_s.n125": ("s", "lower", "flip_call_vars_per_s on unsat-budget"),
    "annealing.run_self_frac": ("ratio", "lower", "bounds a Flip-only gain on unsat-budget"),
    "annealing.run_solved_ms.p50": ("ms", "lower", "flip_call_vars_per_s on fixture-sweep"),
    "annealing.run_solved_ms.tail": ("ms", "lower", "flip_call_vars_per_s on fixture-sweep"),
    "harness.ingest_ms": ("ms", "lower", "setup_s on fixture-sweep and tune-screen"),
    "harness.execute_overhead_us_per_cell": ("us", "lower", "flip_call_vars_per_s on fixture-sweep"),
    "harness.parallel_efficiency": ("ratio", "higher", "flip_call_vars_per_s on fixture-sweep"),
    "harness.journal_bytes_per_cell": ("bytes", "lower", "flip_call_vars_per_s on fixture-sweep"),
    "harness.summarize_ms": ("ms", "lower", "flip_call_vars_per_s on fixture-sweep"),
    "ber.grouped_ms": ("ms", "lower", "flip_call_vars_per_s on fixture-sweep"),
    "plots.svg_ms": ("ms", "lower", "flip_call_vars_per_s on fixture-sweep"),
    "tune.solver_frac": ("ratio", "higher", "flip_call_vars_per_s on tune-screen"),
    "tune.flip_calls": ("count", "lower", "flip_call_vars_per_s on tune-screen"),
    "tune.rows_unsolved": ("count", "lower", "flip_call_vars_per_s on tune-screen"),
    "cli.import_ms": ("ms", "lower", "setup_s on every workload"),
    "trace.untraced_wall_s": ("s", "lower", "the traced workload's call, shims off"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall of the same call"),
}


class RecheckError(AssertionError):
    """A run reported `solved` but its best assignment falsifies a clause."""


class Tracer:
    """In-memory spans, aggregated per (parent, name): count, total and self
    time.  Self time is a span's duration minus that of its child spans."""

    def __init__(self):
        self.stack = []  # [name, child seconds]
        self.stats = {}
        self.cells = []  # (algorithm, seconds, solved) per solver run
        self.flip_calls = 0
        self.rechecked = 0
        self.missing = set()
        self.last = 0.0  # duration of the most recently closed span

    def call(self, name, fn, *args):
        parent = self.stack[-1][0] if self.stack else ""
        self.stack.append([name, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            self.last = elapsed
            _, child = self.stack.pop()
            if self.stack:
                self.stack[-1][1] += elapsed
            entry = self.stats.setdefault((parent, name), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - child

    def total(self, name):
        return sum(v[1] for (_, n), v in self.stats.items() if n == name)

    def table(self):
        return [
            {"parent": p, "name": n, "count": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in sorted(self.stats.items())
        ]


def _solver_shim(tracer, name, solver):
    def traced(formula, params):
        outcome = tracer.call(name, solver, formula, params)
        tracer.cells.append((name, tracer.last, outcome.solved))
        tracer.flip_calls += outcome.flip_calls
        if outcome.solved:
            tracer.rechecked += 1
            # its own span, so callers can take the re-check out of their timings
            if not tracer.call("recheck", satisfies, formula.clauses,
                               outcome.best_assignment):
                raise RecheckError(f"{formula.source_id}: solved run falsifies a clause")
        return outcome

    return traced


@contextlib.contextmanager
def shims(tracer, flip_spans=True):
    """Install timing and re-check shims; restore the originals on exit."""
    import saflip.annealing
    import saflip.cli
    import saflip.harness

    restore = []
    algorithms = getattr(saflip.harness, "ALGORITHMS", None)
    if isinstance(algorithms, dict):
        for algo, solver in list(algorithms.items()):
            algorithms[algo] = _solver_shim(tracer, f"solver.{algo}", solver)
            restore.append(lambda a=algo, s=solver: algorithms.__setitem__(a, s))
    else:
        tracer.missing.add("saflip.harness.ALGORITHMS")
    targets = [(saflip.cli, "run_sa_flip",
                lambda f: _solver_shim(tracer, "solver.tune", f))]
    if flip_spans:
        targets.append((saflip.annealing, "flip",
                        lambda f: lambda state, rng: tracer.call("flip", f, state, rng)))
    for module, attr, make in targets:
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.add(f"{module.__name__}.{attr}")
            continue
        setattr(module, attr, make(original))
        restore.append(lambda m=module, a=attr, o=original: setattr(m, a, o))
    try:
        yield tracer
    finally:
        for undo in reversed(restore):
            undo()


# ---------------------------------------------------------------------------
# Helpers


def median_time(fn, reps, per=1):
    """Median wall seconds of `fn()` over `reps` calls, divided by `per`."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / per)
    return statistics.median(times)


def tail_quantile(values):
    """(percentile, value): the highest of p99/p95/p90/p75/p50 with at least
    ten samples above it, or the maximum when there are too few samples."""
    values = sorted(values)
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return 100, values[-1]


def run_cli_in_process(argv, log_path):
    """Call saflip.cli.main in this process; return (wall seconds, exit code)."""
    import saflip.cli

    with open(log_path, "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        start = time.perf_counter()
        code = saflip.cli.main(argv)
        return time.perf_counter() - start, code


def unsat_formula(n_group):
    (fixture,) = workloads.first_fixture_per_group((n_group,))
    return workloads.unsat_formula(fixture)


# ---------------------------------------------------------------------------
# Layer measurements


def measure_cnf(out, rng, reps):
    from saflip.cnf import EvalState, parse_dimacs, random_assignment
    from saflip.harness import ingest_benchmarks

    texts = [(p.stem, p.read_text()) for p in sorted(workloads.FIXTURES.glob("*.cnf"))]
    out["cnf.parse_dimacs_ms"] = 1e3 * median_time(
        lambda: [parse_dimacs(t, source_id=s) for s, t in texts], reps)
    out["harness.ingest_ms"] = 1e3 * median_time(
        lambda: ingest_benchmarks(workloads.FIXTURES), reps)

    formula = unsat_formula(125)
    values = random_assignment(formula.num_vars, rng)
    out["cnf.evalstate_init_us"] = 1e6 * median_time(
        lambda: [EvalState(formula, values) for _ in range(20)], reps, per=20)
    state = EvalState(formula, values)
    out["cnf.evalstate_copy_us"] = 1e6 * median_time(
        lambda: [state.copy() for _ in range(200)], reps, per=200)
    variables = range(1, formula.num_vars + 1)
    out["cnf.flip_gain_ns"] = 1e9 * median_time(
        lambda: [state.flip_gain(v) for _ in range(10) for v in variables],
        reps, per=10 * formula.num_vars)

    def apply_twice():
        for v in variables:
            state.apply_flip(v)
            state.apply_flip(v)

    out["cnf.apply_flip_ns"] = 1e9 * median_time(
        lambda: [apply_twice() for _ in range(5)], reps, per=10 * formula.num_vars)


def measure_flip(out, rng, reps):
    """One Flip call as the run loop makes it: from a Flip-improved state,
    flip one random variable, then call flip() on the neighbour."""
    from saflip.cnf import EvalState, random_assignment
    from saflip.flip import flip

    class CountingState(EvalState):
        def __init__(self, formula, values):
            super().__init__(formula, values)
            self.queries = 0
            self.applied = 0

        def flip_gain(self, var):
            self.queries += 1
            return super().flip_gain(var)

        def apply_flip(self, var):
            self.applied += 1
            return super().apply_flip(var)

    calls = queries = applied = passes = 0
    for n_group in (50, 125):
        formula = unsat_formula(n_group)
        base = EvalState(formula, random_assignment(formula.num_vars, rng))
        flip(base, rng)
        neighbours = []
        for _ in range(40 * reps):
            nb = base.copy()
            nb.apply_flip(rng.randrange(formula.num_vars) + 1)
            neighbours.append((nb, random.Random(rng.getrandbits(64))))
        times = []
        for nb, flip_rng in neighbours:
            counting = CountingState(formula, nb.values)
            count_rng = random.Random()
            count_rng.setstate(flip_rng.getstate())
            outcome = flip(counting, count_rng)
            start = time.perf_counter()
            flip(nb, flip_rng)
            times.append(time.perf_counter() - start)
            calls += 1
            queries += counting.queries
            applied += counting.applied
            passes += getattr(outcome, "passes", 0)
        out[f"flip.call_us.n{n_group}"] = 1e6 * statistics.median(times)
    if queries:  # zero means flip() no longer calls the EvalState methods
        out["flip.gain_queries_per_call"] = queries / calls
        out["flip.applied_per_call"] = applied / calls
        out["flip.applied_per_query"] = applied / queries
    if passes:
        out["flip.passes_per_call"] = passes / calls


def measure_full_runs(out, seed, params, problems):
    """Full-budget runs on the unsatisfiable formulas, with Flip spans."""
    from saflip.annealing import SolverParams, run_sa_flip
    from saflip.placebo import run_placebo_flip

    tracer = Tracer()
    budget = 1 + params["m_steps"] * params["mni"]
    sa_total = sa_flip = 0.0
    with shims(tracer):
        for n_group in (50, 125):
            formula = unsat_formula(n_group)
            if not certify_unsat(formula.clauses):
                problems.append(f"{formula.source_id}: not certified unsatisfiable")
            run_params = SolverParams(**params, seed=workloads.call_seed(seed, n_group))
            for label, solver in (("annealing", run_sa_flip), ("placebo", run_placebo_flip)):
                flip_before = tracer.total("flip")
                start = time.perf_counter()
                outcome = solver(formula, run_params)
                elapsed = time.perf_counter() - start
                out[f"{label}.run_full_s.n{n_group}"] = elapsed
                if outcome.solved or outcome.flip_calls != budget:
                    problems.append(f"{label} on {formula.source_id}: solved or "
                                    f"{outcome.flip_calls} != {budget} Flip calls")
                if label == "annealing":
                    sa_total += elapsed
                    sa_flip += tracer.total("flip") - flip_before
    if "saflip.annealing.flip" not in tracer.missing:
        out["annealing.run_self_frac"] = 1 - sa_flip / sa_total
    return tracer


def measure_harness(out, seed, scale, work, problems):
    """harness.execute on the fixture-sweep plan at jobs=1 and jobs=2, both
    under the solver shims (forked pool workers inherit them), then the
    report layers on its matrices."""
    from saflip import ber, harness, plots

    config = harness.ExperimentConfig.from_file(
        workloads.write_config("fixture-sweep", work, scale))
    config.master_seed = seed
    plan, _ = config.build_plan()

    tracer = Tracer()
    with shims(tracer, flip_spans=False):
        start = time.perf_counter()
        matrices, failed = harness.execute(plan, jobs=1, journal_path=work / "j1.jsonl")
        serial = time.perf_counter() - start
    cells = len(plan.instances) * plan.n_runs * 2
    with shims(Tracer(), flip_spans=False):  # the workers' spans stay in them
        start = time.perf_counter()
        parallel_matrices, parallel_failed = harness.execute(
            plan, jobs=workloads.JOBS, journal_path=work / "j2.jsonl")
        parallel = time.perf_counter() - start
    failed = failed + parallel_failed
    if failed:
        problems.append(f"harness.execute: failed cells {failed}")
    for algo, matrix in matrices.items():
        other = parallel_matrices[algo]
        if (matrix.scores, matrix.seeds) != (other.scores, other.seeds):
            problems.append(f"harness.execute: jobs=1 and jobs=2 differ for {algo}")

    out["harness.parallel_efficiency"] = serial / (workloads.JOBS * parallel)
    out["harness.journal_bytes_per_cell"] = (work / "j1.jsonl").stat().st_size / cells
    if "saflip.harness.ALGORITHMS" not in tracer.missing:
        solver_s = (tracer.total("solver.sa") + tracer.total("solver.placebo")
                    + tracer.total("recheck"))
        out["harness.execute_overhead_us_per_cell"] = 1e6 * (serial - solver_s) / cells
        solved_ms = [1e3 * t for name, t, solved in tracer.cells
                     if solved and name == "solver.sa"]
        if solved_ms:
            out["annealing.run_solved_ms.p50"] = statistics.median(solved_ms)
            p, value = tail_quantile(solved_ms)
            out["annealing.run_solved_ms.tail"] = value
            out["_notes"].append(f"annealing.run_solved_ms.tail is p{p} of "
                                 f"{len(solved_ms)} solved SA cells")

    ym, y0 = matrices["sa"], matrices["placebo"]
    reps = scale.layer_reps
    out["harness.summarize_ms"] = 1e3 * median_time(
        lambda: harness.summarize(ym, y0, deltas=plan.deltas, out_dir=work / "summary"),
        reps)
    out["ber.grouped_ms"] = 1e3 * median_time(
        lambda: [ber.ber_grouped(ym, y0, d) for d in plan.deltas], reps)
    groups = sorted(set(ym.group_keys))
    series = [{m.algorithm_label: [y for row in m.scores for y in row] for m in (ym, y0)}]
    series += [{m.algorithm_label: [y for g, row in zip(m.group_keys, m.scores)
                                    if g == group for y in row] for m in (ym, y0)}
               for group in groups]
    out["plots.svg_ms"] = 1e3 * median_time(
        lambda: [(plots.ecdf_svg(s), plots.histogram_svg(s)) for s in series], reps)
    return tracer, 2 * cells, len(failed)


def workload_call(workload, seed, scale, work, problems, tracer=None):
    """The workload's call 0 in this process, with every shim on when a
    tracer is given.  Returns (wall seconds, checksum, failed cells)."""
    config = workloads.write_config(workload, work, scale)
    out_dir = work / "out"
    argv = workloads.cli_argv(workload, config, out_dir, seed, scale)
    label = f"{workload} {'traced' if tracer else 'untraced'} call"
    cells = workloads.expected_cells(workload, scale)
    try:
        with shims(tracer) if tracer else contextlib.nullcontext():
            wall, code = run_cli_in_process(argv, work / "cli.log")
    except RecheckError as exc:  # raised in this process by the tune shim
        problems.append(f"{label}: {exc}")
        return float("nan"), "", cells
    if code != 0:
        problems.append(f"{label}: exit code {code}")
        return wall, "", cells
    if workload == "tune-screen":
        return wall, workloads.output_checksum(out_dir), 0
    # run calls journal their cells; a re-check failing in a worker is an error cell
    result = workloads.CallResult(wall_s=wall, exit_code=code, cells=cells)
    workloads.check_outputs(workload, out_dir, scale, result, None)
    problems.extend(f"{label}: {p}" for p in result.problems)
    return wall, result.checksum, result.failed_cells


def measure_tune(out, tracer, wall, out_dir):
    """Tune's solver runs land in the `saflip.cli.run_sa_flip` shim or, once
    tune goes through the harness, in the `ALGORITHMS["sa"]` one."""
    if {"saflip.cli.run_sa_flip", "saflip.harness.ALGORITHMS"} <= tracer.missing:
        return
    out["tune.solver_frac"] = (tracer.total("solver.tune")
                               + tracer.total("solver.sa")) / (
                                   wall - tracer.total("recheck"))
    out["tune.flip_calls"] = tracer.flip_calls
    rows = json.loads((out_dir / "screening_effects.json").read_text())["rows"]
    out["tune.rows_unsolved"] = sum(row["mean_y"] > 0 for row in rows)


def layer_metrics(workload, seed, scale, work, import_ms):
    """Every per-layer metric, plus checks and the span tables.

    Returns (metrics, problems, checksum of the traced call, cells, failed
    cells, span tables)."""
    work = Path(work)
    problems = []
    out = {"_notes": [], "cli.import_ms": import_ms}
    rng = random.Random(seed)
    measure_cnf(out, rng, scale.layer_reps)
    measure_flip(out, rng, scale.layer_reps)
    spans = {"full_runs": measure_full_runs(out, seed, scale.params, problems).table()}
    harness_tracer, cells, failed = measure_harness(out, seed, scale, work / "harness",
                                                    problems)
    spans["execute_jobs1"] = harness_tracer.table()

    tune_tracer = Tracer()
    tune_wall, tune_sum, tune_failed = workload_call(
        "tune-screen", seed, scale, work / "tune", problems, tune_tracer)
    if tune_sum:
        measure_tune(out, tune_tracer, tune_wall, work / "tune" / "out")
    spans["tune"] = tune_tracer.table()
    cells += workloads.expected_cells("tune-screen", scale)
    failed += tune_failed

    if workload == "tune-screen":
        tracer, wall, checksum = tune_tracer, tune_wall, tune_sum
    else:
        tracer = Tracer()
        wall, checksum, traced_failed = workload_call(
            workload, seed, scale, work / "traced", problems, tracer)
        spans["workload"] = tracer.table()
        cells += workloads.expected_cells(workload, scale)
        failed += traced_failed
    untraced_wall, untraced_sum, untraced_failed = workload_call(
        workload, seed, scale, work / "untraced", problems)
    cells += workloads.expected_cells(workload, scale)
    failed += untraced_failed
    if untraced_sum != checksum:
        problems.append(f"{workload}: traced and untraced outputs differ")
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = wall - untraced_wall
    tracers = {harness_tracer, tune_tracer, tracer}
    rechecked = sum(t.rechecked for t in tracers)
    out["_notes"].append(f"{rechecked} solved runs re-checked by clause scan in this "
                         "process (pool workers re-check too, unreported)")
    missing = set().union(*(t.missing for t in tracers))
    if missing:
        out["_notes"].append("shim targets gone: " + ", ".join(sorted(missing)))
    return out, problems, checksum, cells, failed, spans
