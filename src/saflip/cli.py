"""Command-line front door: fetch benchmarks, run experiments, compute BER
tables, drive tuning, and render reports.

Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.  stdout
carries machine-readable JSON (paths of produced artifacts); human-readable
progress and tables go to stderr.  Each `cmd_*` returns its stdout document
or raises; `main` alone prints the document and picks the exit code.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import dataclasses
import gc
import itertools
import json
import math
import sys
from pathlib import Path

from . import _kernel, harness
from .ber import (ber_grouped, check_deltas, check_paired, read_result_csv, write_ber_tables,
                  write_result_csv)

# At exit the interpreter collects once more and walks every object that is
# still alive, though the process is about to end; a frozen object is left
# out of that walk, which takes ~10 ms off each command's exit.  Registered
# once, at import, since `main` may run many times in one process.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

SATLIB_ARCHIVES = ("uf50-218", "uf75-325", "uf100-430", "uf125-538")
SATLIB_BASE_URL = "https://www.cs.ubc.ca/~hoos/SATLIB/Benchmarks/SAT/RND3SAT"

CONFIG_ERRORS = (ValueError, RuntimeError)  # a bad value, or a kernel that cannot be built
DEFAULT_DELTA_ARG = ",".join(map(str, harness.DEFAULT_DELTAS))  # of `ber` and `report`


class _Exit(Exception):
    """`_Exit(code, message)` ends a command: `main` prints the message to
    stderr and returns the code."""


@contextlib.contextmanager
def _exit_on(errors, code, prefix):
    """Turn an `errors` exception of the block into `_Exit(code, "<prefix>: <error>")`."""
    try:
        yield
    except errors as exc:
        raise _Exit(code, f"{prefix}: {exc}") from exc


def _err(msg):
    print(msg, file=sys.stderr)


def _write_manifest(instances, path):
    """`manifest.json` of `fetch` and `run`: one entry per ingested instance."""
    path.write_text(json.dumps(harness.manifest(instances), indent=2) + "\n")


def cmd_fetch(args):
    cache = Path(args.cache_dir)
    sources = args.source or [f"{SATLIB_BASE_URL}/{a}.tar.gz" for a in SATLIB_ARCHIVES]
    urls = {s: s.rsplit("/", 1)[-1] for s in sources if s.startswith(("http://", "https://"))}
    for url, name in urls.items():  # all before any download: ingest reads a file by its suffix
        if not name.endswith(harness.SOURCE_SUFFIXES):
            raise _Exit(EXIT_USAGE, f"unsupported benchmark source: {url}")
    fetched = []
    for source in sources:
        if source in urls:
            dest = cache / urls[source]
            if dest.exists():
                _err(f"{dest.name}: up to date")
            else:
                import urllib.request

                _err(f"downloading {source}")
                try:
                    with urllib.request.urlopen(source, timeout=60) as resp:
                        data = resp.read()
                except Exception as exc:  # http.client's errors are not OSError
                    raise _Exit(EXIT_USAGE, f"fetch failed for {source}: {exc}") from exc
                cache.mkdir(parents=True, exist_ok=True)
                part = dest.with_suffix(dest.suffix + ".part")
                try:
                    part.write_bytes(data)
                    part.rename(dest)
                except OSError:
                    part.unlink(missing_ok=True)
                    raise
            fetched.append(dest)
        else:
            path = Path(source)
            if not path.exists():
                raise _Exit(EXIT_USAGE, f"no such benchmark source: {source}")
            fetched.append(path)
    with _exit_on(ValueError, EXIT_USAGE, "ingest failed"):
        instances = harness.ingest_benchmarks(
            fetched, validate_phase_transition=not args.no_validate)
    cache.mkdir(parents=True, exist_ok=True)
    _write_manifest(instances, cache / "manifest.json")
    groups = sorted({inst.group for inst in instances})
    _err(f"ingested {len(instances)} instances in groups {groups}")
    return {"manifest": str(cache / "manifest.json"), "groups": groups}


def _load_plan(args):
    """(plan, output directory) of the --config file, with --seed and --out
    applied.  Also loads the C kernel, so that a kernel that cannot be built
    raises RuntimeError before any output exists."""
    config = harness.ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    plan, _ = config.build_plan()
    _kernel.load()
    return plan, Path(args.out or config.out_dir)


def cmd_run(args):
    with _exit_on(CONFIG_ERRORS, EXIT_USAGE, "config error"):
        algorithms = harness.check_algorithms(args.algorithms.split(","))
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        plan, out_dir = _load_plan(args)

    out_dir.mkdir(parents=True, exist_ok=True)
    journal = out_dir / "journal.jsonl"
    if not args.resume:
        journal.unlink(missing_ok=True)
        harness.remove_derived_files(out_dir)

    def progress(rec, position, total):
        _err(f"[{position}/{total}] {rec['algorithm']} {rec['instance_id']} "
             f"run {rec['run_index']}: y={rec.get('y', 'FAILED')}")

    with _exit_on(Exception, EXIT_RUNTIME, "experiment failed"):
        matrices, failed = harness.execute(plan, algorithms=algorithms, jobs=args.jobs,
                                           journal_path=journal, progress=progress)
    # Only now: a resume that `execute` refuses leaves every file as it was,
    # and one it completes keeps no file the earlier call derived.
    harness.remove_derived_files(out_dir)
    _write_manifest(plan.instances, out_dir / "manifest.json")
    if failed:
        _err(f"WARNING: {len(failed)} failed cells excluded from both matrices: {failed}")

    paths = {"journal": str(journal), "manifest": str(out_dir / "manifest.json")}
    for algo, matrix in matrices.items():
        csv_path = out_dir / f"results_{algo}.csv"
        write_result_csv(matrix, csv_path)
        paths[f"results_{algo}"] = str(csv_path)

    if {"sa", "placebo"} <= matrices.keys():
        harness.summarize(matrices["sa"], matrices["placebo"], deltas=plan.deltas,
                          out_dir=out_dir)
        paths["summary"] = str(out_dir / "summary.json")
    return paths


def _read_inputs(args, distinct_labels=False):
    """The --delta list and the paired result matrices of `ber` and `report`;
    `distinct_labels` also refuses two files of the same algorithm label."""
    with _exit_on((ValueError, OSError), EXIT_USAGE, "bad --delta or result file pair"):
        deltas = check_deltas(args.delta.split(","))
        ym = read_result_csv(args.results_m)
        y0 = read_result_csv(args.results_0)
        check_paired(ym, y0)
        if distinct_labels and ym.algorithm_label == y0.algorithm_label:
            raise ValueError(f"both result files are labelled {ym.algorithm_label!r}")
    return deltas, ym, y0


def _print_ber_table(reports, delta):
    _err(f"BER values for delta={delta:.4f}")
    _err(f"{'n':>8} {'b*':>8} {'e*':>8} {'r*':>8}")
    for rep in reports:
        _err(f"{rep.group:>8} {rep.b:8.4f} {rep.e:8.4f} {rep.r:8.4f}")


def cmd_ber(args):
    deltas, ym, y0 = _read_inputs(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    harness.remove_derived_files(out_dir, harness.BER_TABLES)
    tables = {delta: ber_grouped(ym, y0, delta) for delta in deltas}
    paths = write_ber_tables(tables, out_dir)
    for delta, reports in tables.items():
        _print_ber_table(reports, delta)
    return paths


def cmd_report(args):
    # The summary keys each series by its label, so one label would hide the other.
    deltas, ym, y0 = _read_inputs(args, distinct_labels=True)
    out_dir = Path(args.out)
    harness.remove_derived_files(out_dir, harness.SUMMARY_FILES)
    harness.summarize(ym, y0, deltas=deltas, out_dir=out_dir)
    return {"summary": str(out_dir / "summary.json"), "plots": str(out_dir / "plots")}


def cmd_tune(args):
    from . import doe

    with _exit_on(CONFIG_ERRORS, EXIT_USAGE, "config error"):
        if not 0 <= args.dead_band < math.inf:
            raise ValueError(f"--dead-band must be a finite number >= 0, got {args.dead_band}")
        if args.budget_limit < 1:
            raise ValueError(f"--budget-limit must be an integer >= 1, got {args.budget_limit}")
        if args.runs < 1:
            raise ValueError(f"--runs must be an integer >= 1, got {args.runs}")
        plan, out_dir = _load_plan(args)
        plan = dataclasses.replace(plan, n_runs=args.runs)
        if args.phase == "screen":
            design = doe.box_behnken_4()
        else:
            # The walk's first design must already lie inside the bounds.
            doe.fractional_factorial_2_4_1(plan.params)

    # Seed block b is run indices b*runs .. b*runs + runs-1.  Every screen
    # row runs block 0 (common random numbers); RSM evaluation b = 1, 2, ...
    # runs the fresh block b.
    blocks = itertools.repeat(0) if args.phase == "screen" else itertools.count(1)

    def mean_score(params):
        """Mean SA score over every cell of the plan at `params` on the next
        seed block, run by the harness at jobs=1 without a journal; a failed
        cell raises RuntimeError."""
        block = dataclasses.replace(plan, params=params, first_run=next(blocks) * args.runs)
        matrices, failed = harness.execute(block, algorithms=("sa",))
        if failed:
            raise RuntimeError(f"failed cells (instance, run): {failed}")
        ys = [y for row in matrices["sa"].scores for y in row]
        return math.fsum(ys) / len(ys)

    if args.phase == "screen":
        path = out_dir / "screening_effects.json"
        path.unlink(missing_ok=True)  # an earlier screen's effects must not outlive this one
        rows = []
        with _exit_on(RuntimeError, EXIT_RUNTIME, "tuning failed"):
            for row, params in design:
                rows.append({"coded": list(row), "params": dataclasses.asdict(params),
                             "mean_y": mean_score(params)})
                _err(f"screen row {row}: mean y = {rows[-1]['mean_y']:.6f}")
        effects = doe.estimate_effects(design, [rec["mean_y"] for rec in rows])
        doc = {
            "design": "box-behnken-4",
            "center_points": doe.CENTER_POINTS,
            "seed_blocking": "common random numbers across rows",
            "response_aggregation": "mean over all instance runs "
            "(alternative: mean of per-instance means)",
            "rows": rows,
            **effects,
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        _err("main effects: " + json.dumps(effects["main_effects"]))
        return {"screening": str(path)}

    trace_path = out_dir / "rsm_trace.json"
    params_path = out_dir / "tuned_params.json"
    params_path.unlink(missing_ok=True)  # an earlier walk's result must not outlive this one
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = []
    try:
        final = doe.rsm_walk(plan.params, mean_score, trace, budget_limit=args.budget_limit,
                             dead_band=args.dead_band)
    except RuntimeError as exc:
        raise _Exit(EXIT_RUNTIME, f"tuning failed (evaluator failed: {exc}); "
                                  f"partial trace at {trace_path}") from exc
    finally:
        trace_path.write_text(json.dumps(trace, indent=2) + "\n")
    params_path.write_text(json.dumps({"params": dataclasses.asdict(final)}, indent=2) + "\n")
    _err(f"final center: {final}")
    return {"trace": str(trace_path), "params": str(params_path)}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="saflip",
        description="Annealer-vs-placebo evaluation harness for 3-SAT local search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="download/ingest benchmark archives")
    p.add_argument("source", nargs="*", help="archive URLs or local paths")
    p.add_argument("--cache-dir", default="benchmarks", help="cache directory")
    p.add_argument("--no-validate", action="store_true",
                   help="skip 3-CNF/phase-transition validation")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("run", help="execute an experiment plan")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None, help="override master seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--resume", action="store_true",
                   help="reuse the journal, skipping completed cells")
    p.add_argument("--algorithms", default="sa,placebo")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ber", help="BER tables from paired result CSVs")
    p.add_argument("results_m", help="result CSV of the examined algorithm")
    p.add_argument("results_0", help="result CSV of the placebo")
    p.add_argument("--delta", default=DEFAULT_DELTA_ARG, help="comma-separated deltas")
    p.add_argument("--out", default="ber")
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("tune", help="DOE parameter tuning")
    p.add_argument("--config", required=True)
    p.add_argument("--phase", choices=("screen", "rsm"), required=True)
    p.add_argument("--runs", type=int, default=harness.DEFAULT_RUNS_PER_INSTANCE,
                   help="runs per instance per row")
    p.add_argument("--budget-limit", type=int, default=5000)
    p.add_argument("--dead-band", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("report", help="summary tables and plots from result CSVs")
    p.add_argument("results_m")
    p.add_argument("results_0")
    p.add_argument("--delta", default=DEFAULT_DELTA_ARG)
    p.add_argument("--out", default="report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    """Run the command of `argv`; print its JSON document on stdout and
    return 0, or print why it failed on stderr and return 1 or 2."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        doc = args.func(args)
    except _Exit as exc:
        code, message = exc.args
        _err(message)
        return code
    except OSError as exc:  # an output that cannot be written
        _err(f"{args.command} failed: {exc}")
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    print(json.dumps(doc))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
