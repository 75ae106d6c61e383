"""Command-line front door: fetch benchmarks, run experiments, compute BER
tables, drive tuning, and render reports.

Exit codes: 0 success, 1 runtime failure, 2 usage/validation error.  stdout
carries machine-readable JSON (paths of produced artifacts); human-readable
progress and tables go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

from . import _kernel, harness
from .ber import (
    ber_grouped,
    check_deltas,
    check_paired,
    read_result_csv,
    write_ber_tables,
    write_result_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

SATLIB_ARCHIVES = ("uf50-218", "uf75-325", "uf100-430", "uf125-538")
SATLIB_BASE_URL = "https://www.cs.ubc.ca/~hoos/SATLIB/Benchmarks/SAT/RND3SAT"


def _err(msg):
    print(msg, file=sys.stderr)


def _emit(doc):
    print(json.dumps(doc))


def cmd_fetch(args):
    cache = Path(args.cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    sources = args.source or [f"{SATLIB_BASE_URL}/{a}.tar.gz" for a in SATLIB_ARCHIVES]
    fetched = []
    for source in sources:
        if source.startswith(("http://", "https://")):
            name = source.rsplit("/", 1)[-1]
            dest = cache / name
            if dest.exists():
                _err(f"{name}: up to date")
            else:
                import urllib.request

                part = dest.with_suffix(dest.suffix + ".part")
                try:
                    _err(f"downloading {source}")
                    with urllib.request.urlopen(source, timeout=60) as resp, open(
                        part, "wb"
                    ) as out:
                        out.write(resp.read())
                    part.rename(dest)
                except Exception as exc:
                    part.unlink(missing_ok=True)
                    _err(f"fetch failed for {source}: {exc}")
                    return EXIT_USAGE
            fetched.append(dest)
        else:
            path = Path(source)
            if not path.exists():
                _err(f"no such benchmark source: {source}")
                return EXIT_USAGE
            fetched.append(path)
    try:
        bset = harness.ingest_benchmarks(
            fetched,
            validate_phase_transition=not args.no_validate,
            manifest_path=cache / "manifest.json",
        )
    except ValueError as exc:
        _err(f"ingest failed: {exc}")
        return EXIT_USAGE
    _err(f"ingested {len(bset.instances)} instances in groups {bset.groups()}")
    _emit({"manifest": str(cache / "manifest.json"), "groups": bset.groups()})
    return EXIT_OK


def _load_plan(args):
    """(plan, benchmark set, output directory) of the --config file, with
    --seed and --out applied.  Also loads the C kernel, so that a kernel that
    cannot be built is reported, as ValueError, before any output exists."""
    config = harness.ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config.master_seed = args.seed
    plan, bset = config.build_plan()
    try:
        _kernel.load()
    except RuntimeError as exc:
        raise ValueError(str(exc)) from exc
    return plan, bset, Path(args.out or config.out_dir)


def cmd_run(args):
    try:
        algorithms = harness.check_algorithms(args.algorithms.split(","))
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        plan, bset, out_dir = _load_plan(args)
    except ValueError as exc:
        _err(f"config error: {exc}")
        return EXIT_USAGE

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(
        json.dumps(bset.manifest(), indent=2) + "\n"
    )
    journal = out_dir / "journal.jsonl"
    if journal.exists() and not args.resume:
        journal.unlink()

    def progress(rec, position, total):
        _err(
            f"[{position}/{total}] {rec['algorithm']} {rec['instance_id']} "
            f"run {rec['run_index']}: y={rec.get('y', 'FAILED')}"
        )

    try:
        matrices, failed = harness.execute(
            plan, algorithms=algorithms, jobs=args.jobs,
            journal_path=journal, progress=progress,
        )
    except Exception as exc:
        _err(f"experiment failed: {exc}")
        return EXIT_RUNTIME
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
    _emit(paths)
    return EXIT_OK


def _read_inputs(args):
    """The --delta list and the paired result matrices of `ber` and `report`."""
    deltas = check_deltas(args.delta.split(","))
    ym = read_result_csv(args.results_m)
    y0 = read_result_csv(args.results_0)
    check_paired(ym, y0)
    return deltas, ym, y0


def _print_ber_table(reports, delta):
    _err(f"BER values for delta={delta:.4f}")
    _err(f"{'n':>8} {'b*':>8} {'e*':>8} {'r*':>8}")
    for rep in reports:
        _err(f"{rep.group:>8} {rep.b:8.4f} {rep.e:8.4f} {rep.r:8.4f}")


def cmd_ber(args):
    try:
        deltas, ym, y0 = _read_inputs(args)
    except Exception as exc:
        _err(f"bad --delta or result file pair: {exc}")
        return EXIT_USAGE
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = {delta: ber_grouped(ym, y0, delta) for delta in deltas}
    paths = write_ber_tables(tables, out_dir)
    for delta, reports in tables.items():
        _print_ber_table(reports, delta)
    _emit(paths)
    return EXIT_OK


def cmd_report(args):
    try:
        deltas, ym, y0 = _read_inputs(args)
    except Exception as exc:
        _err(f"bad --delta or result file pair: {exc}")
        return EXIT_USAGE
    out_dir = Path(args.out)
    try:
        harness.summarize(ym, y0, deltas=deltas, out_dir=out_dir)
    except Exception as exc:
        _err(f"report failed: {exc}")
        return EXIT_RUNTIME
    _emit({
        "summary": str(out_dir / "summary.json"),
        "plots": str(out_dir / "plots"),
    })
    return EXIT_OK


def _mean_score(plan):
    """Mean SA score over every cell of the plan, run by the harness at
    jobs=1 without a journal; a failed cell raises."""
    matrices, failed = harness.execute(plan, algorithms=("sa",))
    if failed:
        raise RuntimeError(f"failed cells (instance, run): {failed}")
    ys = [y for row in matrices["sa"].scores for y in row]
    return math.fsum(ys) / len(ys)


def cmd_tune(args):
    from . import doe

    try:
        plan, _, out_dir = _load_plan(args)
        plan = dataclasses.replace(plan, n_runs=args.runs)
        if args.phase == "screen":
            design = doe.box_behnken_4(center_points=args.center_points)
        else:
            # The walk's first design must already lie inside the bounds.
            doe.fractional_factorial_2_4_1(plan.params)
    except ValueError as exc:
        _err(f"config error: {exc}")
        return EXIT_USAGE
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.phase == "screen":
        # Common random numbers: every row uses run indices 0..runs-1.
        responses = []
        journal = []
        try:
            for row, params in zip(design.coded_rows, design.decoded):
                y = _mean_score(dataclasses.replace(plan, params=params))
                responses.append(y)
                journal.append({
                    "coded": list(row),
                    "params": dataclasses.asdict(params),
                    "mean_y": y,
                })
                _err(f"screen row {row}: mean y = {y:.6f}")
        except RuntimeError as exc:
            _err(f"tuning failed: {exc}")
            return EXIT_RUNTIME
        effects = doe.estimate_effects(design, responses)
        doc = {
            "design": "box-behnken-4",
            "center_points": args.center_points,
            "seed_blocking": "common random numbers across rows",
            "response_aggregation": "mean over all instance runs "
            "(alternative: mean of per-instance means)",
            "rows": journal,
            "intercept": effects.intercept,
            "main_effects": effects.main_effects,
            "interactions": {"+".join(k): v for k, v in effects.interactions.items()},
        }
        path = out_dir / "screening_effects.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        _err("main effects: " + json.dumps(effects.main_effects))
        _emit({"screening": str(path)})
        return EXIT_OK

    # RSM phase: evaluation b = 1, 2, ... runs on the fresh seed block
    # b*runs .. b*runs + runs-1 (block 0 is the screen's).
    blocks = itertools.count(1)

    def evaluate(params):
        first_run = next(blocks) * args.runs
        return _mean_score(
            dataclasses.replace(plan, params=params, first_run=first_run)
        )

    trace_path = out_dir / "rsm_trace.json"
    try:
        trace, final = doe.rsm_walk(
            plan.params,
            budget_limit=args.budget_limit,
            evaluator=evaluate,
            dead_band=args.dead_band,
        )
    except doe.RsmEvaluationError as exc:
        trace_path.write_text(
            json.dumps([s.as_dict() for s in exc.trace], indent=2) + "\n"
        )
        _err(f"tuning failed ({exc}); partial trace at {trace_path}")
        return EXIT_RUNTIME
    trace_path.write_text(json.dumps([s.as_dict() for s in trace], indent=2) + "\n")
    params_path = out_dir / "tuned_params.json"
    params_path.write_text(
        json.dumps({"params": dataclasses.asdict(final)}, indent=2) + "\n"
    )
    _err(f"final center: {final}")
    _emit({"trace": str(trace_path), "params": str(params_path)})
    return EXIT_OK


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
    p.add_argument("--delta", default="0,0.01,0.02", help="comma-separated deltas")
    p.add_argument("--out", default="ber")
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("tune", help="DOE parameter tuning")
    p.add_argument("--config", required=True)
    p.add_argument("--phase", choices=("screen", "rsm"), required=True)
    p.add_argument("--runs", type=int, default=30, help="runs per instance per row")
    p.add_argument("--center-points", type=int, default=3)
    p.add_argument("--budget-limit", type=int, default=5000)
    p.add_argument("--dead-band", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("report", help="summary tables and plots from result CSVs")
    p.add_argument("results_m")
    p.add_argument("results_0")
    p.add_argument("--delta", default="0,0.01,0.02")
    p.add_argument("--out", default="report")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
