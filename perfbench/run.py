"""saflip benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fixture-sweep --seed 7 --seconds 28 --trace 0

With --trace 0 the workload's `saflip` CLI calls run in fresh processes, with
no shims, until --seconds have passed, and the end-to-end metrics are
printed.  With --trace 1 the per-layer metrics are measured instead (see
layers.py).  The last line of stdout is the result object; a readable
report goes to stderr and a full record, with the environment stamp, to
.perfbench_work/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from workloads import FULL, ROOT, SRC

WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 31
MIN_CALLS = 2

# name -> (unit, better)
END_TO_END = {
    "flip_call_vars_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def git_stamp():
    """(revision, dirty) of the checkout, or (None, None) outside git."""
    if not (ROOT / ".git").exists():
        return None, None

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                                   "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return None, None


def env_stamp(trace):
    import numpy

    revision, dirty = git_stamp()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "git_dirty": dirty,
        "trace": trace,
        "loadavg_start": os.getloadavg(),
    }


def measure_setup(workload, work, scale, repeats):
    """Medians over fresh processes of the time to import saflip.cli and
    build the workload's plan, and of the import alone (ms)."""
    setups, imports = [], []
    for i in range(repeats):
        probe_dir = work / f"probe{i}"
        probe_dir.mkdir(parents=True)
        log = probe_dir / "probe.log"
        _, code = workloads.run_child(
            [str(workloads.BENCH_DIR / "probe_setup.py"), workload, str(probe_dir),
             "tiny" if scale is workloads.TINY else "full"], log)
        if code != 0:
            raise RuntimeError(f"set-up probe failed:\n{log.read_text()}")
        times = json.loads(log.read_text().splitlines()[-1])
        setups.append(times["setup_s"])
        imports.append(times["import_s"])
        shutil.rmtree(probe_dir)
    return statistics.median(setups), 1e3 * statistics.median(imports)


def timed_calls(workload, seed, seconds, scale, work):
    """CLI calls, one after another, with master seeds call_seed(seed, 0),
    (seed, 1), ...: the next call starts while half a call's mean length
    still fits in `seconds` (at least MIN_CALLS calls in all)."""
    config = workloads.write_config(workload, work, scale)
    cells = workloads.expected_cells(workload, scale)
    calls = []
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or (
            time.perf_counter() - start
            + statistics.fmean(c.wall_s for c in calls) / 2 < seconds):
        out_dir = work / f"call{len(calls)}"
        calls.append(workloads.run_workload_call(
            workload, config, out_dir, workloads.call_seed(seed, len(calls)),
            scale, cells))
        shutil.rmtree(out_dir, ignore_errors=True)
    return calls


def run(workload, seed, seconds, trace, scale=FULL):
    """Measure one run; return (result object, full record)."""
    import layers

    work = WORK_ROOT / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stamp = env_stamp(trace)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "env": stamp}
    try:
        setup_s, import_ms = measure_setup(workload, work, scale, SETUP_REPEATS)
        if trace:
            values, problems, checksum, attempted, failed, spans = layers.layer_metrics(
                workload, seed, scale, work / "layers", import_ms)
            record["notes"] = values.pop("_notes")
            record["spans"] = spans
            record["targets"] = {n: t for n, (_, _, t) in layers.LAYER_METRICS.items()}
            units = {n: u for n, (u, _, _) in layers.LAYER_METRICS.items()}
        else:
            calls = timed_calls(workload, seed, seconds, scale, work)
            wall = sum(c.wall_s for c in calls)
            values = {
                # work completed per second over all of the run's calls: calls
                # differ in length by seed, so a ratio of sums is steadier
                # than a median of per-call ratios
                "flip_call_vars_per_s": sum(c.flip_call_vars for c in calls) / wall,
                "setup_s": setup_s,
                "peak_rss_mb": workloads.children_peak_rss_mb(),
            }
            problems = [p for c in calls for p in c.problems]
            checksum = calls[0].checksum
            attempted = sum(c.cells for c in calls)
            failed = sum(c.failed_cells for c in calls)
            units = {n: u for n, (u, _) in END_TO_END.items()}
            record["flip_calls_per_s"] = sum(c.flip_calls for c in calls) / wall
            record["calls"] = [
                {"master_seed": workloads.call_seed(seed, k), "wall_s": c.wall_s,
                 "flip_calls": c.flip_calls, "flip_call_vars": c.flip_call_vars,
                 "cells": c.cells,
                 "failed_cells": c.failed_cells, "checksum": c.checksum}
                for k, c in enumerate(calls)
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["checksum"] = checksum
    if scale is FULL and seed == workloads.DEFAULT_SEED:
        expected = workloads.committed_checksum(workload)
        if checksum != expected:
            problems.append(f"checksum {checksum} != committed {expected} "
                            f"at seed {seed}")
    stamp["loadavg_end"] = os.getloadavg()
    record["problems"] = problems
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite_or_none(values.get(name)), "unit": unit}
                    for name, unit in units.items()},
    }
    record["result"] = result
    return result, record


def finite_or_none(value):
    """A measured number, or None ("not measured") for a missing or NaN one."""
    return value if value is not None and math.isfinite(value) else None


def report(record):
    """Readable summary on stderr."""
    err = sys.stderr
    res = record["result"]
    print(f"# {record['workload']} seed={record['seed']} env={json.dumps(record['env'])}",
          file=err)
    for name, m in res["metrics"].items():
        value = "not measured" if m["value"] is None else f"{m['value']:.6g}"
        target = record.get("targets", {}).get(name, "")
        print(f"  {name:40s} {value:>14s} {m['unit']:6s} {target}", file=err)
    for call in record.get("calls", []):
        print(f"  call seed={call['master_seed']} wall={call['wall_s']:.3f}s "
              f"flips={call['flip_calls']}", file=err)
    for line in record.get("notes", []):
        print(f"  note: {line}", file=err)
    print(f"  failed_frac={res['failed'] / res['attempted']:.4g} "
          f"checksum={record['checksum']}", file=err)
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}", file=err)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.inputs_present():
        print(f"saflip sources or fixtures missing under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
