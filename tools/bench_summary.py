#!/usr/bin/env python3
"""Fold perfbench result records into one BENCH_<label>.json.

Each side is a name and a directory of result records, as
`perfbench/run.py` writes them to `.perfbench_work/results/`.  For each side
the file holds the environment stamp (Python and numpy versions, CPU count,
git revision and dirty flag), which must be the same in every record of the
side, and for each workload and metric the median, the quartiles and the
number of runs.  With two sides, each metric also gets the number of pairs,
the k-th run at a seed on one side with the k-th at that seed on the other,
and how many of them the second side won, in the metric's direction from
BENCHMARK.json.  Metrics a run did not measure are left out.

    python3 tools/bench_summary.py pool_chunks \\
        --side parent ../parent/.perfbench_work/results \\
        --side change .perfbench_work/results

writes BENCH_pool_chunks.json at the root of the repository.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAMP_KEYS = ("python", "numpy", "nproc", "git_revision", "git_dirty")


def directions():
    """{metric: "higher" or "lower"} from BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}


def load_side(results_dir):
    """(stamp, {workload: {seed: [{metric: value} of each run]}},
    {workload: correct runs}) of the records in `results_dir`, each seed's
    runs in the order of their file names; raises ValueError on a mixed
    stamp."""
    stamp, values, correct = None, {}, {}
    for path in sorted(Path(results_dir).glob("*.json")):
        record = json.loads(path.read_text())
        this = {key: record["env"].get(key) for key in STAMP_KEYS}
        if stamp is None:
            stamp = this
        elif this != stamp:
            raise ValueError(f"{path}: stamp {this} differs from {stamp}")
        workload = record["workload"]
        correct[workload] = correct.get(workload, 0) + record["result"]["correct"]
        values.setdefault(workload, {}).setdefault(record["seed"], []).append({
            name: metric["value"] for name, metric in record["result"]["metrics"].items()
            if metric["value"] is not None
        })
    if stamp is None:
        raise ValueError(f"no result records in {results_dir}")
    return stamp, values, correct


def summary(samples):
    """Median, quartiles and count of a list of numbers."""
    q1, _, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                 if len(samples) > 1 else samples * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "runs": len(samples)}


def fold(sides):
    """The BENCH document of `sides`, a list of (name, results directory)."""
    better = directions()
    doc = {"sides": {}}
    loaded = []
    for name, results_dir in sides:
        stamp, values, correct = load_side(results_dir)
        loaded.append(values)
        workloads = {}
        for workload, by_seed in sorted(values.items()):
            runs = [run for seed_runs in by_seed.values() for run in seed_runs]
            workloads[workload] = {
                "seeds": sorted(by_seed),
                "correct_runs": correct[workload],
                "metrics": {
                    metric: summary([run[metric] for run in runs if metric in run])
                    for metric in sorted({m for run in runs for m in run})
                },
            }
        doc["sides"][name] = {"env": stamp, "workloads": workloads}
    if len(loaded) == 2:
        # The k-th run at a seed on one side pairs with the k-th on the other.
        first, second = loaded
        doc["pairs"] = {"of": [name for name, _ in sides], "workloads": {}}
        for workload in sorted(first.keys() & second.keys()):
            wins = {}
            for seed in first[workload].keys() & second[workload].keys():
                for a, b in zip(first[workload][seed], second[workload][seed]):
                    for metric in a.keys() & b.keys():
                        won = b[metric] > a[metric] if better[metric] == "higher" \
                            else b[metric] < a[metric]
                        pairs, count = wins.get(metric, (0, 0))
                        wins[metric] = (pairs + 1, count + won)
            doc["pairs"]["workloads"][workload] = {
                metric: {"pairs": pairs, "second_better": count}
                for metric, (pairs, count) in sorted(wins.items())
            }
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="the file is named BENCH_<label>.json")
    parser.add_argument("--side", nargs=2, action="append", required=True,
                        metavar=("NAME", "RESULTS_DIR"))
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    try:
        doc = {"label": args.label, **fold(args.side)}
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 2
    out = args.out_dir / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
