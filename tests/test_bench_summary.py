import json
from pathlib import Path

from conftest import run_python

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"


def write_record(results, name, seed, throughput, rss=None, revision="abc", correct=True):
    env = {"python": "3.11.7", "numpy": "1.26.4", "nproc": 2, "git_revision": revision,
           "git_dirty": False, "trace": False, "loadavg_start": [0.5, 0.5, 0.5]}
    metrics = {"flip_call_vars_per_s": {"value": throughput, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    record = {"workload": "fixture-sweep", "seed": seed, "env": env,
              "result": {"correct": correct, "attempted": 240, "failed": 0,
                         "metrics": metrics}}
    results.mkdir(parents=True, exist_ok=True)
    (results / name).write_text(json.dumps(record))


def test_folds_each_side_and_counts_the_pairs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, a, b in ((1, 10.0, 12.0), (2, 20.0, 18.0), (3, 30.0, 33.0), (4, 40.0, 44.0)):
        write_record(parent, f"p{seed}.json", seed, a, rss=20.0)
        write_record(change, f"c{seed}.json", seed, b, revision="def", correct=seed != 2)
    write_record(change, "c5.json", 5, 50.0, revision="def")
    # A second run at seed 1 on each side pairs with the other's second run.
    write_record(parent, "p9.json", 1, 15.0, rss=20.0)
    write_record(change, "c9.json", 1, 14.0, revision="def")
    proc = run_python(str(TOOL), "demo", "--side", "parent", str(parent),
                      "--side", "change", str(change), "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_demo.json").read_text())
    assert doc["label"] == "demo"
    assert doc["sides"]["parent"]["env"] == {
        "python": "3.11.7", "numpy": "1.26.4", "nproc": 2, "git_revision": "abc",
        "git_dirty": False}
    sweep = doc["sides"]["change"]["workloads"]["fixture-sweep"]
    assert sweep["seeds"] == [1, 2, 3, 4, 5]
    assert sweep["correct_runs"] == 5
    assert sweep["metrics"] == {"flip_call_vars_per_s": {
        "median": 25.5, "q1": 15.0, "q3": 41.25, "runs": 6}}  # rss not measured
    assert doc["sides"]["parent"]["workloads"]["fixture-sweep"]["metrics"][
        "peak_rss_mb"] == {"median": 20.0, "q1": 20.0, "q3": 20.0, "runs": 5}
    assert doc["pairs"] == {"of": ["parent", "change"], "workloads": {"fixture-sweep": {
        "flip_call_vars_per_s": {"pairs": 5, "second_better": 3}}}}


def test_a_side_of_mixed_revisions_is_refused(tmp_path):
    results = tmp_path / "results"
    write_record(results, "a.json", 1, 10.0)
    write_record(results, "b.json", 2, 10.0, revision="def")
    proc = run_python(str(TOOL), "demo", "--side", "mixed", str(results),
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 2
    assert "b.json" in proc.stderr
    assert not (tmp_path / "BENCH_demo.json").exists()
