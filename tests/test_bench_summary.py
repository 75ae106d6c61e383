import json
from pathlib import Path

import pytest

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
        "flip_call_vars_per_s": {"pairs": 5, "second_better": 3, "median_move": 0.275,
                                 "first_iqr": 0.75, "gain_shown": False,
                                 "within_bound": True}}}}


def fold_pairs(tmp_path, change_of):
    """The fixture-sweep pair entries of 10 paired runs: the parent's
    throughput 100, 110, ..., 190 and peak RSS 20 MB; the change's
    throughput `change_of(i, parent throughput)` and peak RSS 23 MB."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for i in range(10):
        a = 100.0 + 10 * i
        write_record(parent, f"p{i}.json", i, a, rss=20.0)
        write_record(change, f"c{i}.json", i, change_of(i, a), rss=23.0, revision="def")
    proc = run_python(str(TOOL), "demo", "--side", "parent", str(parent),
                      "--side", "change", str(change), "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "BENCH_demo.json").read_text())
    return doc["pairs"]["workloads"]["fixture-sweep"]


# The parent's throughput has median 145 and quartiles 122.5 and 167.5.
@pytest.mark.parametrize("change_of, won, gain_shown, within_bound", [
    # A tie is won by neither side: 9 of 10 pairs, 100 past the median.
    (lambda i, a: a if i == 0 else a + 100, 9, True, True),
    (lambda i, a: a if i < 2 else a + 100, 8, False, True),
    # Every pair won, but by less than the quartile distance of 45.
    (lambda i, a: a + 1, 10, False, True),
    (lambda i, a: 0.8 * a, 0, False, True),  # -20%, inside the 0.25 bound
    (lambda i, a: 0.7 * a, 0, False, False),
])
def test_pairs_state_the_verdicts(tmp_path, change_of, won, gain_shown, within_bound):
    pairs = fold_pairs(tmp_path, change_of)
    throughput = pairs["flip_call_vars_per_s"]
    assert throughput["pairs"] == 10 and throughput["second_better"] == won
    assert throughput["first_iqr"] == 45 / 145
    assert (throughput["gain_shown"], throughput["within_bound"]) == (gain_shown, within_bound)
    # 23 MB against 20 MB is 15% worse, past peak_rss_mb's 0.1 bound.
    assert pairs["peak_rss_mb"] == {"pairs": 10, "second_better": 0, "median_move": 0.15,
                                    "first_iqr": 0.0, "gain_shown": False,
                                    "within_bound": False}


def test_a_side_of_mixed_revisions_is_refused(tmp_path):
    results = tmp_path / "results"
    write_record(results, "a.json", 1, 10.0)
    write_record(results, "b.json", 2, 10.0, revision="def")
    proc = run_python(str(TOOL), "demo", "--side", "mixed", str(results),
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 2
    assert "b.json" in proc.stderr
    assert not (tmp_path / "BENCH_demo.json").exists()
