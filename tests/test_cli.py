import csv
import gzip
import hashlib
import io
import json
import random
import urllib.request
import xml.dom.minidom
from pathlib import Path

import pytest

from saflip import _kernel, harness
from saflip.cli import main
from saflip.ber import CSV_COLUMNS, read_result_csv

from conftest import DATA_DIR, run_python
from test_harness import write_toy_instances


# Config params whose RSM walk starts inside every factor's bounds.
RSM_START = {"t0": 50.0, "alpha": 0.9, "m_steps": 20, "mni": 50}


def make_config(tmp_path, per_group=1, n_runs=2, **overrides):
    toy = write_toy_instances(tmp_path / "toy", per_group=per_group)
    doc = {
        "benchmarks": ["toy"],
        "out_dir": "out",
        "n_runs": n_runs,
        "master_seed": 21,
        "validate_phase_transition": False,
        "params": {"t0": 1.0, "alpha": 0.9, "m_steps": 2, "mni": 3},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def without_wall_time(journal_text):
    return [
        {k: v for k, v in json.loads(line).items() if k != "wall_time"}
        for line in journal_text.splitlines()
    ]


def files_under(directory):
    return {str(p.relative_to(directory)) for p in directory.rglob("*") if p.is_file()}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_minimal_run(self, tmp_path, capsys):
        config = make_config(tmp_path, per_group=1, n_runs=2)
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        paths = json.loads(out)
        sa = read_result_csv(paths["results_sa"])
        pl = read_result_csv(paths["results_placebo"])
        assert len(sa.instance_ids) == 2 and sa.num_runs == 2
        assert sa.seeds == pl.seeds
        assert (tmp_path / "out" / "summary.json").exists()

    def test_stdout_is_machine_readable_only(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        json.loads(out)  # single JSON document
        assert "run 0" in err  # progress goes to stderr

    def test_algorithm_subset(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code, out, _ = run_cli(
            capsys, "run", "--config", str(config), "--algorithms", "sa"
        )
        assert code == 0
        paths = json.loads(out)
        assert "results_sa" in paths
        assert "results_placebo" not in paths

    def test_dropped_run_keeps_its_run_index(self, tmp_path, capsys, monkeypatch):
        config = make_config(tmp_path, n_runs=3)
        instances = harness.ingest_benchmarks(tmp_path / "toy", validate_phase_transition=False)
        dropped = harness.derive_seed(21, instances[0].digest, 1)
        solver = harness.ALGORITHMS["sa"]

        def failing_once(formula, params):
            if params.seed == dropped:
                raise RuntimeError("solver exploded")
            return solver(formula, params)

        monkeypatch.setitem(harness.ALGORITHMS, "sa", failing_once)
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        assert (f"WARNING: 1 failed cells excluded from both matrices: "
                f"[('{instances[0].instance_id}', 1)]") in err.splitlines()
        paths = json.loads(out)
        journal = [json.loads(line) for line in Path(paths["journal"]).read_text().splitlines()]
        seeds = {(rec["instance_id"], rec["run_index"]): rec["seed"] for rec in journal}
        for algo in ("sa", "placebo"):
            lines = Path(paths[f"results_{algo}"]).read_text().splitlines()[1:]
            rows = [line.split(",") for line in lines]
            assert [row[3] for row in rows] == ["0", "2"] * len(instances)
            assert all(int(seed) == seeds[(iid, int(j))] for iid, _, seed, j, _, _ in rows)
        code, _, err = run_cli(capsys, "report", paths["results_sa"], paths["results_placebo"],
                               "--out", str(tmp_path / "report"))
        assert code == 0, err

    def test_resume_skips_finished_cells(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code, out, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        first = json.loads(out)
        sa_bytes = Path(first["results_sa"]).read_bytes()
        code, out, err = run_cli(
            capsys, "run", "--config", str(config), "--resume"
        )
        assert code == 0
        assert Path(json.loads(out)["results_sa"]).read_bytes() == sa_bytes
        assert "run 0" not in err  # nothing recomputed

    def test_resume_refuses_the_cells_of_another_seed(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code, _, _ = run_cli(capsys, "run", "--config", str(config), "--seed", "1")
        assert code == 0
        journal = tmp_path / "out" / "journal.jsonl"
        before = journal.read_bytes()
        first = json.loads(before.splitlines()[0])
        digest = json.loads((tmp_path / "out" / "manifest.json").read_text())[0]["digest"]
        code, out, err = run_cli(
            capsys, "run", "--config", str(config), "--seed", "2", "--resume"
        )
        assert code == 1 and out == ""
        assert err == (
            f"experiment failed: journal cell (sa, {first['instance_id']}, run 0) has seed "
            f"{first['seed']}, but this plan derives seed "
            f"{harness.derive_seed(2, digest, 0)} for it\n"
        )
        assert journal.read_bytes() == before

    def test_refused_resume_leaves_the_output_files_as_they_were(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code, _, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        out_dir = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()}
        # Negating one literal changes the instance's digest, so its seeds.
        cnf = tmp_path / "toy" / "toy6-00.cnf"
        lines = cnf.read_text().split("\n")
        i = next(k for k, line in enumerate(lines) if line and line[0] not in "cp")
        first, rest = lines[i].split(" ", 1)
        lines[i] = f"{-int(first)} {rest}"
        cnf.write_text("\n".join(lines))
        code, out, err = run_cli(capsys, "run", "--config", str(config), "--resume")
        assert (code, out) == (1, "")
        assert err.startswith("experiment failed: journal cell (sa, toy6-00, run 0) has seed ")
        assert {p.name: p.read_bytes() for p in out_dir.iterdir() if p.is_file()} == before

    def test_run_without_resume_leaves_no_file_of_the_earlier_run(self, tmp_path, capsys):
        config = make_config(tmp_path, deltas=[0, 0.01])
        code, _, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "ber_0.0100.csv").exists() and (out_dir / "plots").exists()
        doc = json.loads(config.read_text())
        doc["params"] = {"t0": 3.0, "alpha": 0.5, "m_steps": 3, "mni": 2}
        config.write_text(json.dumps(doc))
        for out in ("out", "fresh"):
            code, _, _ = run_cli(capsys, "run", "--config", str(config), "--algorithms", "sa",
                                 "--out", str(tmp_path / out))
            assert code == 0
        files = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())
        assert files == ["journal.jsonl", "manifest.json", "results_sa.csv"]
        fresh = tmp_path / "fresh"
        for name in ("manifest.json", "results_sa.csv"):
            assert (out_dir / name).read_bytes() == (fresh / name).read_bytes()
        assert without_wall_time((out_dir / "journal.jsonl").read_text()) == without_wall_time(
            (fresh / "journal.jsonl").read_text())
        # The earlier run's placebo results no longer pair with the new SA runs.
        code, out, _ = run_cli(capsys, "report", str(out_dir / "results_sa.csv"),
                                 str(out_dir / "results_placebo.csv"),
                                 "--out", str(tmp_path / "report"))
        assert (code, out) == (2, "")

    def test_resume_replaces_every_derived_file(self, tmp_path, capsys):
        config = make_config(tmp_path, deltas=[0.03])
        code, _, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "ber_0.0300.csv").exists()
        doc = json.loads(config.read_text())
        doc["deltas"] = [0.05]
        config.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "run", "--config", str(config), "--resume")
        assert code == 0
        assert "run 0" not in err  # every cell came from the journal
        fresh = tmp_path / "fresh"
        code, _, _ = run_cli(capsys, "run", "--config", str(config), "--out", str(fresh))
        assert code == 0
        assert files_under(out_dir) == files_under(fresh)
        assert "ber_0.0300.csv" not in files_under(out_dir)
        for name in files_under(fresh) - {"journal.jsonl"}:
            assert (out_dir / name).read_bytes() == (fresh / name).read_bytes(), name
        assert without_wall_time((out_dir / "journal.jsonl").read_text()) == without_wall_time(
            (fresh / "journal.jsonl").read_text())
        code, _, _ = run_cli(capsys, "run", "--config", str(config), "--resume",
                             "--algorithms", "sa")
        assert code == 0
        assert files_under(out_dir) == {"journal.jsonl", "manifest.json", "results_sa.csv"}

    def test_optimized_python_writes_the_same_outputs(self, tmp_path, session_cache):
        # `python -O` strips asserts: no check the run relies on may be one.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "benchmarks": [str(DATA_DIR / "genuf50-01.cnf"), str(DATA_DIR / "genuf75-01.cnf")],
            "out_dir": "out", "n_runs": 3, "deltas": [0, 0.01],
        }))
        code = ("import sys\nfrom pathlib import Path\nfrom saflip import _kernel, cli\n"
                "_kernel.CACHE_DIR = Path(sys.argv[1])\nsys.exit(cli.main(sys.argv[2:]))\n")
        outputs = []
        for flags in ((), ("-O",)):
            out_dir = tmp_path / f"out{''.join(flags)}"
            proc = run_python(*flags, "-c", code, str(session_cache), "run",
                              "--config", str(config), "--out", str(out_dir), timeout=300)
            assert proc.returncode == 0, proc.stderr
            outputs.append({name: (out_dir / name).read_bytes()
                            for name in ("results_sa.csv", "results_placebo.csv",
                                         "summary.json")})
        assert outputs[0] == outputs[1]

    def test_temperature_underflow_is_the_greedy_limit(self, tmp_path, capsys):
        # 51.71 * 0.5**k underflows to 0.0 at k = 1075, before the last of
        # the 1100 levels; the clauses x1 and -x1 keep the run unsolved.
        (tmp_path / "f.cnf").write_text("p cnf 3 3\n1 0\n-1 0\n2 3 0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "benchmarks": "f.cnf", "out_dir": "out", "n_runs": 2,
            "validate_phase_transition": False,
            "params": {"alpha": 0.5, "m_steps": 1, "mni": 1100},
        }))
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 0, err
        assert "WARNING" not in err
        records = [json.loads(line) for line in
                   (tmp_path / "out" / "journal.jsonl").read_text().splitlines()]
        assert [(rec["algorithm"], rec["iterations"], rec["y"]) for rec in records] == [
            (algo, 1100, 1 / 3) for _ in range(2) for algo in ("sa", "placebo")]

    def test_resume_after_torn_journal_line(self, tmp_path, capsys):
        whole = make_config(tmp_path / "whole")
        code, out, _ = run_cli(capsys, "run", "--config", str(whole))
        assert code == 0
        expected = {
            key: Path(path).read_bytes()
            for key, path in json.loads(out).items()
            if key.startswith("results_")
        }
        config = make_config(tmp_path / "torn")
        code, _, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        journal = tmp_path / "torn" / "out" / "journal.jsonl"
        full = journal.read_text()
        journal.write_text(full[:-20])  # a crash mid-write of the last record
        code, out, err = run_cli(capsys, "run", "--config", str(config), "--resume")
        assert code == 0
        assert err.count("run ") == 1  # only the torn cell ran again
        for key, content in expected.items():
            assert Path(json.loads(out)[key]).read_bytes() == content
        assert without_wall_time(journal.read_text()) == without_wall_time(full)

    def test_refused_resume_leaves_a_torn_journal_as_it_was(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code, _, _ = run_cli(capsys, "run", "--config", str(config), "--seed", "1")
        assert code == 0
        journal = tmp_path / "out" / "journal.jsonl"
        journal.write_bytes(journal.read_bytes()[:-20])  # a crash mid-write
        torn = journal.read_bytes()
        code, out, err = run_cli(
            capsys, "run", "--config", str(config), "--seed", "2", "--resume"
        )
        assert (code, out) == (1, "")
        assert err.startswith("experiment failed: journal cell (sa, ")
        assert journal.read_bytes() == torn

    def test_resumed_progress_counts_the_cells_already_done(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        assert err.splitlines()[-1].startswith("[8/8] ")
        journal = tmp_path / "out" / "journal.jsonl"
        journal.write_text(journal.read_text()[:-300])
        kept = len(journal.read_text().splitlines()) - 1  # the last line is torn
        code, _, err = run_cli(capsys, "run", "--config", str(config), "--resume")
        assert code == 0
        assert [line.split()[0] for line in err.splitlines()] == [
            f"[{i}/8]" for i in range(kept + 1, 9)]

    def test_repeated_literal_exits_2(self, tmp_path):
        # Flip never stopped on this formula before repeated literals were refused.
        (tmp_path / "dup.cnf").write_text("p cnf 2 3\n1 1 0\n-1 2 0\n-2 0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"benchmarks": "dup.cnf", "out_dir": "out",
                                      "validate_phase_transition": False}))
        proc = run_python("-m", "saflip.cli", "run", "--config", str(config), timeout=30)
        assert proc.returncode == 2
        assert "line 2: literal 1 repeated in one clause" in proc.stderr

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{}")
        code, _, err = run_cli(capsys, "run", "--config", str(path))
        assert code == 2
        assert "benchmarks" in err

    @pytest.mark.parametrize("override, message", [
        ({"deltas": [-0.1]}, "delta must be finite and >= 0"),
        ({"deltas": 0.01}, "deltas must be a list of numbers, got 0.01"),
        ({"groups": 50}, "groups must be a list of integers, got 50"),
        ({"n_runs": None}, "n_runs must be an integer >= 1, got None"),
        ({"benchmarks": 5}, "benchmarks must be a path or a list of paths, got 5"),
        ({"out_dir": 5}, "out_dir must be a path, got 5"),
        ({"split": "dev"}, "split must be \"\", \"train\" or \"test\", got 'dev'"),
        ({"limit_per_group": -1}, "limit_per_group must be an integer >= 0, got -1"),
        ({"deltas": [0.00094, 0.00089]},
         "deltas 0.00094 and 0.00089 both write ber_0.0009.csv"),
        ({"params": {"t0": True, "m_steps": True, "mni": True}},
         "bad params: t0 must be a positive number"),
        # Every fault of the config is named before any benchmark is read.
        ({"n_runs": 0, "deltas": [-1], "benchmarks": ["nowhere"]},
         "n_runs must be an integer >= 1, got 0; delta must be finite and >= 0, got -1.0"),
    ], ids=["negative-delta", "deltas", "groups", "n_runs", "benchmarks", "out_dir",
            "split", "limit_per_group", "deltas-sharing-a-table", "boolean-params",
            "faults-before-ingest"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, override, message):
        config = make_config(tmp_path, **override)
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert (code, out) == (2, "")
        assert f"config error: {message}" in err
        assert len(err.splitlines()) == 1 and str(tmp_path) not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "toy"]

    @pytest.mark.parametrize("algorithms, message", [
        ("sa,sa", "got ['sa', 'sa']"),
        ("sa,placebp", "got ['sa', 'placebp']"),
    ])
    def test_bad_algorithms_exit_2_before_output(self, tmp_path, capsys,
                                                 algorithms, message):
        config = make_config(tmp_path)
        code, out, err = run_cli(capsys, "run", "--config", str(config),
                                 "--algorithms", algorithms)
        assert (code, out) == (2, "")
        assert "config error: algorithms must be distinct names out of " in err
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_bad_jobs_exit_2_before_output(self, tmp_path, capsys, jobs):
        config = make_config(tmp_path)
        code, out, err = run_cli(capsys, "run", "--config", str(config), "--jobs", jobs)
        assert (code, out) == (2, "")
        assert f"config error: --jobs must be >= 1, got {jobs}" in err
        assert not (tmp_path / "out").exists()

    def test_params_seed_exits_2(self, tmp_path, capsys):
        config = make_config(
            tmp_path, params={"t0": 1.0, "alpha": 0.9, "m_steps": 2, "mni": 3,
                              "seed": 12345},
        )
        code, _, err = run_cli(capsys, "run", "--config", str(config))
        assert code == 2
        assert "bad params: seed is derived per run" in err


class TestBer:
    def _results(self, tmp_path, capsys):
        config = make_config(tmp_path, per_group=1, n_runs=3)
        code, out, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        return json.loads(out)

    def test_identical_inputs_are_symmetric(self, tmp_path, capsys):
        paths = self._results(tmp_path, capsys)
        code, out, err = run_cli(
            capsys,
            "ber",
            paths["results_sa"],
            paths["results_sa"],
            "--delta", "0",
            "--out", str(tmp_path / "ber"),
        )
        assert code == 0
        table = (tmp_path / "ber" / "ber_0.0000.csv").read_text().splitlines()
        assert len(table) > 1
        for line in table[1:]:
            _, _, b, e, r, _ = line.split(",")
            # A file compared with itself has equal benefit and risk.
            assert float(b) == float(r)
            assert abs(float(b) + float(e) + float(r) - 1.0) < 1e-12

    def test_three_delta_tables(self, tmp_path, capsys):
        paths = self._results(tmp_path, capsys)
        code, out, _ = run_cli(
            capsys,
            "ber",
            paths["results_sa"],
            paths["results_placebo"],
            "--delta", "0,0.01,0.02",
            "--out", str(tmp_path / "ber"),
        )
        assert code == 0
        produced = json.loads(out)
        assert set(produced) == {"ber_0.0000", "ber_0.0100", "ber_0.0200"}

    def test_unpaired_files_exit_2(self, tmp_path, capsys):
        paths = self._results(tmp_path, capsys)
        other = make_config(tmp_path / "other", per_group=1, n_runs=3,
                            master_seed=99)
        code, out, _ = run_cli(capsys, "run", "--config", str(other))
        assert code == 0
        unpaired = json.loads(out)["results_placebo"]
        code, _, err = run_cli(
            capsys, "ber", paths["results_sa"], unpaired,
            "--out", str(tmp_path / "ber2"),
        )
        assert code == 2
        assert "pair" in err.lower()

    @pytest.mark.parametrize("command", ["ber", "report"])
    def test_duplicate_run_row_exits_2(self, tmp_path, capsys, command):
        paths = self._results(tmp_path, capsys)
        lines = Path(paths["results_sa"]).read_text().splitlines(keepends=True)
        dup = tmp_path / "dup.csv"
        dup.write_text("".join(lines[:2] + lines[1:]))
        code, _, err = run_cli(
            capsys, command, str(dup), paths["results_placebo"],
            "--out", str(tmp_path / command),
        )
        assert code == 2
        assert "duplicate run 0" in err

    @pytest.mark.parametrize("command", ["ber", "report"])
    @pytest.mark.parametrize("delta", ["nan", "-0.1", "0,inf"])
    def test_bad_delta_exits_2(self, tmp_path, capsys, command, delta):
        paths = self._results(tmp_path, capsys)
        code, out, err = run_cli(
            capsys, command, paths["results_sa"], paths["results_placebo"],
            f"--delta={delta}", "--out", str(tmp_path / command),
        )
        assert code == 2
        assert out == ""
        assert "delta must be finite and >= 0" in err

    @pytest.mark.parametrize("command", ["ber", "report"])
    def test_deltas_sharing_a_table_exit_2(self, tmp_path, capsys, command):
        # About 1/m for the m = 1065 and m = 1125 families; both round to 0.0009.
        paths = self._results(tmp_path, capsys)
        code, out, err = run_cli(
            capsys, command, paths["results_sa"], paths["results_placebo"],
            "--delta=0.00094,0.00089", "--out", str(tmp_path / command),
        )
        assert (code, out) == (2, "")
        assert "deltas 0.00094 and 0.00089 both write ber_0.0009.csv" in err
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("command", ["ber", "report"])
    @pytest.mark.parametrize("group", ["a/b", "overall", "<b>&x", "007", "5.0"])
    def test_group_that_is_no_variable_count_exits_2(self, tmp_path, capsys, command, group):
        paths = write_result_pair(tmp_path, group=group)
        out_dir = tmp_path / command
        code, out, err = run_cli(capsys, command, *paths, "--out", str(out_dir))
        assert (code, out) == (2, "")
        assert f"{paths[0]}: line 2: group {group!r} is not a variable count" in err
        assert not out_dir.exists()

    def test_ber_replaces_its_earlier_tables(self, tmp_path, capsys):
        # In the run's own directory, where only the BER tables are ber's.
        paths = self._results(tmp_path, capsys)
        run_dir = tmp_path / "out"
        written = files_under(run_dir)
        for delta in (["--delta", "0.03"], []):  # then the default deltas, as the run's
            code, _, err = run_cli(capsys, "ber", paths["results_sa"], paths["results_placebo"],
                                   *delta, "--out", str(run_dir))
            assert code == 0, err
            assert ("ber_0.0300.csv" in files_under(run_dir)) == bool(delta)
        assert files_under(run_dir) == written


class TestReport:
    def test_report_replaces_its_earlier_outputs(self, tmp_path, capsys):
        config = make_config(tmp_path)  # groups 6 and 8
        code, out, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        paths, run_dir = json.loads(out), tmp_path / "out"
        code, _, err = run_cli(capsys, "report", paths["results_sa"], paths["results_placebo"],
                               "--delta", "0.03", "--out", str(run_dir))
        assert code == 0, err
        assert {"ber_0.0300.csv", "plots/hist_8.svg"} <= files_under(run_dir)
        pair = write_result_pair(tmp_path, group="6")
        for out_dir in (run_dir, tmp_path / "fresh"):
            code, _, err = run_cli(capsys, "report", *pair, "--out", str(out_dir))
            assert code == 0, err
        # The run's own files stay: its result CSVs are the first report's inputs.
        assert files_under(run_dir) == files_under(tmp_path / "fresh") | {
            "journal.jsonl", "manifest.json", "results_sa.csv", "results_placebo.csv"}

    def test_report_and_determinism(self, tmp_path, capsys):
        config = make_config(tmp_path, per_group=1, n_runs=2)
        code, out, _ = run_cli(capsys, "run", "--config", str(config))
        paths = json.loads(out)
        for sub in ("r1", "r2"):
            code, out, _ = run_cli(
                capsys, "report", paths["results_sa"], paths["results_placebo"],
                "--out", str(tmp_path / sub),
            )
            assert code == 0
        a = (tmp_path / "r1" / "plots" / "ecdf_overall.svg").read_bytes()
        b = (tmp_path / "r2" / "plots" / "ecdf_overall.svg").read_bytes()
        assert a == b
        assert (tmp_path / "r1" / "summary.json").exists()

    def test_labels_are_escaped_in_every_svg(self, tmp_path, capsys):
        labels = ("sa<&", 'placebo"\'>')
        code, _, err = run_cli(capsys, "report", *write_result_pair(tmp_path, labels=labels),
                               "--out", str(tmp_path / "r"))
        assert code == 0, err
        svgs = sorted((tmp_path / "r" / "plots").glob("*.svg"))
        assert [p.name for p in svgs] == ["ecdf_3.svg", "ecdf_overall.svg",
                                          "hist_3.svg", "hist_overall.svg"]
        for path in svgs:
            texts = [node.firstChild.data for node in
                     xml.dom.minidom.parse(str(path)).getElementsByTagName("text")]
            assert set(labels) <= set(texts), path.name


def record_sa_calls(monkeypatch, fail_after=None):
    """Replace the harness's SA solver by one that logs (instance, seed)
    per call, and raises once `fail_after` calls are logged."""
    calls = []
    solver = harness.ALGORITHMS["sa"]

    def recorded(formula, params):
        if len(calls) == fail_after:
            raise RuntimeError("solver exploded")
        calls.append((formula.source_id, params.seed))
        return solver(formula, params)

    monkeypatch.setitem(harness.ALGORITHMS, "sa", recorded)
    return calls


def seed_block(tmp_path, master_seed, runs, first_run):
    """(instance, seed) per cell of one evaluation, in execution order."""
    instances = harness.ingest_benchmarks(tmp_path / "toy", validate_phase_transition=False)
    return [
        (inst.instance_id, harness.derive_seed(master_seed, inst.digest, first_run + j))
        for inst in instances
        for j in range(runs)
    ]


class TestTune:
    def test_screen_rows_share_seeds(self, tmp_path, capsys, monkeypatch):
        config = make_config(tmp_path, per_group=1)
        calls = record_sa_calls(monkeypatch)
        code, _, _ = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "screen",
            "--runs", "2", "--out", str(tmp_path / "tune"),
        )
        assert code == 0
        block = seed_block(tmp_path, 21, runs=2, first_run=0)
        assert calls == block * 27

    def test_rsm_evaluations_draw_fresh_seed_blocks(
        self, tmp_path, capsys, monkeypatch
    ):
        config = make_config(tmp_path, per_group=1, params=RSM_START)
        calls = record_sa_calls(monkeypatch)
        code, _, _ = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "rsm",
            "--runs", "2", "--budget-limit", "1200", "--seed", "5",
            "--out", str(tmp_path / "tune"),
        )
        assert code == 0
        cells = len(seed_block(tmp_path, 5, runs=2, first_run=0))
        evaluations = len(calls) // cells
        assert evaluations >= 8
        # Evaluation b = 1, 2, ... uses run indices b*runs + j; block 0 is
        # the screen's.
        assert calls == [
            cell
            for b in range(1, evaluations + 1)
            for cell in seed_block(tmp_path, 5, runs=2, first_run=2 * b)
        ]

    def test_failing_solver_fails_screen(self, tmp_path, capsys, monkeypatch):
        config = make_config(tmp_path)
        record_sa_calls(monkeypatch, fail_after=0)
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "screen",
            "--runs", "1", "--out", str(tmp_path / "tune"),
        )
        assert code == 1
        assert out == ""
        assert "tuning failed" in err
        assert not (tmp_path / "tune").exists()

    def test_one_failed_cell_fails_screen(self, tmp_path, capsys, monkeypatch):
        # Two instances of two runs: the fourth cell, run 1 of the second
        # instance, fails, and run 0 of both still stands.
        config = make_config(tmp_path)
        record_sa_calls(monkeypatch, fail_after=3)
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "screen",
            "--runs", "2", "--out", str(tmp_path / "tune"),
        )
        assert (code, out) == (1, "")
        assert err == "tuning failed: failed cells (instance, run): [('toy8-00', 1)]\n"

    def test_failing_screen_keeps_an_out_dir_it_did_not_make(self, tmp_path, capsys,
                                                            monkeypatch):
        config = make_config(tmp_path)
        (tmp_path / "tune").mkdir()
        record_sa_calls(monkeypatch, fail_after=0)
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "screen",
            "--runs", "1", "--out", str(tmp_path / "tune"),
        )
        assert (code, out) == (1, "")
        assert "tuning failed" in err
        assert list((tmp_path / "tune").iterdir()) == []

    def test_failed_screen_leaves_no_earlier_effects(self, tmp_path, capsys, monkeypatch):
        config = make_config(tmp_path)
        argv = ["tune", "--config", str(config), "--phase", "screen", "--runs", "1",
                "--out", str(tmp_path / "tune")]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (tmp_path / "tune" / "screening_effects.json").exists()
        solver_raising(monkeypatch, RuntimeError("boom"))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "tuning failed" in err
        assert list((tmp_path / "tune").iterdir()) == []

    def test_failing_solver_fails_rsm_with_partial_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        config = make_config(tmp_path, params=RSM_START)
        record_sa_calls(monkeypatch, fail_after=0)
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "rsm",
            "--runs", "1", "--out", str(tmp_path / "tune"),
        )
        assert code == 1
        assert "partial trace" in err
        assert json.loads((tmp_path / "tune" / "rsm_trace.json").read_text()) == []
        assert not (tmp_path / "tune" / "tuned_params.json").exists()

    def test_failing_rsm_leaves_no_earlier_tuned_params(self, tmp_path, capsys, monkeypatch):
        config = make_config(tmp_path, params=RSM_START)
        argv = ["tune", "--config", str(config), "--phase", "rsm", "--runs", "1",
                "--budget-limit", "1200", "--out", str(tmp_path / "tune")]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert (tmp_path / "tune" / "tuned_params.json").exists()
        record_sa_calls(monkeypatch, fail_after=0)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "partial trace" in err
        assert json.loads((tmp_path / "tune" / "rsm_trace.json").read_text()) == []
        assert not (tmp_path / "tune" / "tuned_params.json").exists()

    def test_rsm_failure_after_one_step_keeps_that_step(self, tmp_path, capsys, monkeypatch):
        # From this start the walk's first step moves the center, so the
        # walk goes on to a second design, whose first evaluation fails.
        config = make_config(
            tmp_path, params={"t0": 50.0, "alpha": 0.9, "m_steps": 6, "mni": 11}
        )
        cells = len(seed_block(tmp_path, 21, runs=1, first_run=0))
        record_sa_calls(monkeypatch, fail_after=8 * cells)
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "rsm",
            "--runs", "1", "--out", str(tmp_path / "tune"),
        )
        assert (code, out) == (1, "")
        assert "partial trace" in err
        trace = json.loads((tmp_path / "tune" / "rsm_trace.json").read_text())
        assert [step["decision"] for step in trace] == ["move center"]
        assert not (tmp_path / "tune" / "tuned_params.json").exists()

    def test_screen_toy(self, tmp_path, capsys):
        config = make_config(tmp_path, per_group=2, n_runs=1)
        code, out, _ = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "screen",
            "--runs", "1", "--out", str(tmp_path / "tune"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "tune" / "screening_effects.json").read_text())
        assert len(doc["rows"]) == 27
        assert doc["center_points"] == 3
        assert set(doc["main_effects"]) == {"t0", "alpha", "m_steps", "mni"}

    def test_rsm_budget_stop(self, tmp_path, capsys):
        config = make_config(tmp_path, per_group=1, n_runs=1, params=RSM_START)
        code, out, _ = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "rsm",
            "--runs", "1", "--budget-limit", "1200",
            "--out", str(tmp_path / "tune"),
        )
        assert code == 0
        params = json.loads((tmp_path / "tune" / "tuned_params.json").read_text())[
            "params"
        ]
        trace = json.loads((tmp_path / "tune" / "rsm_trace.json").read_text())
        assert trace
        final_decision = trace[-1]["decision"]
        assert final_decision.startswith("stop")
        if "exceeds" in final_decision:
            assert params["m_steps"] * params["mni"] > 1200

    def test_rsm_output_bytes_are_pinned(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "benchmarks": str(DATA_DIR), "out_dir": "out", "limit_per_group": 1,
            "params": {"t0": 50, "alpha": 0.9, "m_steps": 20, "mni": 50},
        }))
        code, _, _ = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "rsm", "--runs", "1",
            "--budget-limit", "1200", "--seed", "5", "--out", str(tmp_path / "tune"),
        )
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / "tune" / name).read_bytes()).hexdigest()
                   for name in ("rsm_trace.json", "tuned_params.json")}
        assert digests == {
            "rsm_trace.json": "8968c473e5bedf48d4851012135330d22a733c5616c62914f8d5315aeaea55b1",
            "tuned_params.json": "b88c0cef2665f355c1307e5865fa72413b11ca5ea245b0348616f1f3c8cb4445",
        }

    def test_rsm_start_too_close_to_bound_exits_2(self, tmp_path, capsys):
        config = make_config(tmp_path)  # t0=1.0, within one half-distance of 0
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "rsm",
            "--runs", "1", "--out", str(tmp_path / "tune"),
        )
        assert code == 2
        assert out == ""
        assert "config error: decoded t0=" in err
        assert "outside validity bounds" in err
        assert not (tmp_path / "tune" / "rsm_trace.json").exists()

    @pytest.mark.parametrize("dead_band", ["-1", "nan", "inf"])
    def test_bad_dead_band_exits_2_before_output(self, tmp_path, capsys, dead_band):
        # With -1 or nan, |effect| <= dead band never holds: the walk would never stop there.
        config = make_config(tmp_path)
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "rsm",
            "--dead-band", dead_band, "--out", str(tmp_path / "tune"),
        )
        assert (code, out) == (2, "")
        assert f"config error: --dead-band must be a finite number >= 0, got {float(dead_band)}" in err
        assert not (tmp_path / "tune").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "tune", "--config", str(tmp_path / "nope.json"),
            "--phase", "screen",
        )
        assert code == 2


class TestFetch:
    def test_local_directory_ingest(self, tmp_path, capsys):
        toy = write_toy_instances(tmp_path / "toy", per_group=1)
        code, out, _ = run_cli(
            capsys, "fetch", str(toy), "--cache-dir", str(tmp_path / "cache"),
            "--no-validate",
        )
        assert code == 0
        produced = json.loads(out)
        manifest = json.loads(Path(produced["manifest"]).read_text())
        assert len(manifest) == 2

    def test_directory_holding_a_gzipped_cnf(self, tmp_path, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.cnf.gz").write_bytes(gzip.compress(GOOD_CNF))
        code, out, _ = run_cli(
            capsys, "fetch", str(src), "--cache-dir", str(tmp_path / "cache"),
            "--no-validate",
        )
        assert code == 0
        manifest = json.loads(Path(json.loads(out)["manifest"]).read_text())
        assert [e["instance_id"] for e in manifest] == ["a"]

    def test_fetch_and_run_write_the_same_manifest(self, tmp_path, capsys):
        config = make_config(tmp_path, per_group=2)
        code, out, _ = run_cli(
            capsys, "fetch", str(tmp_path / "toy"), "--cache-dir", str(tmp_path / "cache"),
            "--no-validate",
        )
        assert code == 0
        fetched = Path(json.loads(out)["manifest"])
        code, out, _ = run_cli(capsys, "run", "--config", str(config))
        assert code == 0
        assert Path(json.loads(out)["manifest"]).read_bytes() == fetched.read_bytes()
        assert len(json.loads(fetched.read_text())) == 4

    def test_missing_source_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "fetch", str(tmp_path / "missing"),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 2

    @pytest.mark.parametrize("source", ["missing", "bad.cnf"])
    def test_failed_fetch_leaves_no_cache_dir(self, tmp_path, capsys, source):
        (tmp_path / "bad.cnf").write_bytes(b"p cnf 2 1\n1 1 2 0\n")
        code, out, _ = run_cli(capsys, "fetch", str(tmp_path / source),
                               "--cache-dir", str(tmp_path / "fc"), "--no-validate")
        assert (code, out) == (2, "")
        assert not (tmp_path / "fc").exists()

    def test_bad_url_exits_2_without_partial_state(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, _, err = run_cli(
            capsys, "fetch", "http://definitely-not-a-host.invalid/x.tar.gz",
            "--cache-dir", str(cache),
        )
        assert code == 2
        assert list(cache.glob("*.part")) == []
        assert list(cache.glob("*.tar.gz")) == []

    def test_download_that_cannot_be_written_leaves_no_part_file(self, tmp_path, capsys,
                                                                 monkeypatch):
        def cannot_rename(path, target):
            raise PermissionError(13, "Permission denied", str(target))

        monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: io.BytesIO(GOOD_CNF))
        monkeypatch.setattr(Path, "rename", cannot_rename)
        cache = tmp_path / "cache"
        code, out, err = run_cli(capsys, "fetch", "http://127.0.0.1:1/a.cnf",
                                 "--cache-dir", str(cache), "--no-validate")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].startswith("fetch failed: [Errno 13] Permission denied")
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("url", ["http://127.0.0.1:1/", "http://127.0.0.1:1/x.tar.gz?raw=1"])
    def test_url_that_names_no_benchmark_file_exits_2(self, tmp_path, capsys, url):
        # `http://…/` names no file: its download would go to the cache directory itself.
        cache = write_toy_instances(tmp_path / "cache", per_group=1, groups=(6,))
        code, out, err = run_cli(capsys, "fetch", url, "--cache-dir", str(cache),
                                 "--no-validate")
        assert (code, out, err) == (2, "", f"unsupported benchmark source: {url}\n")
        assert not (cache / "manifest.json").exists()


GOOD_CNF = b"p cnf 3 2\n1 -2 3 0\n-1 2 0\n"


@pytest.mark.parametrize("name, data", [
    ("zz-bad.cnf", b"p cnf 2 1\n1 1 2 0\n"),
    ("x.tar.gz", random.Random(0).randbytes(200)),
    ("cut.cnf.gz", gzip.compress(GOOD_CNF)[:20]),
    ("latin1.cnf", b"c caf\xe9\n" + GOOD_CNF),
], ids=["dimacs-error", "random-archive", "truncated-gzip", "non-utf8"])
def test_ingest_failure_names_the_file_and_exits_2(tmp_path, name, data):
    (tmp_path / name).write_bytes(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"benchmarks": name, "out_dir": "out",
                                  "validate_phase_transition": False}))
    for argv in (["fetch", str(tmp_path / name), "--cache-dir", str(tmp_path / "cache"),
                  "--no-validate"],
                 ["run", "--config", str(config)]):
        proc = run_python("-m", "saflip.cli", *argv, timeout=30)
        assert proc.returncode == 2, (argv[0], proc.stderr)
        assert name in proc.stderr and "Traceback" not in proc.stderr, (argv[0], proc.stderr)


@pytest.mark.parametrize("command", [["run"], ["tune", "--phase", "screen"]],
                         ids=["run", "tune"])
def test_missing_compiler_exits_2_before_output(tmp_path, capsys, kernel_cache, monkeypatch,
                                                command):
    monkeypatch.setattr(_kernel, "_compiler", lambda: ["/nonexistent/cc"])
    config = make_config(tmp_path)
    code, out, err = run_cli(capsys, *command, "--config", str(config))
    assert (code, out) == (2, "")
    assert "/nonexistent/cc" in err
    assert not (tmp_path / "out").exists()


def test_import_leaves_out_what_only_some_commands_use():
    code = (
        "import sys\n"
        "import saflip.cli\n"
        "print(sorted({'numpy', 'urllib.request', 'concurrent.futures', 'saflip.doe',\n"
        "              'statistics', 'tarfile', 'gzip', 'saflip.plots'} & set(sys.modules)))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def write_result_pair(tmp_path, group="3", labels=("sa", "placebo"), edit=None):
    """Paths of two paired result CSVs over one instance of `group` and two
    runs, labelled `labels`.  `group` is written as given, so it may be one
    that no ResultMatrix holds; `edit(fields)` rewrites each row of the
    second file, given as its list of fields."""
    paths = []
    for i, (label, scores) in enumerate(zip(labels, ([0.0, 0.5], [0.25, 0.0]))):
        rows = [["a", group, seed, j, label, repr(y)]
                for j, (seed, y) in enumerate(zip((1, 2), scores))]
        if i and edit:
            rows = [edit(row) for row in rows]
        path = tmp_path / f"results_{i}.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([CSV_COLUMNS, *rows])
        paths.append(str(path))
    return paths


def existing_file(tmp_path):
    path = tmp_path / "afile"
    path.write_text("")
    return str(path)


def solver_raising(monkeypatch, exc):
    def solver(formula, params):
        raise exc

    monkeypatch.setitem(harness.ALGORITHMS, "sa", solver)


def bad_dimacs_fetch(tmp, mp):
    (tmp / "bad.cnf").write_bytes(b"p cnf 2 1\n1 1 2 0\n")
    return ["fetch", str(tmp / "bad.cnf"), "--cache-dir", str(tmp / "cache"), "--no-validate"]


def failing_tune(tmp, mp):
    solver_raising(mp, RuntimeError("boom"))
    return ["tune", "--config", str(make_config(tmp)), "--phase", "screen", "--runs", "1",
            "--out", str(tmp / "tune")]


def interrupted_run(tmp, mp):
    solver_raising(mp, KeyboardInterrupt())
    return ["run", "--config", str(make_config(tmp))]


def run_in_tmp(tmp, mp, config, **files):
    """argv of a `run` of the config text `config`, with `files` ({relative
    path: bytes}) beside it in tmp, the working directory, so that an error
    names its paths as given."""
    mp.chdir(tmp)
    for name, data in {"config.json": config.encode(), **files}.items():
        Path(name).parent.mkdir(parents=True, exist_ok=True)
        Path(name).write_bytes(data)
    return ["run", "--config", "config.json", "--out", str(tmp / "out")]


def config_of(benchmarks):
    return json.dumps({"benchmarks": benchmarks, "out_dir": "out",
                       "validate_phase_transition": False})


def corrupt_archive_fetch(tmp, mp):
    mp.chdir(tmp)
    Path("bad.tar.gz").write_bytes(b"junk" * 50)
    return ["fetch", "bad.tar.gz", "--cache-dir", str(tmp / "cache")]


def resume_with_journal_line(line):
    """The argv maker of a `run --resume` whose journal, from a finished run,
    holds `line` as its line 3; tmp is the working directory, so that the
    error names `out/journal.jsonl`."""
    def make_argv(tmp, mp):
        mp.chdir(tmp)
        plan, _ = harness.ExperimentConfig.from_file(make_config(tmp)).build_plan()
        journal = Path("out/journal.jsonl")
        journal.parent.mkdir()
        harness.execute(plan, journal_path=journal)
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = line + b"\n"
        journal.write_bytes(b"".join(lines))
        return ["run", "--config", "config.json", "--out", "out", "--resume"]
    return make_argv


# case: (argv of the command given tmp_path and monkeypatch, exit code,
# prefix of the last stderr line or None for an empty stderr)
FAILURES = {
    "ber-missing-csv": (
        lambda tmp, mp: ["ber", str(tmp / "nope.csv"), str(tmp / "nope.csv"),
                         "--out", str(tmp / "ber")],
        2, "bad --delta or result file pair: "),
    "report-missing-csv": (
        lambda tmp, mp: ["report", str(tmp / "nope.csv"), str(tmp / "nope.csv"),
                         "--out", str(tmp / "report")],
        2, "bad --delta or result file pair: "),
    "fetch-missing-source": (
        lambda tmp, mp: ["fetch", str(tmp / "missing"), "--cache-dir", str(tmp / "cache")],
        2, "no such benchmark source: "),
    "fetch-bad-dimacs": (bad_dimacs_fetch, 2, "ingest failed: "),
    # Nothing listens on port 1 of the loopback address: the connection is refused.
    "fetch-bad-url": (
        lambda tmp, mp: ["fetch", "http://127.0.0.1:1/x.tar.gz",
                         "--cache-dir", str(tmp / "cache")],
        2, "fetch failed for http://127.0.0.1:1/x.tar.gz: "),
    "report-group-as-path": (
        lambda tmp, mp: ["report", *write_result_pair(tmp, group="a/b"), "--out", str(tmp / "r")],
        2, "bad --delta or result file pair: "),
    "tune-negative-budget-limit": (
        lambda tmp, mp: ["tune", "--config", str(make_config(tmp)), "--phase", "rsm",
                         "--budget-limit", "-1", "--out", str(tmp / "tune")],
        2, "config error: --budget-limit must be an integer >= 1, got -1"),
    "run-group-not-ingested": (
        lambda tmp, mp: ["run", "--config", str(make_config(tmp, groups=[100, 6, 12])),
                         "--out", str(tmp / "out")],
        2, "config error: groups [12, 100] match no ingested instance"),
    "tune-zero-runs": (
        lambda tmp, mp: ["tune", "--config", str(make_config(tmp)), "--phase", "screen",
                         "--runs", "0", "--out", str(tmp / "tune")],
        2, "config error: --runs must be an integer >= 1, got 0"),
    "ber-instances-differ": (
        lambda tmp, mp: ["ber", *write_result_pair(tmp, edit=lambda row: ["b", *row[1:]]),
                         "--out", str(tmp / "ber")],
        2, "bad --delta or result file pair: instance id lists differ"),
    "ber-run-indices-differ": (
        lambda tmp, mp: ["ber", *write_result_pair(
            tmp, edit=lambda row: [*row[:3], 2 * row[3], *row[4:]]), "--out", str(tmp / "ber")],
        2, "bad --delta or result file pair: run indices differ: [0, 1] vs [0, 2]"),
    "ber-groups-differ": (
        lambda tmp, mp: ["ber", *write_result_pair(tmp, edit=lambda row: [row[0], "5", *row[2:]]),
                         "--out", str(tmp / "ber")],
        2, "bad --delta or result file pair: instance group keys differ"),
    "report-same-label": (
        lambda tmp, mp: ["report", *[write_result_pair(tmp)[0]] * 2, "--out", str(tmp / "r")],
        2, "bad --delta or result file pair: both result files are labelled 'sa'"),
    "report-out-existing-file": (
        lambda tmp, mp: ["report", *write_result_pair(tmp), "--out", existing_file(tmp)],
        1, "report failed: [Errno 20] Not a directory: "),
    "tune-failing-solver": (failing_tune, 1, "tuning failed: "),
    "run-out-existing-file": (
        lambda tmp, mp: ["run", "--config", str(make_config(tmp)), "--out", existing_file(tmp)],
        1, "run failed: [Errno 17] File exists: "),
    "ber-out-existing-file": (
        lambda tmp, mp: ["ber", *write_result_pair(tmp), "--out", existing_file(tmp)],
        1, "ber failed: [Errno 17] File exists: "),
    # Removing an earlier screening_effects.json, before any row, refuses the file.
    "tune-out-existing-file": (
        lambda tmp, mp: ["tune", "--config", str(make_config(tmp)), "--phase", "screen",
                         "--out", existing_file(tmp)],
        1, "tune failed: [Errno 20] Not a directory: "),
    "tune-rsm-out-existing-file": (
        lambda tmp, mp: ["tune", "--config", str(make_config(tmp, params=RSM_START)),
                         "--phase", "rsm", "--out", existing_file(tmp)],
        1, "tune failed: [Errno 20] Not a directory: "),
    "fetch-url-without-file": (
        lambda tmp, mp: ["fetch", "http://127.0.0.1:1/", "--cache-dir", str(tmp / "cache")],
        2, "unsupported benchmark source: http://127.0.0.1:1/"),
    # Read as its suffix says: one error, not one per compression tried.
    "fetch-corrupt-archive": (
        corrupt_archive_fetch, 2, "ingest failed: bad.tar.gz: not a gzip file"),
    "run-config-not-an-object": (
        lambda tmp, mp: run_in_tmp(tmp, mp, "[]"),
        2, "config error: config config.json is not a JSON object"),
    "run-unsupported-source": (
        lambda tmp, mp: run_in_tmp(tmp, mp, config_of("a.txt"), **{"a.txt": GOOD_CNF}),
        2, "config error: unsupported benchmark source: a.txt"),
    "run-missing-source": (
        lambda tmp, mp: run_in_tmp(tmp, mp, config_of("a.cnf")),
        2, "config error: unreadable benchmark source: a.cnf"),
    "run-duplicate-instance-id": (
        lambda tmp, mp: run_in_tmp(tmp, mp, config_of(["a", "b"]), **{
            "a/f.cnf": GOOD_CNF, "b/f.cnf": GOOD_CNF.replace(b"-1 2", b"1 2")}),
        2, "config error: duplicate instance id 'f'"),
    # 20 instances per group all go to "train".
    "run-empty-test-split": (
        lambda tmp, mp: ["run", "--config", str(make_config(tmp, per_group=20, split="test")),
                         "--out", str(tmp / "out")],
        2, "config error: no instances left after filtering"),
    "fetch-cache-dir-existing-file": (
        lambda tmp, mp: ["fetch", str(write_toy_instances(tmp / "toy", per_group=1)),
                         "--cache-dir", existing_file(tmp), "--no-validate"],
        1, "fetch failed: [Errno 17] File exists: "),
    "keyboard-interrupt": (interrupted_run, 1, None),
    # A bad complete journal line is named by its line in the journal.
    "run-resume-malformed-journal-line": (
        resume_with_journal_line(b'{"algorithm": "sa"'),
        1, "experiment failed: out/journal.jsonl: line 3: Expecting ',' delimiter: column 19"),
    "run-resume-empty-journal-record": (
        resume_with_journal_line(b"{}"), 1, "experiment failed: out/journal.jsonl: line 3: "
                                           "record without algorithm, instance_id, run_index, seed"),
    "run-resume-journal-record-without-seed": (
        resume_with_journal_line(b'{"algorithm": "sa", "instance_id": "toy6-00", "run_index": 1}'),
        1, "experiment failed: out/journal.jsonl: line 3: record without seed"),
}


@pytest.mark.parametrize("case", list(FAILURES))
def test_failure_contract(tmp_path, capsys, monkeypatch, case):
    """Each failure ends in its exit code and an empty stdout; stderr closes
    with one line of the case's prefix and holds no traceback; but for the
    progress line of a download, that line is all of stderr.  An exit-2
    case creates no --out or --cache-dir, and a refused `--resume` leaves
    its journal byte-identical."""
    make_argv, code, prefix = FAILURES[case]
    argv = make_argv(tmp_path, monkeypatch)
    journal = tmp_path / "out" / "journal.jsonl"
    before = journal.read_bytes() if "--resume" in argv else None
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, ""), err
    if before is not None:
        assert journal.read_bytes() == before
    for flag in ("--out", "--cache-dir"):
        if code == 2 and flag in argv:  # a refused input creates no output
            assert not Path(argv[argv.index(flag) + 1]).exists()
    assert "Traceback" not in err
    if prefix is None:
        assert err == ""
    else:
        assert err.splitlines()[-1].startswith(prefix), err
        if case != "fetch-bad-url":  # which first prints `downloading …`
            assert len(err.splitlines()) == 1, err
