import gzip
import json
import random
from pathlib import Path

import pytest

from saflip import _kernel, harness
from saflip.cli import main
from saflip.ber import read_result_csv

from conftest import run_python
from test_harness import write_toy_instances


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
        ({"n_runs": None}, "n_runs must be an integer, got None"),
        ({"benchmarks": 5}, "benchmarks must be a path or a list of paths, got 5"),
        ({"out_dir": 5}, "out_dir must be a path, got 5"),
        ({"split": "dev"}, "split must be \"\", \"train\" or \"test\", got 'dev'"),
        ({"limit_per_group": -1}, "limit_per_group must be an integer >= 0, got -1"),
        ({"deltas": [0.00094, 0.00089]},
         "deltas 0.00094 and 0.00089 both write ber_0.0009.csv"),
    ], ids=["negative-delta", "deltas", "groups", "n_runs", "benchmarks", "out_dir",
            "split", "limit_per_group", "deltas-sharing-a-table"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, override, message):
        config = make_config(tmp_path, **override)
        code, out, err = run_cli(capsys, "run", "--config", str(config))
        assert (code, out) == (2, "")
        assert f"config error: {message}" in err
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


class TestReport:
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


def record_sa_calls(monkeypatch, fail=False):
    """Replace the harness's SA solver by one that logs (instance, seed)
    per call, or raises when `fail` is set."""
    calls = []
    solver = harness.ALGORITHMS["sa"]

    def recorded(formula, params):
        if fail:
            raise RuntimeError("solver exploded")
        calls.append((formula.source_id, params.seed))
        return solver(formula, params)

    monkeypatch.setitem(harness.ALGORITHMS, "sa", recorded)
    return calls


def seed_block(tmp_path, master_seed, runs, first_run):
    """(instance, seed) per cell of one evaluation, in execution order."""
    bset = harness.ingest_benchmarks(tmp_path / "toy", validate_phase_transition=False)
    return [
        (inst.instance_id, harness.derive_seed(master_seed, inst.digest, first_run + j))
        for inst in bset.instances
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
        config = make_config(
            tmp_path, per_group=1,
            params={"t0": 50.0, "alpha": 0.9, "m_steps": 20, "mni": 50},
        )
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
        record_sa_calls(monkeypatch, fail=True)
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "screen",
            "--runs", "1", "--out", str(tmp_path / "tune"),
        )
        assert code == 1
        assert out == ""
        assert "tuning failed" in err
        assert not (tmp_path / "tune" / "screening_effects.json").exists()

    def test_failing_solver_fails_rsm_with_partial_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        config = make_config(
            tmp_path, params={"t0": 50.0, "alpha": 0.9, "m_steps": 20, "mni": 50}
        )
        record_sa_calls(monkeypatch, fail=True)
        code, out, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "rsm",
            "--runs", "1", "--out", str(tmp_path / "tune"),
        )
        assert code == 1
        assert "partial trace" in err
        assert json.loads((tmp_path / "tune" / "rsm_trace.json").read_text()) == []
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
        assert set(doc["main_effects"]) == {"t0", "alpha", "m_steps", "mni"}

    def test_rsm_budget_stop(self, tmp_path, capsys):
        config = make_config(
            tmp_path, per_group=1, n_runs=1,
            params={"t0": 50.0, "alpha": 0.9, "m_steps": 20, "mni": 50},
        )
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

    def test_zero_center_points_exits_2(self, tmp_path, capsys):
        config = make_config(tmp_path)
        code, _, err = run_cli(
            capsys, "tune", "--config", str(config), "--phase", "screen",
            "--runs", "1", "--center-points", "0", "--out", str(tmp_path / "tune"),
        )
        assert code == 2
        assert "center_points must be >= 1" in err

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

    def test_missing_source_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "fetch", str(tmp_path / "missing"),
            "--cache-dir", str(tmp_path / "cache"),
        )
        assert code == 2

    def test_bad_url_exits_2_without_partial_state(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, _, err = run_cli(
            capsys, "fetch", "http://definitely-not-a-host.invalid/x.tar.gz",
            "--cache-dir", str(cache),
        )
        assert code == 2
        assert list(cache.glob("*.part")) == []
        assert list(cache.glob("*.tar.gz")) == []


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
        "              'statistics', 'tarfile', 'gzip'} & set(sys.modules)))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
