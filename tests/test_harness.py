import json
import multiprocessing
import random
import tarfile

import pytest

from saflip import _kernel, harness
from saflip.annealing import RunOutcome, SolverParams
from saflip.cnf import serialize_dimacs
from saflip.harness import (
    BenchmarkError,
    ExperimentConfig,
    ExperimentPlan,
    derive_seed,
    execute,
    ingest_benchmarks,
    split_train_test,
    summarize,
)

from conftest import DATA_DIR, random_3cnf


def write_toy_instances(path, per_group, groups=(6, 8), m_per_var=4, seed=0):
    """Tiny non-phase-transition instances for fast harness tests."""
    rng = random.Random(seed)
    path.mkdir(parents=True, exist_ok=True)
    for n in groups:
        for i in range(per_group):
            f = random_3cnf(n, m_per_var * n, rng, source_id=f"toy{n}-{i:02d}")
            (path / f"toy{n}-{i:02d}.cnf").write_text(serialize_dimacs(f))
    return path


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "abc", 0) == derive_seed(1, "abc", 0)

    def test_distinct_across_inputs(self):
        seeds = {
            derive_seed(ms, digest, j)
            for ms in (0, 1)
            for digest in ("a", "b")
            for j in range(10)
        }
        assert len(seeds) == 40

    def test_64_bit_range(self):
        assert 0 <= derive_seed(7, "x", 3) < 2**64


class TestIngest:
    def test_fixture_directory(self, fixture_benchmarks, tmp_path):
        groups = fixture_benchmarks.groups()
        assert groups == [50, 75, 100, 125]
        n50 = [i for i in fixture_benchmarks.instances if i.group == 50]
        assert len(n50) >= 10
        assert all(i.formula.num_clauses == 218 for i in n50)

    def test_manifest_written(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        ingest_benchmarks(DATA_DIR, manifest_path=manifest)
        entries = json.loads(manifest.read_text())
        assert {e["group"] for e in entries} == {50, 75, 100, 125}
        assert all({"digest", "n", "m", "instance_id"} <= set(e) for e in entries)

    def test_empty_directory_is_error(self, tmp_path):
        with pytest.raises(BenchmarkError):
            ingest_benchmarks(tmp_path)

    def test_non_3cnf_rejected_when_validating(self, tmp_path):
        (tmp_path / "bad.cnf").write_text("p cnf 3 1\n1 2 0\n")
        with pytest.raises(BenchmarkError, match="3-CNF"):
            ingest_benchmarks(tmp_path)
        bset = ingest_benchmarks(tmp_path, validate_phase_transition=False)
        assert len(bset.instances) == 1

    def test_ratio_out_of_phase_transition_rejected(self, tmp_path):
        rng = random.Random(1)
        f = random_3cnf(10, 20, rng, source_id="sparse")
        (tmp_path / "sparse.cnf").write_text(serialize_dimacs(f))
        with pytest.raises(BenchmarkError, match="ratio"):
            ingest_benchmarks(tmp_path)

    def test_archive_and_directory_union_dedup(self, tmp_path):
        toy_dir = write_toy_instances(tmp_path / "dir", per_group=2)
        archive = tmp_path / "toys.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            for f in sorted(toy_dir.glob("*.cnf")):
                tar.add(f, arcname=f.name)
        bset = ingest_benchmarks(
            [toy_dir, archive], validate_phase_transition=False
        )
        # The archive repeats the directory's content; digests dedup it.
        assert len(bset.instances) == 4

    def test_deterministic_ordering(self):
        a = ingest_benchmarks(DATA_DIR)
        b = ingest_benchmarks(DATA_DIR)
        assert [i.instance_id for i in a.instances] == [
            i.instance_id for i in b.instances
        ]


class TestSplit:
    def test_split_counts(self, tmp_path):
        toy = write_toy_instances(tmp_path, per_group=25)
        bset = ingest_benchmarks(toy, validate_phase_transition=False)
        split_train_test(bset, master_seed=5)
        for group in bset.groups():
            members = [i for i in bset.instances if i.group == group]
            assert sum(1 for i in members if i.split == "train") == 20
            assert sum(1 for i in members if i.split == "test") == 5

    def test_split_deterministic(self, tmp_path):
        toy = write_toy_instances(tmp_path, per_group=22)
        a = split_train_test(
            ingest_benchmarks(toy, validate_phase_transition=False), master_seed=9
        )
        b = split_train_test(
            ingest_benchmarks(toy, validate_phase_transition=False), master_seed=9
        )
        assert [i.split for i in a.instances] == [i.split for i in b.instances]

    def test_too_few_instances(self, tmp_path):
        toy = write_toy_instances(tmp_path, per_group=19)
        bset = ingest_benchmarks(toy, validate_phase_transition=False)
        with pytest.raises(BenchmarkError, match="19"):
            split_train_test(bset, master_seed=1)


FAST_PARAMS = SolverParams(t0=1.0, alpha=0.9, m_steps=3, mni=4)


def toy_plan(tmp_path, per_group=1, n_runs=3, master_seed=11):
    toy = write_toy_instances(tmp_path / "toy", per_group=per_group)
    bset = ingest_benchmarks(toy, validate_phase_transition=False)
    return ExperimentPlan(
        instances=bset.instances,
        n_runs=n_runs,
        master_seed=master_seed,
        params=FAST_PARAMS,
    )


class TestExecute:
    def test_shapes_and_seed_pairing(self, tmp_path):
        plan = toy_plan(tmp_path, per_group=1, n_runs=3)
        matrices, failed = execute(plan)
        assert failed == []
        sa, pl = matrices["sa"], matrices["placebo"]
        assert len(sa.instance_ids) == len(pl.instance_ids) == 2
        assert sa.num_runs == pl.num_runs == 3
        assert sa.seeds == pl.seeds == plan.seed_matrix()

    def test_journal_and_resume(self, tmp_path):
        plan = toy_plan(tmp_path, per_group=2, n_runs=2)
        journal = tmp_path / "journal.jsonl"
        full, _ = execute(plan, journal_path=journal)
        lines = journal.read_text().splitlines()
        assert len(lines) == 4 * 2 * 2  # instances * runs * algorithms

        # Truncate the journal to simulate an interruption, then resume.
        journal.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        resumed, _ = execute(plan, journal_path=journal)
        assert resumed["sa"] == full["sa"]
        assert resumed["placebo"] == full["placebo"]
        assert len(journal.read_text().splitlines()) == len(lines)

    def test_malformed_complete_journal_line_fails(self, tmp_path):
        plan = toy_plan(tmp_path, per_group=1, n_runs=2)
        journal = tmp_path / "journal.jsonl"
        execute(plan, journal_path=journal)
        lines = journal.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:10] + "\n"
        journal.write_text("".join(lines))
        with pytest.raises(json.JSONDecodeError):
            execute(plan, journal_path=journal)

    def test_journal_confirms_seed_pairing(self, tmp_path):
        plan = toy_plan(tmp_path, per_group=1, n_runs=3)
        journal = tmp_path / "journal.jsonl"
        execute(plan, journal_path=journal)
        records = [json.loads(l) for l in journal.read_text().splitlines()]
        by_algo = {}
        for rec in records:
            by_algo.setdefault(rec["algorithm"], {})[
                (rec["instance_id"], rec["run_index"])
            ] = rec["seed"]
        assert by_algo["sa"] == by_algo["placebo"]

    def test_parallel_equals_serial(self, tmp_path):
        plan = toy_plan(tmp_path, per_group=1, n_runs=2)
        serial, _ = execute(plan, jobs=1, journal_path=tmp_path / "serial.jsonl")
        parallel, _ = execute(plan, jobs=2, journal_path=tmp_path / "parallel.jsonl")
        assert serial == parallel

        def records(name):  # (key, value) lists, so key order counts
            return [[(k, v) for k, v in json.loads(line).items() if k != "wall_time"]
                    for line in (tmp_path / name).read_text().splitlines()]

        assert records("serial.jsonl") == records("parallel.jsonl")
        assert len(records("serial.jsonl")) == 2 * 2 * 2

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers inherit the kernel only when forked")
    def test_parallel_run_builds_the_kernel_once(self, tmp_path, kernel_cache):
        execute(toy_plan(tmp_path, per_group=2, n_runs=2), jobs=2)
        assert kernel_cache() == 1
        assert len(list(_kernel.CACHE_DIR.glob("_kernel.*.so"))) == 1

    def test_single_algorithm_subset(self, tmp_path):
        plan = toy_plan(tmp_path, per_group=1, n_runs=2)
        matrices, _ = execute(plan, algorithms=("sa",))
        assert set(matrices) == {"sa"}

    def test_unknown_algorithm(self, tmp_path):
        plan = toy_plan(tmp_path)
        with pytest.raises(ValueError):
            execute(plan, algorithms=("sa", "nope"))

    @pytest.mark.parametrize("truncate", [False, True])
    def test_wrong_outcome_is_a_failed_cell(self, tmp_path, monkeypatch, truncate):
        plan = toy_plan(tmp_path, per_group=1, n_runs=2)
        solver = harness.ALGORITHMS["sa"]
        calls = []

        def lying(formula, params):
            calls.append(params.seed)
            if len(calls) > 1:
                return solver(formula, params)
            # Falsify the first clause, then claim the formula solved.
            values = [1] * formula.num_vars
            for lit in formula.clauses[0]:
                values[abs(lit) - 1] = int(lit < 0)
            if truncate:
                values = values[:-1]
            return RunOutcome(tuple(values), 0.0, 1, 0, True, 0.0, 0.0)

        monkeypatch.setitem(harness.ALGORITHMS, "sa", lying)
        journal = tmp_path / "journal.jsonl"
        matrices, failed = execute(plan, journal_path=journal)
        first = plan.instances[0].instance_id
        assert failed == [(first, 0)]
        assert matrices["sa"].num_runs == 1
        errors = [json.loads(line) for line in journal.read_text().splitlines()
                  if "error" in line]
        assert errors == [{"algorithm": "sa", "instance_id": first, "run_index": 0,
                           "seed": plan.seed_matrix()[0][0], "error": errors[0]["error"]}]
        assert list(errors[0]) == ["algorithm", "instance_id", "run_index", "seed", "error"]


class TestSummarize:
    def _all_zero_pair(self):
        from saflip.ber import ResultMatrix

        def mk(label):
            return ResultMatrix(
                instance_ids=["a", "b"],
                group_keys=[50, 75],
                seeds=[[1, 2], [3, 4]],
                scores=[[0.0, 0.0], [0.0, 0.0]],
                algorithm_label=label,
            )

        return mk("sa"), mk("placebo")

    def test_all_zero_summary(self, tmp_path):
        ym, y0 = self._all_zero_pair()
        summary = summarize(ym, y0, deltas=(0.0, 0.01), out_dir=tmp_path)
        assert summary["mean_y"]["sa"]["overall"] == 0.0
        assert summary["success_rate"]["placebo"]["overall"] == 1.0
        for reports in summary["ber"].values():
            for rep in reports:
                assert (rep["b"], rep["e"], rep["r"]) == (0.0, 1.0, 0.0)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "ber_0.0000.csv").exists()
        assert (tmp_path / "plots" / "ecdf_overall.svg").exists()
        assert (tmp_path / "plots" / "hist_50.svg").exists()
        assert (tmp_path / "plots" / "ecdf_overall.csv").exists()

    def test_reports_byte_identical_across_reruns(self, tmp_path):
        ym, y0 = self._all_zero_pair()
        summarize(ym, y0, out_dir=tmp_path / "one")
        summarize(ym, y0, out_dir=tmp_path / "two")
        for name in ("summary.json", "ber_0.0000.csv", "plots/ecdf_overall.svg",
                     "plots/hist_overall.svg"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()


class TestConfig:
    def test_errors_listed_all_at_once(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bogus": 1, "params": {"alpha": 2.0}}))
        with pytest.raises(ValueError) as info:
            ExperimentConfig.from_file(path)
        message = str(info.value)
        assert "bogus" in message
        assert "benchmarks" in message
        assert "out_dir" in message
        assert "alpha" in message

    def test_round_trip_build_plan(self, tmp_path):
        toy = write_toy_instances(tmp_path / "toy", per_group=2)
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "benchmarks": ["toy"],
                    "out_dir": "out",
                    "n_runs": 2,
                    "master_seed": 3,
                    "validate_phase_transition": False,
                    "groups": [6],
                    "limit_per_group": 1,
                    "params": {"t0": 2.0, "alpha": 0.5, "m_steps": 2, "mni": 2},
                }
            )
        )
        config = ExperimentConfig.from_file(path)
        plan, bset = config.build_plan()
        assert len(plan.instances) == 1
        assert plan.instances[0].group == 6
        assert plan.params.m_steps == 2
