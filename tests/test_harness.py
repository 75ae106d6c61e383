import json
import random
import re
import shutil
import sys
import tarfile
import threading

import pytest

from saflip import _kernel, harness
from saflip._kernel import RunOutcome
from saflip.annealing import SolverParams
from saflip.cnf import parse_dimacs, serialize_dimacs
from saflip.harness import (
    ExperimentConfig,
    ExperimentPlan,
    derive_seed,
    execute,
    ingest_benchmarks,
    manifest,
    summarize,
)

from conftest import DATA_DIR, random_3cnf, run_python


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
        groups = sorted({i.group for i in fixture_benchmarks})
        assert groups == [50, 75, 100, 125]
        n50 = [i for i in fixture_benchmarks if i.group == 50]
        assert len(n50) >= 10
        assert all(i.formula.num_clauses == 218 for i in n50)

    def test_manifest_written(self):
        entries = manifest(ingest_benchmarks(DATA_DIR))
        assert {e["group"] for e in entries} == {50, 75, 100, 125}
        assert all({"digest", "n", "m", "instance_id"} <= set(e) for e in entries)

    def test_empty_directory_is_error(self, tmp_path):
        with pytest.raises(ValueError, match="no .cnf instances found in "):
            ingest_benchmarks(tmp_path)

    def test_non_3cnf_rejected_when_validating(self, tmp_path):
        (tmp_path / "bad.cnf").write_text("p cnf 3 1\n1 2 0\n")
        with pytest.raises(ValueError, match="3-CNF"):
            ingest_benchmarks(tmp_path)
        instances = ingest_benchmarks(tmp_path, validate_phase_transition=False)
        assert len(instances) == 1

    def test_ratio_out_of_phase_transition_rejected(self, tmp_path):
        rng = random.Random(1)
        f = random_3cnf(10, 20, rng, source_id="sparse")
        (tmp_path / "sparse.cnf").write_text(serialize_dimacs(f))
        with pytest.raises(ValueError, match="ratio"):
            ingest_benchmarks(tmp_path)

    def test_archive_and_directory_union_dedup(self, tmp_path):
        toy_dir = write_toy_instances(tmp_path / "dir", per_group=2)
        archive = tmp_path / "toys.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            for f in sorted(toy_dir.glob("*.cnf")):
                tar.add(f, arcname=f.name)
        instances = ingest_benchmarks(
            [toy_dir, archive], validate_phase_transition=False
        )
        # The archive repeats the directory's content; digests dedup it.
        assert len(instances) == 4

    def test_archive_is_read_as_its_suffix_says(self, tmp_path):
        toy_dir = write_toy_instances(tmp_path / "dir", per_group=1)
        for name, mode in (("plain.tar", "w"), ("gzipped.tar", "w:gz")):
            with tarfile.open(tmp_path / name, mode) as tar:
                for f in sorted(toy_dir.glob("*.cnf")):
                    tar.add(f, arcname=f.name)
        instances = ingest_benchmarks(tmp_path / "plain.tar", validate_phase_transition=False)
        assert [inst.instance_id for inst in instances] == ["toy6-00", "toy8-00"]
        with pytest.raises(ValueError, match=r"gzipped\.tar: "):
            ingest_benchmarks(tmp_path / "gzipped.tar", validate_phase_transition=False)

    def test_deterministic_ordering(self):
        a = ingest_benchmarks(DATA_DIR)
        b = ingest_benchmarks(DATA_DIR)
        assert [i.instance_id for i in a] == [i.instance_id for i in b]


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty parse cache under tmp_path."""
    cache = tmp_path / "__pycache__"
    monkeypatch.setattr(_kernel, "CACHE_DIR", cache)
    return cache


@pytest.fixture
def parses(monkeypatch):
    """The source id of every `parse_dimacs` call that ingest makes, in order."""
    calls = []

    def counting(text, source_id=""):
        calls.append(source_id)
        return parse_dimacs(text, source_id)

    monkeypatch.setattr(harness, "parse_dimacs", counting)
    return calls


def entries(cache):
    return sorted(cache.glob("_dimacs.*.marshal"))


def one_fixture(tmp_path, name="genuf50-01.cnf"):
    src = tmp_path / "src"
    src.mkdir(exist_ok=True)
    shutil.copy(DATA_DIR / name, src / name)
    return src


class TestParseCache:
    def test_warm_ingest_parses_nothing(self, cache_dir, parses):
        cold = ingest_benchmarks(DATA_DIR)
        assert len(parses) == len(cold) == len(entries(cache_dir)) == 30
        parses.clear()
        warm = ingest_benchmarks(DATA_DIR)
        assert parses == []
        assert [i.formula for i in warm] == [i.formula for i in cold]
        assert [i.digest for i in warm] == [i.digest for i in cold]
        assert manifest(warm) == manifest(cold)

    @pytest.mark.parametrize("damage", [lambda data: b"garbage",
                                        lambda data: data[:len(data) // 2]],
                             ids=["garbage", "truncated"])
    def test_damaged_entry_is_parsed_again_and_rewritten(self, cache_dir, parses, tmp_path,
                                                         damage):
        src = one_fixture(tmp_path)
        first = ingest_benchmarks(src)
        [entry] = entries(cache_dir)
        good = entry.read_bytes()
        entry.write_bytes(damage(good))
        again = ingest_benchmarks(src)
        assert parses == ["genuf50-01", "genuf50-01"]
        assert entry.read_bytes() == good
        assert manifest(again) == manifest(first)
        assert again[0].formula == first[0].formula

    def test_edited_file_gets_a_new_entry(self, cache_dir, parses, tmp_path):
        src = one_fixture(tmp_path)
        ingest_benchmarks(src)
        [old] = entries(cache_dir)
        path = src / "genuf50-01.cnf"
        path.write_text("c edited\n" + path.read_text())
        ingest_benchmarks(src)
        assert len(parses) == 2
        assert old in entries(cache_dir) and len(entries(cache_dir)) == 2

    def test_entries_of_another_parser_version_are_pruned_once_per_ingest(
            self, cache_dir, monkeypatch, tmp_path):
        cache_dir.mkdir()
        stale = cache_dir / "_dimacs.0123456789abcdef.0123.marshal"
        stale.write_bytes(b"old")
        kernel = cache_dir / "_kernel.0123456789abcdef.so"
        kernel.write_bytes(b"not ours")
        prunes = []
        prune = _kernel.prune
        monkeypatch.setattr(_kernel, "prune", lambda *args: prunes.append(args) or prune(*args))
        ingest_benchmarks(DATA_DIR)
        assert len(prunes) == 1
        assert not stale.exists() and kernel.exists()
        assert len(entries(cache_dir)) == 30
        assert all(e.name.startswith(f"_dimacs.{harness._parser_version()}.")
                   for e in entries(cache_dir))
        ingest_benchmarks(DATA_DIR)
        assert len(prunes) == 1  # a warm ingest writes nothing and scans nothing

    @pytest.mark.parametrize("blocked", ["no-directory", "no-rename"])
    def test_unwritable_cache_still_ingests_silently(self, cache_dir, monkeypatch, tmp_path,
                                                     capsys, parses, blocked):
        src = one_fixture(tmp_path)
        expected = manifest(ingest_benchmarks(src))
        parses.clear()
        capsys.readouterr()
        if blocked == "no-directory":
            not_a_dir = tmp_path / "file"
            not_a_dir.write_text("")
            monkeypatch.setattr(_kernel, "CACHE_DIR", not_a_dir / "__pycache__")
        else:
            monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "blocked")

            def refuse(src, dst):
                raise PermissionError(dst)

            monkeypatch.setattr(_kernel.os, "replace", refuse)
        for _ in range(2):
            assert manifest(ingest_benchmarks(src)) == expected
        assert len(parses) == 2
        assert capsys.readouterr().err == ""
        if blocked == "no-rename":
            assert list((tmp_path / "blocked").iterdir()) == []

    @pytest.mark.parametrize("name, text", [
        ("repeat.cnf", "p cnf 3 1\n1 1 2 0\n"),
        ("sparse.cnf", "p cnf 9 1\n1 2 3 0\n"),
    ], ids=["dimacs-error", "ratio"])
    def test_bad_file_is_named_on_cold_and_warm_cache(self, cache_dir, tmp_path, name, text):
        (tmp_path / name).write_text(text)
        for _ in range(2):
            with pytest.raises(ValueError, match=name):
                ingest_benchmarks(tmp_path / name)
        assert len(entries(cache_dir)) == (name == "sparse.cnf")


def split_picks(tmp_path, split, master_seed, **keys):
    """The instances that `build_plan` picks from tmp_path/toy on `split`."""
    config = ExperimentConfig(benchmarks="toy", out_dir="out", split=split,
                              master_seed=master_seed, validate_phase_transition=False,
                              base_dir=tmp_path, **keys)
    plan, instances = config.build_plan()
    assert instances == plan.instances
    return instances


class TestSplit:
    def test_split_counts(self, tmp_path):
        write_toy_instances(tmp_path / "toy", per_group=25)
        for split, count in (("train", 20), ("test", 5)):
            picked = split_picks(tmp_path, split, master_seed=5)
            assert [i.group for i in picked] == [6] * count + [8] * count
            assert {i.split for i in picked} == {split}

    def test_split_deterministic(self, tmp_path):
        write_toy_instances(tmp_path / "toy", per_group=22)
        a, b = (manifest(split_picks(tmp_path, "test", master_seed=9)) for _ in range(2))
        assert a == b

    def test_too_few_instances(self, tmp_path):
        write_toy_instances(tmp_path / "toy", per_group=19)
        with pytest.raises(ValueError, match="19"):
            split_picks(tmp_path, "train", master_seed=1)

    def test_picks_are_pinned(self, tmp_path):
        # Taken from the picks of the two-pass selection this one replaced.
        write_toy_instances(tmp_path / "toy", per_group=23)
        test = ["toy6-10", "toy6-18", "toy6-20", "toy8-12", "toy8-17", "toy8-21"]
        ids = [f"toy{n}-{i:02d}" for n in (6, 8) for i in range(23)]
        for split, expected in (("train", [i for i in ids if i not in test]), ("test", test)):
            assert [i.instance_id for i in split_picks(tmp_path, split, 5)] == expected
        limited = split_picks(tmp_path, "test", 5, limit_per_group=2)
        assert [i.instance_id for i in limited] == ["toy6-10", "toy6-18", "toy8-12", "toy8-17"]

    def test_only_the_kept_groups_need_enough_instances(self, tmp_path):
        write_toy_instances(tmp_path / "toy", per_group=20, groups=(6,))
        write_toy_instances(tmp_path / "toy", per_group=6, groups=(8,))
        picked = split_picks(tmp_path, "train", master_seed=1, groups=[6])
        assert [i.group for i in picked] == [6] * 20


FAST_PARAMS = SolverParams(t0=1.0, alpha=0.9, m_steps=3, mni=4)


def toy_plan(tmp_path, per_group=1, n_runs=3, master_seed=11):
    toy = write_toy_instances(tmp_path / "toy", per_group=per_group)
    return ExperimentPlan(
        instances=ingest_benchmarks(toy, validate_phase_transition=False),
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
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(journal))}: line 2: Unterminated string"):
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

    def test_parallel_run_builds_the_kernel_once(self, tmp_path, kernel_cache):
        execute(toy_plan(tmp_path, per_group=2, n_runs=2), jobs=2)
        assert kernel_cache() == 1
        assert len(list(_kernel.CACHE_DIR.glob("_kernel.*.so"))) == 1

    def test_parallel_cells_run_side_by_side_and_keep_their_order(self, tmp_path,
                                                                  monkeypatch):
        # Cell 0 finishes only once cell 1 has run, so jobs=2 must run them
        # at the same time, and still journal cell 0 first.
        plan = toy_plan(tmp_path, per_group=1, n_runs=3)
        serial = tmp_path / "serial.jsonl"
        execute(plan, algorithms=("sa",), journal_path=serial)
        solver = harness.ALGORITHMS["sa"]
        seeds = plan.seed_matrix()[0]
        cell1_ran = threading.Event()

        def cell0_waits_for_cell1(formula, params):
            # A timeout fails cell 0, and its error record fails the test.
            if params.seed == seeds[0] and not cell1_ran.wait(timeout=10):
                raise TimeoutError("cell 1 did not run while cell 0 waited")
            out = solver(formula, params)
            if params.seed == seeds[1]:
                cell1_ran.set()
            return out

        monkeypatch.setitem(harness.ALGORITHMS, "sa", cell0_waits_for_cell1)
        parallel = tmp_path / "parallel.jsonl"
        execute(plan, algorithms=("sa",), jobs=2, journal_path=parallel)

        def records(path):  # (key, value) lists, so key order counts
            return [[(k, v) for k, v in json.loads(line).items() if k != "wall_time"]
                    for line in path.read_text().splitlines()]

        assert records(parallel) == records(serial)
        assert len(records(serial)) == 2 * 3

    def test_many_threads_give_the_serial_results(self, tmp_path):
        # More threads than cores, switching often: a run that read another
        # thread's arrays or state would change a score or a seed.
        plan = toy_plan(tmp_path, per_group=3, n_runs=4)
        serial, _ = execute(plan)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded, failed = execute(plan, jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert failed == []
        assert threaded == serial

    def test_pool_is_no_larger_than_the_work(self, tmp_path, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:  # runs the cells in this thread
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        plan = toy_plan(tmp_path, per_group=1, n_runs=1)
        serial, _ = execute(plan)
        pooled, _ = execute(plan, jobs=32)
        assert pooled == serial
        assert sizes == [2 * 1 * 2]  # instances * runs * algorithms

        plan = toy_plan(tmp_path / "larger", per_group=2, n_runs=4)
        serial, _ = execute(plan)
        pooled, _ = execute(plan, jobs=2)
        assert pooled == serial
        assert sizes[1:] == [2]

    def test_parallel_run_starts_no_process(self, tmp_path):
        toy = write_toy_instances(tmp_path / "toy", per_group=1)
        code = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from saflip import _kernel\n"
            "from saflip.harness import ExperimentPlan, execute, ingest_benchmarks\n"
            "_kernel.CACHE_DIR = Path(sys.argv[2])\n"
            "instances = ingest_benchmarks(sys.argv[1], validate_phase_transition=False)\n"
            "matrices, failed = execute(ExperimentPlan(instances, n_runs=2), jobs=2)\n"
            "print(json.dumps([failed, matrices['sa'].num_runs, sorted(\n"
            "    {'multiprocessing', 'concurrent.futures.process', 'concurrent.futures.thread'}\n"
            "    & sys.modules.keys())]))\n"
        )
        proc = run_python("-c", code, str(toy), str(_kernel.CACHE_DIR), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[], 2, ["concurrent.futures.thread"]]

    def test_unbuildable_kernel_fails_before_any_cell(self, tmp_path, kernel_cache,
                                                      monkeypatch):
        plan = toy_plan(tmp_path, per_group=1, n_runs=1)
        monkeypatch.setattr(_kernel, "_compiler", lambda: ["/nonexistent/cc"])
        journal = tmp_path / "journal.jsonl"
        for jobs in (1, 2):
            with pytest.raises(RuntimeError, match="/nonexistent/cc"):
                execute(plan, jobs=jobs, journal_path=journal)
        assert not journal.exists()

    def test_only_the_plans_cells_count_as_failed(self, tmp_path):
        plan = toy_plan(tmp_path, per_group=1, n_runs=2)
        first = plan.instances[0].instance_id
        journal = tmp_path / "journal.jsonl"

        def append_error(algo, instance_id, run_index, seed=0):
            with journal.open("a") as fh:
                fh.write(json.dumps({"algorithm": algo, "instance_id": instance_id,
                                     "run_index": run_index, "seed": seed, "error": "x"}) + "\n")

        append_error("sa", first, 7)
        append_error("sa", "another-instance", 0)
        matrices, failed = execute(plan, journal_path=journal)
        assert failed == []
        assert matrices["sa"].num_runs == 2
        # Another algorithm's failed cell still removes its column, so that
        # result CSVs written by separate calls stay paired.
        append_error("placebo", first, 1, seed=plan.seed_matrix()[0][1])
        matrices, failed = execute(plan, algorithms=("sa",), journal_path=journal)
        assert failed == [(first, 1)]
        assert matrices["sa"].num_runs == 1

    def test_single_algorithm_subset(self, tmp_path):
        plan = toy_plan(tmp_path, per_group=1, n_runs=2)
        matrices, _ = execute(plan, algorithms=("sa",))
        assert set(matrices) == {"sa"}

    def test_unknown_algorithm(self, tmp_path):
        plan = toy_plan(tmp_path)
        with pytest.raises(ValueError):
            execute(plan, algorithms=("sa", "nope"))

    @pytest.mark.parametrize("truncate, jobs", [
        pytest.param(False, 1, id="False"),
        pytest.param(True, 1, id="True"),
        pytest.param(False, 2, id="False-jobs2"),
        pytest.param(True, 2, id="True-jobs2"),
    ])
    def test_wrong_outcome_is_a_failed_cell(self, tmp_path, monkeypatch, truncate, jobs):
        plan = toy_plan(tmp_path, per_group=2, n_runs=4)
        solver = harness.ALGORITHMS["sa"]
        first = plan.instances[0].instance_id
        lie_seed = plan.seed_matrix()[0][1]

        def lying(formula, params):
            if params.seed != lie_seed:
                return solver(formula, params)
            # Falsify the first clause, then claim the formula solved.
            values = [1] * formula.num_vars
            for lit in formula.clauses[0]:
                values[abs(lit) - 1] = int(lit < 0)
            if truncate:
                values = values[:-1]
            return RunOutcome(tuple(values), 0.0, 1, 0, 0.0, 0.0)

        monkeypatch.setitem(harness.ALGORITHMS, "sa", lying)
        journal = tmp_path / "journal.jsonl"
        matrices, failed = execute(plan, jobs=jobs, journal_path=journal)
        assert failed == [(first, 1)]
        assert matrices["sa"].num_runs == 3
        records = [json.loads(line) for line in journal.read_text().splitlines()]
        assert len(records) == 32
        errors = [rec for rec in records if "error" in rec]
        assert errors == [{"algorithm": "sa", "instance_id": first, "run_index": 1,
                           "seed": lie_seed, "error": errors[0]["error"]}]
        assert list(errors[0]) == ["algorithm", "instance_id", "run_index", "seed", "error"]
        # The clause scan refused the outcome, not its construction.
        n, m = plan.instances[0].formula.num_vars, plan.instances[0].formula.num_clauses
        expected = (f"best assignment has {n - 1} values for {n} variables" if truncate else
                    rf"best_score 0\.0 but the best assignment leaves [1-9]\d* of {m} clauses "
                    "unsatisfied")
        assert re.fullmatch(f"ValueError: {expected}", errors[0]["error"])


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

    def test_success_rate_per_group(self, tmp_path):
        from saflip.ber import ResultMatrix

        seeds = [[1, 2], [3, 4], [5, 6]]
        ym = ResultMatrix(["a", "b", "c"], [50, 75, 75], seeds,
                          [[0.0, 0.5], [0.0, 0.0], [0.25, 0.0]], "sa")
        y0 = ResultMatrix(["a", "b", "c"], [50, 75, 75], seeds,
                          [[0.5, 0.5], [0.0, 0.25], [0.0, 0.0]], "placebo")
        summarize(ym, y0, deltas=(0.0,), out_dir=tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["success_rate"] == {
            "sa": {"50": 0.5, "75": 0.75, "overall": 4 / 6},
            "placebo": {"50": 0.0, "75": 0.75, "overall": 0.5},
        }

    def test_every_file_written_is_a_derived_file(self, tmp_path):
        # So the clean-up of `run` and of `report` reaches every summary output.
        ym, y0 = self._all_zero_pair()
        summarize(ym, y0, out_dir=tmp_path)
        assert set(harness.SUMMARY_FILES) <= set(harness.DERIVED_FILES)
        harness.remove_derived_files(tmp_path, harness.SUMMARY_FILES)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

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
        plan, instances = config.build_plan()
        assert instances == plan.instances and len(instances) == 1
        assert plan.instances[0].group == 6
        assert plan.params.m_steps == 2

    def test_groups_not_ingested_are_refused_by_name(self, tmp_path):
        write_toy_instances(tmp_path / "toy", per_group=1)
        config = ExperimentConfig(benchmarks="toy", out_dir="out", groups=[8, 12, 6, 10],
                                  validate_phase_transition=False, base_dir=tmp_path)
        with pytest.raises(ValueError) as info:
            config.build_plan()
        assert str(info.value) == "groups [10, 12] match no ingested instance"

    def test_split_key_keeps_one_side_of_the_split(self, tmp_path):
        write_toy_instances(tmp_path / "toy", per_group=22, groups=(6,))
        picked = {}
        for split in ("train", "test"):
            config = ExperimentConfig(benchmarks="toy", out_dir="out", split=split,
                                      validate_phase_transition=False, base_dir=tmp_path)
            plan, instances = config.build_plan()
            assert instances == plan.instances
            assert {entry["split"] for entry in manifest(instances)} == {split}
            picked[split] = {inst.instance_id for inst in instances}
        assert (len(picked["train"]), len(picked["test"])) == (20, 2)
        assert not picked["train"] & picked["test"]
