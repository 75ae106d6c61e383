"""Experiment orchestration: benchmark ingest, train/test splits, paired-seed
run grids, execution with a resumable journal, and summary reports."""

from __future__ import annotations

import csv
import dataclasses
import gzip
import hashlib
import json
import random
import tarfile
from dataclasses import dataclass, field
from pathlib import Path

from . import _kernel, plots
from .annealing import SolverParams, run_sa_flip
from .ber import (
    ResultMatrix,
    ber_grouped,
    check_delta,
    group_rows,
    success_rate,
    write_ber_csv,
)
from .cnf import CnfFormula, parse_dimacs
from .placebo import run_placebo_flip

ALGORITHMS = {"sa": run_sa_flip, "placebo": run_placebo_flip}

PHASE_TRANSITION_RATIO = (4.0, 4.5)
DEFAULT_DELTAS = (0.0, 0.01, 0.02)
DEFAULT_RUNS_PER_INSTANCE = 30
TRAIN_PER_GROUP = 20


class BenchmarkError(ValueError):
    pass


@dataclass
class BenchmarkInstance:
    formula: CnfFormula
    group: int  # number of variables
    origin: str
    digest: str
    split: str = ""  # "", "train", or "test"

    @property
    def instance_id(self):
        return self.formula.source_id


@dataclass
class BenchmarkSet:
    instances: list

    def groups(self):
        return sorted({inst.group for inst in self.instances})

    def subset(self, split=None, groups=None, limit_per_group=None):
        picked = []
        per_group = {}
        for inst in self.instances:
            if split and inst.split != split:
                continue
            if groups and inst.group not in groups:
                continue
            count = per_group.get(inst.group, 0)
            if limit_per_group is not None and count >= limit_per_group:
                continue
            per_group[inst.group] = count + 1
            picked.append(inst)
        return BenchmarkSet(picked)

    def manifest(self):
        return [
            {
                "instance_id": inst.instance_id,
                "n": inst.formula.num_vars,
                "m": inst.formula.num_clauses,
                "group": inst.group,
                "digest": inst.digest,
                "origin": inst.origin,
                "split": inst.split,
            }
            for inst in self.instances
        ]


def _validate_phase_transition(formula, origin):
    lo, hi = PHASE_TRANSITION_RATIO
    if any(len(c) != 3 for c in formula.clauses):
        raise BenchmarkError(f"{origin}: not a 3-CNF formula")
    ratio = formula.num_clauses / formula.num_vars
    if not lo <= ratio <= hi:
        raise BenchmarkError(
            f"{origin}: clause/variable ratio {ratio:.3f} outside [{lo}, {hi}]"
        )


def _iter_cnf_texts(source):
    """Yield (name, text) for every .cnf found under a path: plain files,
    directories, .tar(.gz) archives, and lone .gz files."""
    path = Path(source)
    if path.is_dir():
        for child in sorted(path.rglob("*")):
            if child.is_file() and (
                child.suffix == ".cnf" or child.name.endswith((".tar.gz", ".tgz", ".tar"))
            ):
                yield from _iter_cnf_texts(child)
        return
    if not path.is_file():
        raise BenchmarkError(f"unreadable benchmark source: {source}")
    name = path.name
    if name.endswith((".tar.gz", ".tgz", ".tar")):
        with tarfile.open(path) as tar:
            for member in sorted(tar.getmembers(), key=lambda m: m.name):
                if member.isfile() and member.name.endswith(".cnf"):
                    yield Path(member.name).name, tar.extractfile(member).read().decode()
        return
    if name.endswith(".cnf.gz"):
        yield name[: -len(".gz")], gzip.decompress(path.read_bytes()).decode()
        return
    if name.endswith(".cnf"):
        yield name, path.read_text()
        return
    raise BenchmarkError(f"unsupported benchmark source: {source}")


def ingest_benchmarks(sources, validate_phase_transition=True, manifest_path=None):
    """Parse and validate DIMACS files from one or more sources.

    Instances are grouped by variable count, ordered by filename, and
    deduplicated by content digest; an empty result is an error.
    """
    if isinstance(sources, (str, Path)):
        sources = [sources]
    seen = {}
    collected = []
    for source in sources:
        for name, text in _iter_cnf_texts(source):
            instance_id = name[: -len(".cnf")] if name.endswith(".cnf") else name
            formula = parse_dimacs(text, source_id=instance_id)
            if validate_phase_transition:
                _validate_phase_transition(formula, name)
            digest = formula.digest()
            if digest in seen:
                continue
            if any(inst.instance_id == instance_id for inst in collected):
                raise BenchmarkError(f"duplicate instance id {instance_id!r}")
            seen[digest] = name
            collected.append(
                BenchmarkInstance(
                    formula=formula,
                    group=formula.num_vars,
                    origin=str(source),
                    digest=digest,
                )
            )
    if not collected:
        raise BenchmarkError(f"no .cnf instances found in {sources}")
    collected.sort(key=lambda inst: (inst.group, inst.instance_id))
    bset = BenchmarkSet(collected)
    if manifest_path:
        Path(manifest_path).write_text(json.dumps(bset.manifest(), indent=2) + "\n")
    return bset


def split_train_test(benchmarks, master_seed, train_per_group=TRAIN_PER_GROUP):
    """Seeded per-group shuffle; the first `train_per_group` instances of each
    group become the training set, the rest the test set."""
    for group in benchmarks.groups():
        members = [i for i in benchmarks.instances if i.group == group]
        if len(members) < train_per_group:
            raise BenchmarkError(
                f"group n={group} has {len(members)} instances, "
                f"need >= {train_per_group} for the split"
            )
        order = sorted(members, key=lambda i: i.instance_id)
        random.Random(derive_seed(master_seed, f"split-n{group}", 0)).shuffle(order)
        for rank, inst in enumerate(order):
            inst.split = "train" if rank < train_per_group else "test"
    return benchmarks


def derive_seed(master_seed, instance_digest, run_index):
    """64-bit run seed from (master seed, instance digest, run index) via
    blake2b; documented so a plan file alone reproduces every run."""
    h = hashlib.blake2b(
        f"{master_seed}:{instance_digest}:{run_index}".encode(), digest_size=8
    )
    return int.from_bytes(h.digest(), "big")


@dataclass
class ExperimentPlan:
    instances: list  # BenchmarkInstance
    n_runs: int = DEFAULT_RUNS_PER_INSTANCE
    master_seed: int = 0
    deltas: tuple = DEFAULT_DELTAS
    params: SolverParams = field(default_factory=SolverParams)
    # Run j of the plan uses run index first_run + j for its seed, so that
    # successive tuning evaluations can draw fresh seed blocks.
    first_run: int = 0

    def __post_init__(self):
        if not self.instances:
            raise ValueError("plan needs at least one instance")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        self.deltas = tuple(check_delta(d) for d in self.deltas)

    def seed_matrix(self):
        """l x n matrix of run seeds, identical for both algorithms."""
        return [
            [
                derive_seed(self.master_seed, inst.digest, self.first_run + j)
                for j in range(self.n_runs)
            ]
            for inst in self.instances
        ]


def _run_cell(args):
    algo, formula, params = args
    outcome = ALGORITHMS[algo](formula, params)
    _check_outcome(formula, outcome)
    return {
        "y": outcome.best_score,
        "flip_calls": outcome.flip_calls,
        "iterations": outcome.iterations_completed,
        "solved": outcome.solved,
        "wall_time": outcome.wall_time,
        "min_evaluated_score": outcome.min_evaluated_score,
    }


def _check_outcome(formula, outcome):
    """Recount the unsat clauses of the best assignment with a plain clause
    scan, independent of the solver's incremental counts, and raise if the
    reported score disagrees."""
    values = outcome.best_assignment
    if len(values) != formula.num_vars:
        raise ValueError(
            f"best assignment has {len(values)} values for {formula.num_vars} variables"
        )
    true = {i if b else -i for i, b in enumerate(values, 1)}
    unsat = sum(true.isdisjoint(c) for c in formula.clauses)
    if unsat / formula.num_clauses != outcome.best_score:
        raise ValueError(
            f"best_score {outcome.best_score!r} but the best assignment leaves "
            f"{unsat} of {formula.num_clauses} clauses unsatisfied"
        )


def execute(plan, algorithms=("sa", "placebo"), jobs=1, journal_path=None,
            progress=None):
    """Run every (instance, seed, algorithm) cell of the plan.

    Cells already present in the journal (a JSONL file) are skipped, making
    interrupted experiments resumable; the journal records the seed each
    algorithm consumed so pairing can be audited afterwards.  Failed cells
    are journaled with an error and excluded from the matrices of *both*
    algorithms with a warning.
    """
    for algo in algorithms:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    seeds = plan.seed_matrix()

    done = {}
    journal_file = None
    if journal_path:
        journal_path = Path(journal_path)
        if journal_path.exists():
            for rec in _read_journal(journal_path):
                done[(rec["algorithm"], rec["instance_id"], rec["run_index"])] = rec
        journal_file = open(journal_path, "a")

    pending = []
    for i, inst in enumerate(plan.instances):
        for j in range(plan.n_runs):
            for algo in algorithms:
                key = (algo, inst.instance_id, j)
                if key in done:
                    continue
                params = dataclasses.replace(plan.params, seed=seeds[i][j])
                pending.append((key, (algo, inst.formula, params)))

    def record(key, result):
        algo, instance_id, j = key
        rec = {"algorithm": algo, "instance_id": instance_id, "run_index": j,
               "seed": result["seed"], **{k: v for k, v in result.items() if k != "seed"}}
        done[key] = rec
        if journal_file:
            journal_file.write(json.dumps(rec) + "\n")
            journal_file.flush()
        if progress:
            progress(rec)

    try:
        if jobs > 1 and pending:
            from concurrent.futures import ProcessPoolExecutor

            # Load the C kernel once, here: forked workers inherit the
            # loaded library instead of racing to compile it on a cold cache.
            _kernel.load()
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for (key, job), result in zip(
                    pending, pool.map(_run_cell_safe, [job for _, job in pending])
                ):
                    result["seed"] = job[2].seed
                    record(key, result)
        else:
            for key, job in pending:
                result = _run_cell_safe(job)
                result["seed"] = job[2].seed
                record(key, result)
    finally:
        if journal_file:
            journal_file.close()

    failed = sorted(
        {(iid, j) for (_, iid, j), rec in done.items() if "error" in rec}
    )
    # Keep the matrices rectangular: a failed cell removes that run column
    # for every instance and both algorithms.
    failed_cols = {j for _, j in failed}
    kept_cols = [j for j in range(plan.n_runs) if j not in failed_cols]
    if not kept_cols:
        raise RuntimeError("every run column contains a failed cell")
    matrices = {}
    for algo in algorithms:
        scores, row_seeds = [], []
        for i, inst in enumerate(plan.instances):
            scores.append(
                [done[(algo, inst.instance_id, j)]["y"] for j in kept_cols]
            )
            row_seeds.append(
                [done[(algo, inst.instance_id, j)]["seed"] for j in kept_cols]
            )
        matrices[algo] = ResultMatrix(
            instance_ids=[inst.instance_id for inst in plan.instances],
            group_keys=[inst.group for inst in plan.instances],
            seeds=row_seeds,
            scores=scores,
            algorithm_label=algo,
        )
    return matrices, failed


def _read_journal(path):
    """Records of a journal file.  A record is complete only with its
    newline; an unterminated last line (a crash mid-write) is cut off the
    file so its cell runs again.  A malformed complete line still raises."""
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    lines = data[:end].decode().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _run_cell_safe(job):
    try:
        return _run_cell(job)
    except Exception as exc:  # cell failures must not kill the experiment
        return {"error": f"{type(exc).__name__}: {exc}"}


def summarize(ym, y0, deltas=DEFAULT_DELTAS, out_dir=None, bins=20):
    """Mean scores, success rates, BER tables per delta, and distribution
    plot data for a paired matrix pair; optionally persisted under out_dir."""
    summary = {
        "algorithms": [ym.algorithm_label or "sa", y0.algorithm_label or "placebo"],
        "mean_y": {
            ym.algorithm_label or "sa": _group_means(ym),
            y0.algorithm_label or "placebo": _group_means(y0),
        },
        "success_rate": {
            ym.algorithm_label or "sa": success_rate(ym),
            y0.algorithm_label or "placebo": success_rate(y0),
        },
        "ber": {},
    }
    ber_tables = {}
    for delta in deltas:
        reports = ber_grouped(ym, y0, delta)
        ber_tables[delta] = reports
        summary["ber"][f"{delta:.4f}"] = [rep.as_dict() for rep in reports]

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "plots").mkdir(exist_ok=True)
        for delta, reports in ber_tables.items():
            write_ber_csv(reports, out_dir / f"ber_{delta:.4f}.csv")
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        _write_plot_outputs(ym, y0, out_dir, bins)
    return summary


def _group_cells(matrix):
    """{group label: every score of the group's rows}, plus "overall"."""
    return {
        label: [y for i in idx for y in matrix.scores[i]]
        for label, idx in group_rows(matrix.group_keys)
    }


def _group_means(matrix):
    return {
        label: sum(cells) / len(cells) for label, cells in _group_cells(matrix).items()
    }


def _write_plot_outputs(ym, y0, out_dir, bins):
    plot_dir = Path(out_dir) / "plots"
    labels = (ym.algorithm_label or "sa", y0.algorithm_label or "placebo")
    cells = [_group_cells(ym), _group_cells(y0)]
    for group in cells[0]:
        series = {label: by_group[group] for label, by_group in zip(labels, cells)}
        tag = group.replace(" ", "_")
        (plot_dir / f"ecdf_{tag}.svg").write_text(
            plots.ecdf_svg(series, title=f"ECDF of scores ({group})")
        )
        (plot_dir / f"hist_{tag}.svg").write_text(
            plots.histogram_svg(series, bins=bins, title=f"Score histogram ({group})")
        )
        with open(plot_dir / f"ecdf_{tag}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "y", "cumulative_fraction"])
            for label, values in series.items():
                for x, f in plots.ecdf_points(values):
                    writer.writerow([label, repr(x), repr(f)])


# ---------------------------------------------------------------------------
# Experiment config file (JSON)


@dataclass
class ExperimentConfig:
    benchmarks: list
    out_dir: str
    master_seed: int = 0
    n_runs: int = DEFAULT_RUNS_PER_INSTANCE
    deltas: tuple = DEFAULT_DELTAS
    split: str = ""  # "", "train", or "test"; "" uses all instances
    groups: tuple = ()  # restrict to these n values; empty means all
    limit_per_group: int = 0  # 0 means no limit
    validate_phase_transition: bool = True
    params: SolverParams = field(default_factory=SolverParams)

    @classmethod
    def from_file(cls, path):
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(doc, base_dir=Path(path).parent)

    @classmethod
    def from_dict(cls, doc, base_dir=Path(".")):
        errors = []
        known = {
            "benchmarks", "out_dir", "master_seed", "n_runs", "deltas", "split",
            "groups", "limit_per_group", "validate_phase_transition", "params",
        }
        for key in doc:
            if key not in known:
                errors.append(f"unknown config key {key!r}")
        if "benchmarks" not in doc:
            errors.append("missing required key 'benchmarks'")
        if "out_dir" not in doc:
            errors.append("missing required key 'out_dir'")
        params_doc = doc.get("params", {})
        try:
            if "seed" in params_doc:
                raise ValueError("seed is derived per run")
            params = SolverParams(**params_doc)
        except (TypeError, ValueError) as exc:
            errors.append(f"bad params: {exc}")
            params = SolverParams()
        if errors:
            raise ValueError("; ".join(errors))
        benchmarks = doc["benchmarks"]
        if isinstance(benchmarks, str):
            benchmarks = [benchmarks]
        return cls(
            benchmarks=[str((base_dir / b)) for b in benchmarks],
            out_dir=str(base_dir / doc["out_dir"]),
            master_seed=int(doc.get("master_seed", 0)),
            n_runs=int(doc.get("n_runs", DEFAULT_RUNS_PER_INSTANCE)),
            deltas=tuple(doc.get("deltas", DEFAULT_DELTAS)),
            split=doc.get("split", ""),
            groups=tuple(doc.get("groups", ())),
            limit_per_group=int(doc.get("limit_per_group", 0)),
            validate_phase_transition=bool(doc.get("validate_phase_transition", True)),
            params=params,
        )

    def build_plan(self):
        bset = ingest_benchmarks(
            self.benchmarks, validate_phase_transition=self.validate_phase_transition
        )
        if self.split:
            split_train_test(bset, self.master_seed)
        bset = bset.subset(
            split=self.split or None,
            groups=set(self.groups) or None,
            limit_per_group=self.limit_per_group or None,
        )
        if not bset.instances:
            raise BenchmarkError("no instances left after filtering")
        return ExperimentPlan(
            instances=bset.instances,
            n_runs=self.n_runs,
            master_seed=self.master_seed,
            deltas=self.deltas,
            params=self.params,
        ), bset
