"""Experiment orchestration: benchmark ingest, train/test splits, paired-seed
run grids, execution with a resumable journal, and summary reports."""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import marshal
import random
from dataclasses import dataclass, field
from pathlib import Path

from . import _kernel, cnf
from .annealing import SolverParams, run_sa_flip
from .ber import (
    ResultMatrix,
    ber_grouped,
    check_deltas,
    delta_key,
    group_rows,
    write_ber_tables,
)
from .cnf import CnfFormula, DimacsError, parse_dimacs
from .placebo import run_placebo_flip

ALGORITHMS = {"sa": run_sa_flip, "placebo": run_placebo_flip}

# What `ingest_benchmarks` reads: a path given directly, or a file under a
# directory given.
SOURCE_SUFFIXES = (".tar.gz", ".tgz", ".tar", ".cnf.gz", ".cnf")
PHASE_TRANSITION_RATIO = (4.0, 4.5)
DEFAULT_DELTAS = (0.0, 0.01, 0.02)
DEFAULT_RUNS_PER_INSTANCE = 30
TRAIN_PER_GROUP = 20


@dataclass
class BenchmarkInstance:
    formula: CnfFormula
    origin: str
    digest: str
    split: str = ""  # "", "train", or "test"

    @property
    def instance_id(self):
        return self.formula.source_id

    @property
    def group(self):
        """The instance's group: its number of variables."""
        return self.formula.num_vars


def manifest(instances):
    """One JSON-ready entry per instance: the content of `manifest.json`."""
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
        for inst in instances
    ]


def _validate_phase_transition(formula, origin):
    lo, hi = PHASE_TRANSITION_RATIO
    if any(len(c) != 3 for c in formula.clauses):
        raise ValueError(f"{origin}: not a 3-CNF formula")
    ratio = formula.num_clauses / formula.num_vars
    if not lo <= ratio <= hi:
        raise ValueError(
            f"{origin}: clause/variable ratio {ratio:.3f} outside [{lo}, {hi}]"
        )


def _iter_cnf_texts(source):
    """Yield (name, text) for every .cnf found under a path: plain files,
    directories, .tar(.gz) archives, and lone .gz files."""
    path = Path(source)
    if path.is_dir():
        for child in sorted(path.rglob("*")):
            if child.is_file() and child.name.endswith(SOURCE_SUFFIXES):
                yield from _iter_cnf_texts(child)
        return
    if not path.is_file():
        raise ValueError(f"unreadable benchmark source: {source}")
    name = path.name
    if not name.endswith(SOURCE_SUFFIXES):
        raise ValueError(f"unsupported benchmark source: {source}")
    # tarfile and gzip are imported only where an archive is read: a plain
    # .cnf needs neither, and `import saflip.cli` stays lighter without them.
    errors = (UnicodeDecodeError, EOFError, OSError)
    try:
        if name.endswith((".tar.gz", ".tgz", ".tar")):
            import tarfile

            errors += (tarfile.TarError,)
            with tarfile.open(path) as tar:
                for member in sorted(tar.getmembers(), key=lambda m: m.name):
                    if member.isfile() and member.name.endswith(".cnf"):
                        yield Path(member.name).name, tar.extractfile(member).read().decode()
        elif name.endswith(".cnf.gz"):
            import gzip

            yield name[: -len(".gz")], gzip.decompress(path.read_bytes()).decode()
        else:
            yield name, path.read_text()
    except errors as exc:
        raise ValueError(f"{source}: {exc}") from exc


@functools.cache
def _parser_version():
    """Short sha256 of the parser's source: what a cached parse depends on
    besides the text (marshal's format does not change between Pythons)."""
    return hashlib.sha256(Path(cnf.__file__).read_bytes()).hexdigest()[:16]


def _parse(name, text, instance_id):
    """(formula, content digest, whether a cache entry was written) of the
    DIMACS `text` of file `name`.

    Each parse is cached by content in `_kernel.CACHE_DIR` as
    `_dimacs.<parser version>.<key>.marshal`, holding (num_vars, clauses,
    digest); the key is a sha256 of the parser version and the text.  A hit
    skips the parse and the digest, and `CnfFormula` still checks every
    literal.  An entry that does not load is parsed again and rewritten;
    where the cache cannot be written, the parse is not kept.
    """
    version = _parser_version()
    key = hashlib.sha256(f"{version}\n{text}".encode()).hexdigest()[:32]
    entry = _kernel.CACHE_DIR / f"_dimacs.{version}.{key}.marshal"
    try:
        num_vars, clauses, digest = marshal.loads(entry.read_bytes())
        return CnfFormula(num_vars, clauses, instance_id), digest, False
    except (OSError, EOFError, ValueError, TypeError):
        pass  # no entry yet, or an unreadable one: parse again
    try:
        formula = parse_dimacs(text, source_id=instance_id)
    except DimacsError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    digest = formula.digest()
    data = marshal.dumps((formula.num_vars, formula.clauses, digest))
    try:
        wrote = _kernel.publish(entry, lambda tmp: Path(tmp).write_bytes(data))
    except OSError:
        wrote = False
    return formula, digest, wrote


def ingest_benchmarks(sources, validate_phase_transition=True):
    """Parse and validate DIMACS files from one or more sources; each
    file's parse is cached by content (see `_parse`).

    Returns the instances as a list sorted by group (variable count), then
    by filename, deduplicated by content digest; an empty result is an error.
    """
    if isinstance(sources, (str, Path)):
        sources = [sources]
    digests, ids = set(), set()
    collected = []
    wrote_any = False
    for source in sources:
        for name, text in _iter_cnf_texts(source):
            instance_id = name[: -len(".cnf")] if name.endswith(".cnf") else name
            formula, digest, wrote = _parse(name, text, instance_id)
            wrote_any |= wrote
            if validate_phase_transition:
                _validate_phase_transition(formula, name)
            if digest in digests:
                continue
            if instance_id in ids:
                raise ValueError(f"duplicate instance id {instance_id!r}")
            digests.add(digest)
            ids.add(instance_id)
            collected.append(
                BenchmarkInstance(formula=formula, origin=str(source), digest=digest)
            )
    if wrote_any:  # once per call: a scan per entry would be quadratic
        _kernel.prune("_dimacs.*.marshal", f"_dimacs.{_parser_version()}.")
    if not collected:
        raise ValueError(f"no .cnf instances found in {sources}")
    collected.sort(key=lambda inst: (inst.group, inst.instance_id))
    return collected


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

    def seed_matrix(self):
        """l x n matrix of run seeds, identical for both algorithms."""
        return [
            [
                derive_seed(self.master_seed, inst.digest, self.first_run + j)
                for j in range(self.n_runs)
            ]
            for inst in self.instances
        ]


def _run_cell(cell):
    """The journal record of one (algorithm, instance, run) cell: its result,
    or the error that failed it.  The solver is looked up when the cell runs,
    so a replaced ALGORITHMS entry reaches every cell."""
    algo, instance_id, run_index, formula, params = cell
    rec = {"algorithm": algo, "instance_id": instance_id, "run_index": run_index,
           "seed": params.seed}
    try:
        outcome = ALGORITHMS[algo](formula, params)
        _check_outcome(formula, outcome)
    except Exception as exc:  # cell failures must not kill the experiment
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec.update(y=outcome.best_score, flip_calls=outcome.flip_calls,
               iterations=outcome.iterations_completed, solved=outcome.solved,
               wall_time=outcome.wall_time,
               min_evaluated_score=outcome.min_evaluated_score)
    return rec


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
    unsat = sum(map(true.isdisjoint, formula.clauses))
    if unsat / formula.num_clauses != outcome.best_score:
        raise ValueError(
            f"best_score {outcome.best_score!r} but the best assignment leaves "
            f"{unsat} of {formula.num_clauses} clauses unsatisfied"
        )


def check_algorithms(names):
    """`names` as a tuple; raises ValueError on an unknown or repeated name."""
    if not set(names) <= ALGORITHMS.keys() or len(set(names)) < len(names):
        raise ValueError(f"algorithms must be distinct names out of "
                         f"{sorted(ALGORITHMS)}, got {list(names)}")
    return tuple(names)


def _key(rec):
    return rec["algorithm"], rec["instance_id"], rec["run_index"]


def _records(cells, jobs):
    """The record of each cell, in order; `jobs` > 1 runs them on that many
    threads, or on one per cell where there are fewer cells.  The kernel
    call releases the GIL, so the threads' runs go on side by side."""
    if jobs > 1 and cells:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            yield from pool.map(_run_cell, cells)
    else:
        yield from map(_run_cell, cells)


def execute(plan, algorithms=("sa", "placebo"), jobs=1, journal_path=None,
            progress=None):
    """Run every (instance, seed, algorithm) cell of the plan; return the
    score matrix of each algorithm and the failed (instance, run) cells.

    Each cell yields one record (algorithm, instance, run index, seed, then
    the outcome or an error), the same for every `jobs` value.  Records are
    appended to the journal (a JSONL file) as they arrive and handed to
    `progress(rec, position, total)`, where position counts the plan's cells
    done so far, this one included; cells already in the journal are
    skipped, which makes an interrupted experiment resumable and lets the
    seed pairing be audited.  A journaled cell of the plan whose seed is not
    the one the plan derives for it (another master seed, or changed
    instance content) raises ValueError before any cell runs.
    A failed cell of the plan, under any algorithm in the journal, removes
    its run column from the matrices of every algorithm, so they stay
    rectangular and paired; each matrix's `run_indices` name the plan runs
    of the columns that stay.
    """
    algorithms = check_algorithms(algorithms)
    done = {}
    if journal_path and Path(journal_path).exists():
        done = {_key(rec): rec for rec in _read_journal(Path(journal_path))}

    seeds = plan.seed_matrix()
    rows = {inst.instance_id: row for inst, row in zip(plan.instances, seeds)}
    for (algo, iid, j), rec in done.items():
        if iid in rows and j < plan.n_runs and rec["seed"] != rows[iid][j]:
            raise ValueError(
                f"journal cell ({algo}, {iid}, run {j}) has seed {rec['seed']}, "
                f"but this plan derives seed {rows[iid][j]} for it"
            )
    cells = [
        (algo, inst.instance_id, j, inst.formula,
         dataclasses.replace(plan.params, seed=seeds[i][j]))
        for i, inst in enumerate(plan.instances)
        for j in range(plan.n_runs)
        for algo in algorithms
        if (algo, inst.instance_id, j) not in done
    ]
    # Load the C kernel once, before the first cell: a failed build raises
    # here instead of failing every cell, and the threads of `jobs` > 1
    # share the loaded library instead of racing to compile it.
    _kernel.load()
    total = len(plan.instances) * plan.n_runs * len(algorithms)
    sink = open(journal_path, "a") if journal_path else contextlib.nullcontext()
    with sink as journal:
        for position, rec in enumerate(_records(cells, jobs), total - len(cells) + 1):
            done[_key(rec)] = rec
            if journal:
                journal.write(json.dumps(rec) + "\n")
                journal.flush()
            if progress:
                progress(rec, position, total)

    ids = {inst.instance_id for inst in plan.instances}
    failed = sorted({(iid, j) for (_, iid, j), rec in done.items()
                     if "error" in rec and iid in ids and j < plan.n_runs})
    failed_cols = {j for _, j in failed}
    kept_cols = [j for j in range(plan.n_runs) if j not in failed_cols]
    if not kept_cols:
        raise RuntimeError("every run column contains a failed cell")

    def column(algo, name):
        return [[done[(algo, inst.instance_id, j)][name] for j in kept_cols]
                for inst in plan.instances]

    matrices = {
        algo: ResultMatrix(
            instance_ids=[inst.instance_id for inst in plan.instances],
            group_keys=[inst.group for inst in plan.instances],
            seeds=column(algo, "seed"),
            scores=column(algo, "y"),
            algorithm_label=algo,
            run_indices=kept_cols,
        )
        for algo in algorithms
    }
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


# The files a run derives from its journal: `results_<algorithm>.csv`, then
# what `summarize` (`report`) writes, of which `ber` writes the BER tables.  A
# run that does not resume removes them all first, and `report` and `ber`
# their own, so no file of an earlier call stands beside the new call's.
BER_TABLES = ("ber_*.csv",)
SUMMARY_FILES = ("summary.json", *BER_TABLES, "plots/ecdf_*", "plots/hist_*")
DERIVED_FILES = ("results_*.csv", *SUMMARY_FILES)


def remove_derived_files(out_dir, patterns=DERIVED_FILES):
    """Remove every match of `patterns` (`DERIVED_FILES` or a part) under out_dir."""
    for pattern in patterns:
        for path in Path(out_dir).glob(pattern):
            path.unlink()


def summarize(ym, y0, out_dir, deltas=DEFAULT_DELTAS):
    """Mean scores, success rates and BER tables per delta of a paired
    matrix pair, written under out_dir (summary.json, ber_<delta>.csv) with
    per-group distribution plots; returns the summary."""
    pair = ((ym.algorithm_label, ym), (y0.algorithm_label, y0))
    ber_tables = {delta: ber_grouped(ym, y0, delta) for delta in deltas}
    cells = {label: _group_cells(m) for label, m in pair}
    summary = {
        "algorithms": [label for label, _ in pair],
        "mean_y": {label: {group: sum(ys) / len(ys) for group, ys in by_group.items()}
                   for label, by_group in cells.items()},
        "success_rate": {label: {group: ys.count(0.0) / len(ys)
                                 for group, ys in by_group.items()}
                         for label, by_group in cells.items()},
        "ber": {delta_key(delta): [rep.as_dict() for rep in reports]
                for delta, reports in ber_tables.items()},
    }
    out_dir = Path(out_dir)
    (out_dir / "plots").mkdir(parents=True, exist_ok=True)
    write_ber_tables(ber_tables, out_dir)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    _write_plot_outputs(cells, out_dir / "plots")
    return summary


def _group_cells(matrix):
    """{group label: every score of the group's rows}, plus "overall"."""
    return {
        label: [y for i in idx for y in matrix.scores[i]]
        for label, idx in group_rows(matrix.group_keys)
    }


def _write_plot_outputs(cells, plot_dir):
    """ECDF and histogram plots per group of {label: `_group_cells` of its
    matrix}."""
    from . import plots  # here, not at the top: `tune`, `fetch` and `ber` draw none

    for group in next(iter(cells.values())):
        series = {label: by_group[group] for label, by_group in cells.items()}
        (plot_dir / f"ecdf_{group}.svg").write_text(
            plots.ecdf_svg(series, title=f"ECDF of scores ({group})")
        )
        (plot_dir / f"hist_{group}.svg").write_text(
            plots.histogram_svg(series, title=f"Score histogram ({group})")
        )
        with open(plot_dir / f"ecdf_{group}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "y", "cumulative_fraction"])
            for label, values in series.items():
                for x, f in plots.ecdf_points(values):
                    writer.writerow([label, repr(x), repr(f)])


# ---------------------------------------------------------------------------
# Experiment config file (JSON)


def _is_int(value):
    return type(value) is int  # not bool


def _list_of(ok):
    return lambda v: type(v) in (list, tuple) and all(map(ok, v))


@dataclass
class ExperimentConfig:
    """An experiment config; `__post_init__` checks the type and range of
    every value at once and converts it, resolving paths against `base_dir`."""

    benchmarks: list = None  # required: a path or a list of paths
    out_dir: str = None  # required
    master_seed: int = 0
    n_runs: int = DEFAULT_RUNS_PER_INSTANCE
    deltas: tuple = DEFAULT_DELTAS
    split: str = ""  # "", "train", or "test"; "" uses all instances
    groups: tuple = ()  # restrict to these n values; empty means all
    limit_per_group: int = 0  # 0 means no limit
    validate_phase_transition: bool = True
    params: SolverParams = field(default_factory=SolverParams)
    base_dir: dataclasses.InitVar[Path] = Path(".")

    def __post_init__(self, base_dir):
        missing = [key for key in ("benchmarks", "out_dir") if getattr(self, key) is None]
        errors = [f"missing required key {key!r}" for key in missing]
        if isinstance(self.benchmarks, str):
            self.benchmarks = [self.benchmarks]
        for key, ok, kind in (
            ("benchmarks", _list_of(lambda b: type(b) is str), "a path or a list of paths"),
            ("out_dir", lambda v: type(v) is str, "a path"),
            ("master_seed", _is_int, "an integer"),
            ("n_runs", lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
            ("deltas", _list_of(lambda d: type(d) in (int, float)), "a list of numbers"),
            ("split", lambda v: v in ("", "train", "test"), '"", "train" or "test"'),
            ("groups", _list_of(_is_int), "a list of integers"),
            ("limit_per_group", lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
            ("validate_phase_transition", lambda v: type(v) is bool, "true or false"),
            ("params", lambda v: type(v) in (dict, SolverParams), "an object"),
        ):
            value = getattr(self, key)
            if key not in missing and not ok(value):
                errors.append(f"{key} must be {kind}, got {value!r}")
            elif key == "deltas":  # numbers: now their values
                try:
                    self.deltas = check_deltas(value)
                except ValueError as exc:
                    errors.append(str(exc))
        if isinstance(self.params, dict):
            try:
                if "seed" in self.params:
                    raise ValueError("seed is derived per run")
                self.params = SolverParams(**self.params)
            except (TypeError, ValueError) as exc:
                errors.append(f"bad params: {exc}")
        if errors:
            raise ValueError("; ".join(errors))
        self.benchmarks = [str(base_dir / b) for b in self.benchmarks]
        self.out_dir = str(base_dir / self.out_dir)
        self.groups = tuple(self.groups)

    @classmethod
    def from_file(cls, path):
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"config {path} is not a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        errors = [f"unknown config key {key!r}" for key in doc if key not in known]
        try:
            config = cls(**{k: v for k, v in doc.items() if k in known},
                         base_dir=Path(path).parent)
        except ValueError as exc:
            errors.append(str(exc))
        if errors:
            raise ValueError("; ".join(errors))
        return config

    def build_plan(self):
        """(plan, its instances): of each group ingested from `benchmarks`
        (or of each in `groups`), the `split` side of a shuffle seeded by
        `master_seed` whose first TRAIN_PER_GROUP are "train", then up to
        `limit_per_group`, in ingest order."""
        instances = ingest_benchmarks(
            self.benchmarks, validate_phase_transition=self.validate_phase_transition
        )
        picked = []
        # Ingest sorts by (group, instance id), which groupby and the shuffle need.
        for group, members in itertools.groupby(instances, lambda inst: inst.group):
            if self.groups and group not in self.groups:
                continue
            members = list(members)
            if self.split:
                if len(members) < TRAIN_PER_GROUP:
                    raise ValueError(f"group n={group} has {len(members)} instances, "
                                     f"need >= {TRAIN_PER_GROUP} for the split")
                order = members.copy()
                random.Random(derive_seed(self.master_seed, f"split-n{group}", 0)).shuffle(order)
                for rank, inst in enumerate(order):
                    inst.split = "train" if rank < TRAIN_PER_GROUP else "test"
                members = [inst for inst in members if inst.split == self.split]
            picked += members[: self.limit_per_group or None]
        if not picked:
            raise ValueError("no instances left after filtering")
        return ExperimentPlan(
            instances=picked,
            n_runs=self.n_runs,
            master_seed=self.master_seed,
            deltas=self.deltas,
            params=self.params,
        ), picked
