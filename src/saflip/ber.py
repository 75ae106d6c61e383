"""Benefit/equivalence/risk statistics over paired result matrices.

Two algorithms are compared run-against-run within each instance: entry
[i, j] of one matrix is compared with entry [i, k] of the other for all j, k,
and a score difference smaller than the threshold `delta` counts as
equivalence.  All counting is done in exact integers; division happens once
at report time.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path


def group_rows(group_keys):
    """(label, row indices) for each group key in increasing order, then
    ("overall", every row)."""
    groups = [
        (str(g), [i for i, key in enumerate(group_keys) if key == g])
        for g in sorted(set(group_keys))
    ]
    return groups + [("overall", list(range(len(group_keys))))]


@dataclass
class ResultMatrix:
    """l x n matrix of performance scores with instance and seed provenance;
    column j holds run `run_indices[j]` of the plan (default: run j).  A
    group key is the instance's variable count, an int >= 0, as
    `read_result_csv` reads it back."""

    instance_ids: list
    group_keys: list
    seeds: list
    scores: list
    algorithm_label: str = ""
    run_indices: list = None

    def __post_init__(self):
        l = len(self.instance_ids)
        if l < 1:
            raise ValueError("matrix needs at least one instance row")
        if len(self.group_keys) != l or len(self.seeds) != l or len(self.scores) != l:
            raise ValueError("per-instance field lengths disagree")
        for key in self.group_keys:
            if not (type(key) is int and key >= 0):  # bools too are refused
                raise ValueError(f"group key {key!r} is not a variable count")
        n = len(self.scores[0])
        if n < 1:
            raise ValueError("matrix needs at least one run column")
        for row_s, row_y in zip(self.seeds, self.scores):
            if len(row_s) != n or len(row_y) != n:
                raise ValueError("ragged matrix rows")
            for y in row_y:
                if not 0.0 <= y <= 1.0:
                    raise ValueError(f"score {y} outside [0, 1]")
        if self.run_indices is None:
            self.run_indices = list(range(n))
        if len(self.run_indices) != n:
            raise ValueError(f"{len(self.run_indices)} run indices for {n} run columns")

    @property
    def num_runs(self):
        return len(self.scores[0])


def check_paired(a, b):
    """Raise ValueError unless the matrices share instances, runs and seeds."""
    if a.instance_ids != b.instance_ids:
        raise ValueError("instance id lists differ")
    if a.num_runs != b.num_runs:
        raise ValueError(f"run counts differ: {a.num_runs} vs {b.num_runs}")
    if a.run_indices != b.run_indices:
        raise ValueError(f"run indices differ: {a.run_indices} vs {b.run_indices}")
    if a.seeds != b.seeds:
        raise ValueError("seed matrices differ elementwise")
    if a.group_keys != b.group_keys:
        raise ValueError("instance group keys differ")


@dataclass(frozen=True)
class BerReport:
    """The b and r counts of one group's `comparisons` ordered run pairs at
    `delta`; e counts the rest, and b, e and r are the counts' fractions."""

    group: str
    delta: float
    b_count: int
    r_count: int
    comparisons: int

    @property
    def e_count(self):
        return self.comparisons - self.b_count - self.r_count

    @property
    def b(self):
        return self.b_count / self.comparisons

    @property
    def e(self):
        return self.e_count / self.comparisons

    @property
    def r(self):
        return self.r_count / self.comparisons

    def as_dict(self):
        return {name: getattr(self, name) for name in BER_COLUMNS}


# The fields of one BerReport in `summary.json` and the columns of its
# `ber_<delta_key>.csv` table.
BER_COLUMNS = ("group", "delta", "b", "e", "r", "comparisons")


def _count_rows(ym_rows, y0_rows, delta):
    """Integer (b, r) counts over all within-row ordered pairs (y, z): b counts
    y < z - delta and r counts y > z + delta.  Each bound is one float
    subtraction or addition, so sorting the bounds and bisecting for each y
    counts exactly the pairs a pairwise comparison would."""
    delta = float(delta)
    b_count = 0
    r_count = 0
    for ym_row, y0_row in zip(ym_rows, y0_rows):
        z = [float(v) for v in y0_row]
        lo = sorted(v - delta for v in z)
        hi = sorted(v + delta for v in z)
        for y in map(float, ym_row):
            b_count += len(lo) - bisect_right(lo, y)
            r_count += bisect_left(hi, y)
    return b_count, r_count


def delta_key(delta):
    """delta to 4 decimals: the key of its BER table in `summary.json` and
    in the table's file name, `ber_<key>.csv`."""
    return f"{delta:.4f}"


def check_deltas(deltas):
    """The deltas as a tuple of floats; raises ValueError unless each is
    finite and >= 0, or when two share a `delta_key`, since one's table
    would overwrite the other's."""
    first = {}
    for delta in map(float, deltas):
        if not (math.isfinite(delta) and delta >= 0):
            raise ValueError(f"delta must be finite and >= 0, got {delta}")
        key = delta_key(delta)
        if key in first:
            raise ValueError(f"deltas {first[key]!r} and {delta!r} both write ber_{key}.csv")
        first[key] = delta
    return tuple(first.values())


def ber_grouped(ym, y0, delta):
    """One BerReport per distinct group key (sorted), then the "overall" one.

    Each counts every within-instance ordered run pair of its rows: b the
    pairs where the first algorithm's score beats the second's by more than
    delta, r the converse, and e the remainder, so boundary ties land in e
    and the three counts over l rows of n runs sum to l*n^2 exactly.
    """
    check_deltas((delta,))
    check_paired(ym, y0)
    return [
        BerReport(
            label,
            delta,
            *_count_rows([ym.scores[i] for i in idx], [y0.scores[i] for i in idx], delta),
            comparisons=len(idx) * ym.num_runs**2,
        )
        for label, idx in group_rows(ym.group_keys)
    ]


# ---------------------------------------------------------------------------
# Persistence

CSV_COLUMNS = ["instance_id", "group", "seed", "run_index", "algorithm", "y"]


def write_result_csv(matrix, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for iid, group, seeds, scores in zip(
            matrix.instance_ids, matrix.group_keys, matrix.seeds, matrix.scores
        ):
            for j, seed, y in zip(matrix.run_indices, seeds, scores):
                writer.writerow([iid, group, seed, j, matrix.algorithm_label, repr(y)])


def read_result_csv(path):
    """The ResultMatrix in a CSV written by `write_result_csv`; raises
    ValueError, naming the line where it can, on any malformed file."""
    rows = {}  # instance id: (its variable count, {run index: (seed, y)})
    label = None  # the first row's; every row must carry it
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            # A bad header is refused after the try, so its message names no line.
            for fields in reader if header == CSV_COLUMNS else ():
                if not fields:
                    continue
                if len(fields) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(fields)}")
                iid, group, seed, run_index, algo, y = fields
                label = algo if label is None else label
                if algo != label:
                    raise ValueError(f"algorithm {algo!r}, but {label!r} in an earlier row")
                if not (group.isdecimal() and group == str(int(group))):
                    raise ValueError(f"group {group!r} is not a variable count")
                first_group, cells = rows.setdefault(iid, (int(group), {}))
                if int(group) != first_group:
                    raise ValueError(f"instance {iid!r} in group {group}, but {first_group} "
                                     "in an earlier row")
                j, cell = int(run_index), (int(seed), float(y))
                if not 0.0 <= cell[1] <= 1.0:
                    raise ValueError(f"score {cell[1]} outside [0, 1]")
                if j in cells:
                    raise ValueError(f"duplicate run {j} of instance {iid!r}")
                cells[j] = cell
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if header != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected columns {header}")
    if not rows:
        raise ValueError(f"{path}: no result rows")
    run_indices = {iid: sorted(cells) for iid, (_, cells) in rows.items()}
    first = next(iter(run_indices))
    for iid, indices in run_indices.items():
        if indices != run_indices[first]:
            raise ValueError(f"{path}: instance {iid!r} has runs {indices}, but instance "
                             f"{first!r} has runs {run_indices[first]}")
    runs = [[cells[j] for j in run_indices[first]] for _, cells in rows.values()]
    return ResultMatrix(
        instance_ids=list(rows),
        group_keys=[group for group, _ in rows.values()],
        seeds=[[seed for seed, _ in row] for row in runs],
        scores=[[y for _, y in row] for row in runs],
        algorithm_label=label,
        run_indices=run_indices[first],
    )


def write_ber_tables(tables, out_dir):
    """Write each {delta: reports} table of `ber_grouped` under out_dir as
    `ber_<delta_key>.csv`; return {"ber_<delta_key>": path}, in order."""
    paths = {}
    for delta, reports in tables.items():
        name = f"ber_{delta_key(delta)}"
        path = Path(out_dir) / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(BER_COLUMNS)
            writer.writerows(rep.as_dict().values() for rep in reports)
        paths[name] = str(path)
    return paths

