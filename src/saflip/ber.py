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


class PairingError(ValueError):
    """The two result matrices do not describe the same paired experiment."""


def group_rows(group_keys):
    """(label, row indices) for each distinct group key, numerically sorted,
    then ("overall", every row)."""

    def order(g):
        try:
            return (0, float(g), "")
        except (TypeError, ValueError):
            return (1, 0.0, str(g))

    groups = [
        (str(g), [i for i, key in enumerate(group_keys) if key == g])
        for g in sorted(set(group_keys), key=order)
    ]
    return groups + [("overall", list(range(len(group_keys))))]


@dataclass
class ResultMatrix:
    """l x n matrix of performance scores with instance and seed provenance."""

    instance_ids: list
    group_keys: list
    seeds: list
    scores: list
    algorithm_label: str = ""

    def __post_init__(self):
        l = len(self.instance_ids)
        if l < 1:
            raise ValueError("matrix needs at least one instance row")
        if len(self.group_keys) != l or len(self.seeds) != l or len(self.scores) != l:
            raise ValueError("per-instance field lengths disagree")
        n = len(self.scores[0])
        if n < 1:
            raise ValueError("matrix needs at least one run column")
        for row_s, row_y in zip(self.seeds, self.scores):
            if len(row_s) != n or len(row_y) != n:
                raise ValueError("ragged matrix rows")
            for y in row_y:
                if not 0.0 <= y <= 1.0:
                    raise ValueError(f"score {y} outside [0, 1]")

    @property
    def num_runs(self):
        return len(self.scores[0])


def check_paired(a, b):
    """Raise PairingError unless the matrices share instances and seeds."""
    if a.instance_ids != b.instance_ids:
        raise PairingError("instance id lists differ")
    if a.num_runs != b.num_runs:
        raise PairingError(f"run counts differ: {a.num_runs} vs {b.num_runs}")
    if a.seeds != b.seeds:
        raise PairingError("seed matrices differ elementwise")
    if a.group_keys != b.group_keys:
        raise PairingError("instance group keys differ")


@dataclass(frozen=True)
class BerReport:
    delta: float
    b: float
    e: float
    r: float
    comparisons: int
    group: str = "overall"
    b_count: int = 0
    e_count: int = 0
    r_count: int = 0

    def as_dict(self):
        return {
            "group": self.group,
            "delta": self.delta,
            "b": self.b,
            "e": self.e,
            "r": self.r,
            "comparisons": self.comparisons,
        }


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


def _make_report(ym_rows, y0_rows, delta, group):
    b_count, r_count = _count_rows(ym_rows, y0_rows, delta)
    n = len(ym_rows[0])
    total = len(ym_rows) * n * n
    e_count = total - b_count - r_count
    return BerReport(
        delta=delta,
        b=b_count / total,
        e=e_count / total,
        r=r_count / total,
        comparisons=total,
        group=group,
        b_count=b_count,
        e_count=e_count,
        r_count=r_count,
    )


def check_delta(delta):
    """delta as a float; raises ValueError unless it is finite and >= 0."""
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta}")
    return delta


def delta_key(delta):
    """delta to 4 decimals: the key of its BER table in `summary.json` and
    in the table's file name, `ber_<key>.csv`."""
    return f"{delta:.4f}"


def check_deltas(deltas):
    """The deltas checked by `check_delta`, as a tuple; raises ValueError
    when two share a `delta_key`, since one's table would overwrite the
    other's."""
    checked = tuple(map(check_delta, deltas))
    first = {}
    for delta in checked:
        key = delta_key(delta)
        if key in first:
            raise ValueError(f"deltas {first[key]!r} and {delta!r} both write ber_{key}.csv")
        first[key] = delta
    return checked


def ber_pairwise(ym, y0, delta):
    """BER over all within-instance ordered run pairs of two paired matrices.

    b counts pairs where the first algorithm's score beats the second's by
    more than delta, r the converse, and e the remainder (so boundary ties
    land in e and the three counts sum to l*n^2 exactly).
    """
    check_delta(delta)
    check_paired(ym, y0)
    return _make_report(ym.scores, y0.scores, delta, "overall")


def ber_grouped(ym, y0, delta):
    """One BerReport per distinct group key (sorted) plus the overall one."""
    check_delta(delta)
    check_paired(ym, y0)
    return [
        _make_report(
            [ym.scores[i] for i in idx], [y0.scores[i] for i in idx], delta, label
        )
        for label, idx in group_rows(ym.group_keys)
    ]


def success_rate(matrix):
    """Fraction of runs with score exactly 0, per group key plus overall."""
    rates = {}
    for label, idx in group_rows(matrix.group_keys):
        cells = [y for i in idx for y in matrix.scores[i]]
        rates[label] = sum(1 for y in cells if y == 0.0) / len(cells)
    return rates


# ---------------------------------------------------------------------------
# Persistence

CSV_COLUMNS = ["instance_id", "group", "seed", "run_index", "algorithm", "y"]


def write_result_csv(matrix, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i, iid in enumerate(matrix.instance_ids):
            for j in range(matrix.num_runs):
                writer.writerow(
                    [
                        iid,
                        matrix.group_keys[i],
                        matrix.seeds[i][j],
                        j,
                        matrix.algorithm_label,
                        repr(matrix.scores[i][j]),
                    ]
                )


def read_result_csv(path):
    """The ResultMatrix in a CSV written by `write_result_csv`; raises
    ValueError, naming the line where it can, on any malformed file."""
    rows = {}
    order = []
    label = ""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise ValueError(f"{path}: unexpected columns {header}")
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(CSV_COLUMNS):
                    raise ValueError(
                        f"{path}: line {reader.line_num}: expected "
                        f"{len(CSV_COLUMNS)} fields, got {len(fields)}"
                    )
                iid, group, seed, run_index, label, y = fields
                if iid not in rows:
                    rows[iid] = {"group": group, "cells": {}}
                    order.append(iid)
                cells = rows[iid]["cells"]
                j = int(run_index)
                if j in cells:
                    raise ValueError(
                        f"{path}: line {reader.line_num}: duplicate run {j} "
                        f"of instance {iid!r}"
                    )
                cells[j] = (int(seed), float(y))
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    instance_ids, group_keys, seeds, scores = [], [], [], []
    for iid in order:
        cells = rows[iid]["cells"]
        group = rows[iid]["group"]
        instance_ids.append(iid)
        group_keys.append(int(group) if group.isdigit() else group)
        seeds.append([cells[j][0] for j in sorted(cells)])
        scores.append([cells[j][1] for j in sorted(cells)])
    return ResultMatrix(
        instance_ids=instance_ids,
        group_keys=group_keys,
        seeds=seeds,
        scores=scores,
        algorithm_label=label,
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
            writer.writerow(["group", "delta", "b", "e", "r", "comparisons"])
            for rep in reports:
                writer.writerow(
                    [rep.group, rep.delta, rep.b, rep.e, rep.r, rep.comparisons]
                )
        paths[name] = str(path)
    return paths

