"""CNF formulas, assignments, and incremental evaluation under single-variable flips."""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain


class DimacsError(ValueError):
    """Raised when a DIMACS CNF document is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CnfFormula:
    """Immutable k-CNF instance.

    Variables are 1-indexed in clauses (DIMACS convention): literal +v means
    variable v, -v its negation.  A clause may not repeat a literal: gains
    are counted per occurrence, so flipping x in (x or x) would read as
    gain 0 though it breaks the clause, and Flip would never stop.  A clause
    may hold both x and -x.
    """

    num_vars: int
    clauses: tuple
    source_id: str = ""

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be positive")
        if not self.clauses:
            raise ValueError("formula must have at least one clause")
        n = self.num_vars
        clauses = tuple(tuple(c) for c in self.clauses)
        for c in clauses:
            if not c:
                raise ValueError("empty clause")
            for lit in c:
                if lit == 0 or abs(lit) > n:
                    raise ValueError(f"literal {lit} out of range 1..{n}")
            if len(set(c)) != len(c):
                raise ValueError(f"clause {c} repeats a literal")
        object.__setattr__(self, "clauses", clauses)

    @property
    def num_clauses(self):
        return len(self.clauses)

    @cached_property
    def packed(self):
        """The C kernel's arrays: every clause's literals in one `array("i")`,
        and where each clause starts in it.  Built on first use and kept, so
        a formula's runs share them; equality and hashing ignore them."""
        return (array("i", chain.from_iterable(self.clauses)),
                array("i", accumulate(map(len, self.clauses), initial=0)))

    def digest(self):
        """Content digest of the formula (hex), independent of source_id."""
        h = hashlib.sha256()
        h.update(f"p cnf {self.num_vars} {self.num_clauses}\n".encode())
        for c in self.clauses:
            h.update(" ".join(map(str, c)).encode())
            h.update(b"\n")
        return h.hexdigest()


def parse_dimacs(text, source_id=""):
    """Parse a DIMACS CNF document into a CnfFormula.

    Accepts `c` comment lines, one `p cnf n m` header, and m zero-terminated
    clauses possibly spanning lines.  The SATLIB `%` footer and a trailing
    lone `0` are skipped.  Reads one token at a time, and raises DimacsError
    naming the line of the first fault.
    """
    num_vars = None
    num_clauses = None
    clauses = []
    current = []
    header_line = None
    ended = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            ended = True
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header {line!r}", lineno)
            try:
                num_vars = int(parts[2])
                num_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"malformed header {line!r}", lineno) from None
            if num_vars < 1 or num_clauses < 1:
                raise DimacsError("header counts must be positive", lineno)
            header_line = lineno
            continue
        if num_vars is None:
            raise DimacsError(f"clause data before header: {line!r}", lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"bad literal token {tok!r}", lineno) from None
            if lit == 0:
                if not current:
                    if ended or len(clauses) == num_clauses:
                        continue  # trailing lone 0 after the footer or full clause list
                    raise DimacsError("empty clause", lineno)
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise DimacsError(
                        f"literal {lit} out of range 1..{num_vars}", lineno
                    )
                if lit in current:
                    raise DimacsError(f"literal {lit} repeated in one clause", lineno)
                current.append(lit)

    if num_vars is None:
        raise DimacsError("missing `p cnf` header")
    if current:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"clause count mismatch: header declares {num_clauses}, found {len(clauses)}",
            header_line,
        )
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses), source_id=source_id)


def serialize_dimacs(formula):
    """Render a CnfFormula as DIMACS CNF text (round-trips through parse_dimacs)."""
    lines = []
    if formula.source_id:
        lines.append(f"c {formula.source_id}")
    lines.append(f"p cnf {formula.num_vars} {formula.num_clauses}")
    for c in formula.clauses:
        lines.append(" ".join(map(str, c)) + " 0")
    return "\n".join(lines) + "\n"


class EvalState:
    """Mutable evaluation cache for one assignment of one formula.

    Tracks per-clause satisfied-literal counts so the effect of flipping a
    single variable costs O(occurrences of the variable) instead of O(m).
    Single-owner: never share one instance across threads.
    """

    __slots__ = ("formula", "values", "sat_counts", "unsat_count", "_pos", "_neg")

    def __init__(self, formula, values):
        if len(values) != formula.num_vars:
            raise ValueError(
                f"assignment length {len(values)} != num_vars {formula.num_vars}"
            )
        self.formula = formula
        self.values = list(values)
        pos = [[] for _ in range(formula.num_vars + 1)]
        neg = [[] for _ in range(formula.num_vars + 1)]
        for ci, clause in enumerate(formula.clauses):
            for lit in clause:
                (pos if lit > 0 else neg)[abs(lit)].append(ci)
        self._pos, self._neg = pos, neg
        self._recount()

    def _recount(self):
        values = self.values
        sat_counts = []
        unsat = 0
        for clause in self.formula.clauses:
            cnt = 0
            for lit in clause:
                if values[lit - 1] if lit > 0 else not values[-lit - 1]:
                    cnt += 1
            sat_counts.append(cnt)
            if cnt == 0:
                unsat += 1
        self.sat_counts = sat_counts
        self.unsat_count = unsat

    def copy(self):
        """Cheap copy sharing the immutable occurrence index."""
        clone = object.__new__(EvalState)
        clone.formula = self.formula
        clone.values = self.values.copy()
        clone.sat_counts = self.sat_counts.copy()
        clone.unsat_count = self.unsat_count
        clone._pos = self._pos
        clone._neg = self._neg
        return clone

    def unsat_fraction(self):
        """Ratio of unsatisfied clauses to total clauses; 0 iff satisfied."""
        return self.unsat_count / self.formula.num_clauses

    def _check_var(self, var):
        if not 1 <= var <= self.formula.num_vars:
            raise ValueError(f"variable {var} out of range 1..{self.formula.num_vars}")

    def flip_gain(self, var):
        """Unsat-count decrease from flipping `var`; positive means improvement.

        Does not modify the state.
        """
        self._check_var(var)
        sat_counts = self.sat_counts
        if self.values[var - 1]:
            true_occ, false_occ = self._pos[var], self._neg[var]
        else:
            true_occ, false_occ = self._neg[var], self._pos[var]
        gain = 0
        for ci in false_occ:
            if sat_counts[ci] == 0:
                gain += 1
        for ci in true_occ:
            if sat_counts[ci] == 1:
                gain -= 1
        return gain

    def apply_flip(self, var):
        """Toggle `var` and update the cached counts incrementally."""
        self._check_var(var)
        sat_counts = self.sat_counts
        if self.values[var - 1]:
            true_occ, false_occ = self._pos[var], self._neg[var]
        else:
            true_occ, false_occ = self._neg[var], self._pos[var]
        unsat = self.unsat_count
        for ci in true_occ:
            c = sat_counts[ci] - 1
            sat_counts[ci] = c
            if c == 0:
                unsat += 1
        for ci in false_occ:
            c = sat_counts[ci] + 1
            sat_counts[ci] = c
            if c == 1:
                unsat -= 1
        self.unsat_count = unsat
        self.values[var - 1] ^= 1


def random_assignment(num_vars, rng):
    """Uniform random bit vector; one rng draw per variable, in index order."""
    return [rng.randrange(2) for _ in range(num_vars)]


def random_3cnf(n, m, rng, source_id="random"):
    """Uniform random 3-CNF: three distinct variables per clause, random signs."""
    clauses = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return CnfFormula(num_vars=n, clauses=tuple(clauses), source_id=source_id)
