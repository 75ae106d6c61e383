import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saflip.cnf import (
    CnfFormula,
    DimacsError,
    EvalState,
    parse_dimacs,
    serialize_dimacs,
)

from conftest import DATA_DIR, brute_force_unsat_count, random_3cnf


class TestParse:
    def test_basic(self):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 2 3 0\n")
        assert f.num_vars == 3
        assert f.clauses == ((1, 2, 3), (-1, 2, 3))

    def test_minimal(self):
        f = parse_dimacs("p cnf 1 1\n1 0\n")
        assert f.num_vars == 1
        assert f.clauses == ((1,),)

    def test_comments_and_multiline_clause(self):
        f = parse_dimacs("c hello\nc world\np cnf 4 2\n1 2\n-3 0\n4 -1 2 0\n")
        assert f.clauses == ((1, 2, -3), (4, -1, 2))

    def test_satlib_footer_tolerated(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n")
        assert f.num_clauses == 1

    def test_lone_zero_after_footer_of_short_file_is_not_a_clause(self):
        # The `0` after `%` is footer, so the fault is the short clause list
        # the header declares, not an empty clause on line 5.
        with pytest.raises(DimacsError) as info:
            parse_dimacs("p cnf 3 3\n1 0\n2 0\n%\n0\n")
        assert str(info.value) == "line 1: clause count mismatch: header declares 3, found 2"

    def test_fixture_uf50_shape(self):
        path = DATA_DIR / "genuf50-01.cnf"
        f = parse_dimacs(path.read_text(), source_id=path.stem)
        assert f.num_vars == 50
        assert f.num_clauses == 218
        assert all(len(c) == 3 for c in f.clauses)

    def test_missing_header(self):
        with pytest.raises(DimacsError, match="header"):
            parse_dimacs("1 2 0\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="line 1"):
            parse_dimacs("p cnf x y\n")

    def test_literal_out_of_range(self):
        with pytest.raises(DimacsError, match="line 2.*out of range"):
            parse_dimacs("p cnf 2 1\n1 3 0\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(DimacsError, match="mismatch"):
            parse_dimacs("p cnf 2 2\n1 2 0\n")

    def test_empty_clause(self):
        with pytest.raises(DimacsError, match="line 2.*empty clause"):
            parse_dimacs("p cnf 2 2\n0\n1 0\n")

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            f = random_3cnf(8, 30, rng, source_id="rt")
            assert parse_dimacs(serialize_dimacs(f), source_id="rt") == f


class TestFormulaInvariants:
    def test_rejects_no_variables(self):
        with pytest.raises(ValueError, match="num_vars must be positive"):
            CnfFormula(0, ((1,),))

    def test_rejects_no_clauses(self):
        with pytest.raises(ValueError, match="formula must have at least one clause"):
            CnfFormula(1, ())

    def test_rejects_empty_clause(self):
        with pytest.raises(ValueError):
            CnfFormula(num_vars=2, clauses=((1,), ()))

    def test_rejects_out_of_range_literal(self):
        with pytest.raises(ValueError):
            CnfFormula(num_vars=2, clauses=((1, -3),))

    def test_rejects_repeated_literal(self):
        # Flip would never stop on (x1 or x1): flipping x1 reads as gain 0.
        with pytest.raises(ValueError, match=r"clause \(1, 1, 2\) repeats a literal"):
            CnfFormula(2, ((1, 1, 2),))
        with pytest.raises(DimacsError, match="line 4: literal -2 repeated in one clause"):
            parse_dimacs("p cnf 2 2\n1 0\n-2 1\n-2 0\n")
        assert CnfFormula(2, ((1, -1, 2),)).clauses == ((1, -1, 2),)

    def test_digest_ignores_source_id(self):
        a = CnfFormula(2, ((1, 2),), source_id="a")
        b = CnfFormula(2, ((1, 2),), source_id="b")
        assert a.digest() == b.digest()


class TestEvalState:
    def test_unsat_fraction_satisfied(self, tiny_formula):
        assert EvalState(tiny_formula, [0, 1, 0]).unsat_fraction() == 0.0

    def test_unsat_fraction_half(self, tiny_formula):
        assert EvalState(tiny_formula, [1, 0, 0]).unsat_fraction() == 0.5

    def test_contradictory_unit_clauses(self):
        f = CnfFormula(1, ((1,), (-1,)))
        assert EvalState(f, [0]).unsat_fraction() == 0.5
        assert EvalState(f, [1]).unsat_fraction() == 0.5

    def test_flip_gain_improvement(self, tiny_formula):
        assert EvalState(tiny_formula, [0, 0, 0]).flip_gain(2) == 1

    def test_flip_gain_worsening(self, tiny_formula):
        assert EvalState(tiny_formula, [0, 1, 0]).flip_gain(2) == -1

    def test_flip_gain_does_not_mutate(self, tiny_formula):
        state = EvalState(tiny_formula, [0, 0, 0])
        state.flip_gain(2)
        assert state.values == [0, 0, 0]
        assert state.unsat_count == 1

    def test_apply_flip_involution(self, tiny_formula):
        state = EvalState(tiny_formula, [0, 0, 0])
        state.apply_flip(1)
        assert state.values == [1, 0, 0]
        state.apply_flip(1)
        assert state.values == [0, 0, 0]
        assert state.unsat_count == 1

    def test_var_out_of_range(self, tiny_formula):
        state = EvalState(tiny_formula, [0, 0, 0])
        with pytest.raises(ValueError):
            state.flip_gain(0)
        with pytest.raises(ValueError):
            state.apply_flip(4)

    def test_length_mismatch(self, tiny_formula):
        with pytest.raises(ValueError):
            EvalState(tiny_formula, [0, 0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_incremental_matches_oracle(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(3, 20))
    m = data.draw(st.integers(1, 90))
    f = random_3cnf(n, m, rng)
    values = [rng.randrange(2) for _ in range(n)]
    state = EvalState(f, values)
    assert state.unsat_count == brute_force_unsat_count(f, values)
    for _ in range(10):
        var = rng.randrange(n) + 1
        gain = state.flip_gain(var)
        before = state.unsat_count
        state.apply_flip(var)
        assert state.unsat_count == brute_force_unsat_count(f, state.values)
        assert gain == before - state.unsat_count
        assert gain == -state.flip_gain(var)
        assert 0.0 <= state.unsat_fraction() <= 1.0
        assert (state.unsat_fraction() == 0.0) == (
            brute_force_unsat_count(f, state.values) == 0
        )


DIMACS_PIECES = ("p", "cnf", "c", "%", "0", "1", "-1", "2", "-2", "3", "00", "+1", "1_0",
                 "1e3", "9" * 30, "-", "x", " ", " ", "\t", "\n", "\n", "\r\n", "\x0b")


def _dimacs(n, clauses, sep):
    """DIMACS text whose header matches its clauses; a literal may exceed n."""
    lines = [f"p cnf {n} {len(clauses)}", *(" ".join(map(str, c)) + " 0" for c in clauses)]
    return sep.join(lines) + sep


dimacs_like = st.one_of(
    st.text(),
    st.lists(st.sampled_from(DIMACS_PIECES), max_size=40).map("".join),
    st.builds(
        "p cnf {} {}\n{}".format,
        st.integers(1, 4), st.integers(1, 3),
        st.lists(st.sampled_from(DIMACS_PIECES) | st.integers(-4, 4).map(" {} ".format),
                 max_size=16).map("".join),
    ),
    st.builds(
        _dimacs, st.integers(1, 4),
        st.lists(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=3),
                 min_size=1, max_size=4),
        st.sampled_from(("\n", " \n", "\r\n", "\nc note\n", "\n%\n")),
    ),
)
def _satlib(header, n, clauses, sep, tail, extra=0):
    """A SATLIB-like text: a comment, the header (declaring `extra` clauses
    more than it has), one clause a line, a tail."""
    lines = ["c uf", f"{header} {n} {len(clauses) + extra}",
             *(" ".join(map(str, c)) + " 0" for c in clauses)]
    return sep.join(lines) + sep + tail


# The SATLIB layout and near misses of it.
SATLIB_HEADERS = ("p cnf", "p  cnf", "p dnf", "q cnf", "p")
SATLIB_SEPS = ("\n", " \n", "\r\n", "\n0\n", "\n\n", "\nc note\n", "\n%\n")
SATLIB_TAILS = ("", "%\n0\n", "%\n0\n\n", " % x\n", "%\n%\n0\n", "0\n", "0 0\n",
                "%\n1 0\n", "%\n0 0\n", "%\n1\n", "c end\n", "p cnf 1 1\n", "1\n",
                "2 0 1\n", "x\n")
satlib_like = st.builds(
    _satlib,
    st.sampled_from(SATLIB_HEADERS),
    st.integers(2, 4),
    st.lists(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), min_size=1, max_size=3,
                      unique=True), min_size=1, max_size=5),
    st.sampled_from(SATLIB_SEPS),
    st.sampled_from(SATLIB_TAILS),
    st.sampled_from((0, 0, 0, 1, -1)),
)


def _accepts_or_raises_dimacs_error(text):
    try:
        f = parse_dimacs(text)
    except DimacsError:
        return
    assert parse_dimacs(serialize_dimacs(f)) == f


@settings(max_examples=500, deadline=None)
@given(dimacs_like)
def test_parse_dimacs_accepts_or_raises_dimacs_error(text):
    _accepts_or_raises_dimacs_error(text)


@settings(max_examples=500, deadline=None)
@given(satlib_like)
def test_parse_dimacs_accepts_or_raises_on_satlib_like_text(text):
    _accepts_or_raises_dimacs_error(text)


def test_parse_dimacs_on_every_satlib_layout():
    for header, sep, tail, extra in itertools.product(SATLIB_HEADERS, SATLIB_SEPS,
                                                      SATLIB_TAILS, (0, 1, -1)):
        _accepts_or_raises_dimacs_error(
            _satlib(header, 3, [(1, -2, 3), (-1, 2)], sep, tail, extra))


def test_parse_dimacs_reads_the_fixtures_and_the_satlib_footer():
    for path in sorted(DATA_DIR.glob("*.cnf")):
        text = path.read_text()  # written by serialize_dimacs, one clause a line
        assert serialize_dimacs(parse_dimacs(text, path.stem)) == text
    text = "c uf3\np cnf 3 2\n 1 -2 3 0\n-1 2 -3 0\n%\n0\n\n"
    assert parse_dimacs(text, "") == CnfFormula(3, ((1, -2, 3), (-1, 2, -3)))
