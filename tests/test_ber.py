import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saflip.ber import (
    CSV_COLUMNS,
    ResultMatrix,
    _count_rows,
    ber_grouped,
    group_rows,
    read_result_csv,
    write_result_csv,
)

from conftest import run_python


def oracle_ber(ym_rows, y0_rows, delta):
    """Direct triple-loop enumeration of the three counts."""
    b = r = total = 0
    for ym_row, y0_row in zip(ym_rows, y0_rows):
        for yj in ym_row:
            for yk in y0_row:
                total += 1
                if yj < yk - delta:
                    b += 1
                elif yj > yk + delta:
                    r += 1
    return b, total - b - r, total


def make_matrix(scores, groups=None, label="algo", seed_base=0):
    l = len(scores)
    n = len(scores[0])
    return ResultMatrix(
        instance_ids=[f"inst{i}" for i in range(l)],
        group_keys=groups or [0] * l,
        seeds=[[seed_base + i * n + j for j in range(n)] for i in range(l)],
        scores=[list(row) for row in scores],
        algorithm_label=label,
    )


@pytest.mark.parametrize("fields, message", [
    ({"group_keys": ["a/b"]}, "group key 'a/b' is not a variable count"),
    ({"group_keys": ["50"]}, "group key '50' is not a variable count"),
    ({"group_keys": [50.0]}, "group key 50.0 is not a variable count"),
    ({"group_keys": [True]}, "group key True is not a variable count"),
    ({"group_keys": [-1]}, "group key -1 is not a variable count"),
    ({"instance_ids": [], "group_keys": [], "seeds": [], "scores": []},
     "matrix needs at least one instance row"),
    ({"group_keys": [50, 75]}, "per-instance field lengths disagree"),
    ({"seeds": [[]], "scores": [[]]}, "matrix needs at least one run column"),
    ({"instance_ids": ["a", "b"], "group_keys": [50, 50], "seeds": [[1, 2], [3]],
      "scores": [[0.0, 0.5], [0.25]]}, "ragged matrix rows"),
    ({"scores": [[0.0, 1.5]]}, "score 1.5 outside [0, 1]"),
    ({"run_indices": [0]}, "1 run indices for 2 run columns"),
], ids=["group_path", "group_str", "group_float", "group_bool", "group_negative", "no_rows",
        "lengths", "no_runs", "ragged", "score", "run_indices"])
def test_malformed_matrix_is_refused(fields, message):
    # A matrix `write_result_csv` writes must be one `read_result_csv` reads back.
    good = {"instance_ids": ["a"], "group_keys": [50], "seeds": [[1, 2]],
            "scores": [[0.0, 0.5]], "algorithm_label": "sa"}
    with pytest.raises(ValueError, match=re.escape(message)):
        ResultMatrix(**{**good, **fields})


def random_pair(rng, l=None, n=None, ties=True):
    l = l or rng.randint(1, 5)
    n = n or rng.randint(1, 6)
    pool = [round(rng.random(), 2) for _ in range(10)] if ties else None

    def cell():
        return rng.choice(pool) if pool else rng.random()

    ym = make_matrix([[cell() for _ in range(n)] for _ in range(l)], label="m")
    y0 = make_matrix([[cell() for _ in range(n)] for _ in range(l)], label="0")
    return ym, y0


class TestPairwise:
    def test_identical_matrices_are_symmetric(self):
        # Comparing a matrix against itself: the all-pairs count is
        # symmetric, so benefit and risk cancel exactly.
        m = make_matrix([[0.1, 0.2], [0.3, 0.4]])
        rep = ber_grouped(m, make_matrix([[0.1, 0.2], [0.3, 0.4]]), 0.0)[-1]
        assert rep.b == rep.r
        assert rep.b + rep.e + rep.r == pytest.approx(1.0)

    def test_identical_constant_matrices_are_degenerate(self):
        m = make_matrix([[0.0, 0.0], [0.0, 0.0]])
        rep = ber_grouped(m, make_matrix([[0.0, 0.0], [0.0, 0.0]]), 0.0)[-1]
        assert (rep.b, rep.e, rep.r) == (0.0, 1.0, 0.0)

    def test_enumerated_example_delta_zero(self):
        ym = make_matrix([[0.0, 0.2]])
        y0 = make_matrix([[0.1, 0.3]])
        rep = ber_grouped(ym, y0, 0.0)[-1]
        assert (rep.b, rep.e, rep.r) == (0.75, 0.0, 0.25)

    def test_enumerated_example_delta_band(self):
        ym = make_matrix([[0.0, 0.2]])
        y0 = make_matrix([[0.1, 0.3]])
        rep = ber_grouped(ym, y0, 0.15)[-1]
        assert (rep.b, rep.e, rep.r) == (0.25, 0.75, 0.0)

    def test_comparisons_within_rows_only(self):
        # Cross-instance pooling would see a benefit here; within-row does not.
        ym = make_matrix([[0.5], [0.0]])
        y0 = make_matrix([[0.5], [0.0]])
        rep = ber_grouped(ym, y0, 0.0)[-1]
        assert rep.e == 1.0
        assert rep.comparisons == 2

    def test_boundary_ties_land_in_e(self):
        rep = ber_grouped(make_matrix([[0.1]]), make_matrix([[0.2]]), 0.1)[-1]
        assert rep.e == 1.0

    def test_negative_delta_rejected(self):
        m = make_matrix([[0.1]])
        with pytest.raises(ValueError):
            ber_grouped(m, m, -0.1)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    @pytest.mark.parametrize("ber", [ber_grouped])
    def test_non_finite_delta_rejected(self, ber, delta):
        m = make_matrix([[0.1]])
        with pytest.raises(ValueError, match="finite and >= 0"):
            ber(m, m, delta)

    def test_unpaired_rejected(self):
        a = make_matrix([[0.1, 0.2]])
        b = make_matrix([[0.1, 0.2]], seed_base=5)
        with pytest.raises(ValueError, match="seed matrices differ elementwise"):
            ber_grouped(a, b, 0.0)
        c = make_matrix([[0.1, 0.2, 0.3]])
        with pytest.raises(ValueError, match="run counts differ: 2 vs 3"):
            ber_grouped(a, c, 0.0)

    def test_matches_oracle_randomized(self):
        rng = random.Random(8)
        for _ in range(300):
            ym, y0 = random_pair(rng)
            delta = rng.choice([0.0, 0.01, 0.1, rng.random() * 0.5])
            rep = ber_grouped(ym, y0, delta)[-1]
            b, e, total = oracle_ber(ym.scores, y0.scores, delta)
            assert (rep.b_count, rep.e_count) == (b, e)
            assert rep.b_count + rep.e_count + rep.r_count == total == rep.comparisons


class TestGrouped:
    def test_single_group_duplicates_overall(self):
        ym, y0 = random_pair(random.Random(1), l=3, n=4)
        reports = ber_grouped(ym, y0, 0.0)
        assert len(reports) == 2
        assert reports[0].b_count == reports[1].b_count
        assert reports[1].group == "overall"

    def test_partition_additivity(self):
        rng = random.Random(2)
        ym, y0 = random_pair(rng, l=6, n=3)
        ym.group_keys = y0.group_keys = [50, 50, 50, 75, 75, 75]
        reports = {rep.group: rep for rep in ber_grouped(ym, y0, 0.05)}
        for count in ("b_count", "e_count", "r_count"):
            assert getattr(reports["overall"], count) == getattr(
                reports["50"], count
            ) + getattr(reports["75"], count)

    def test_groups_sorted_numerically(self):
        ym, y0 = random_pair(random.Random(3), l=4, n=2)
        ym.group_keys = y0.group_keys = [125, 50, 100, 75]
        groups = [rep.group for rep in ber_grouped(ym, y0, 0.0)]
        assert groups == ["50", "75", "100", "125", "overall"]

    def test_group_rows(self):
        assert group_rows([125, 50, 125, 75]) == [
            ("50", [1]),
            ("75", [3]),
            ("125", [0, 2]),
            ("overall", [0, 1, 2, 3]),
        ]

    def test_group_order_does_not_depend_on_hashing(self, monkeypatch):
        keys = [125, 50, 7, 100, 0, 75, 50]
        code = f"from saflip.ber import group_rows; print([g for g, _ in group_rows({keys!r})])"
        orders = set()
        for hash_seed in range(8):
            monkeypatch.setenv("PYTHONHASHSEED", str(hash_seed))
            proc = run_python("-c", code)
            assert proc.returncode == 0, proc.stderr
            orders.add(proc.stdout)
        labels = ["0", "7", "50", "75", "100", "125", "overall"]
        assert orders == {f"{labels}\n"}


@st.composite
def paired_matrices(draw):
    l = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    score = st.floats(0, 1, allow_nan=False, width=32).map(float)
    ym = draw(st.lists(st.lists(score, min_size=n, max_size=n), min_size=l, max_size=l))
    y0 = draw(st.lists(st.lists(score, min_size=n, max_size=n), min_size=l, max_size=l))
    return make_matrix(ym, label="m"), make_matrix(y0, label="0")


@settings(max_examples=150, deadline=None)
@given(paired_matrices(), st.floats(0, 0.5), st.floats(0, 0.5))
def test_properties_simplex_monotone_antisymmetric(pair, d1, d2):
    ym, y0 = pair
    lo, hi = sorted((d1, d2))
    rep_lo = ber_grouped(ym, y0, lo)[-1]
    rep_hi = ber_grouped(ym, y0, hi)[-1]
    # Exact simplex identity in integer counts.
    for rep in (rep_lo, rep_hi):
        assert rep.b_count + rep.e_count + rep.r_count == rep.comparisons
    # Widening the band can only move mass into e.
    assert rep_hi.b_count <= rep_lo.b_count
    assert rep_hi.r_count <= rep_lo.r_count
    assert rep_hi.e_count >= rep_lo.e_count
    # Swapping the matrices swaps b and r.
    swapped = ber_grouped(y0, ym, lo)[-1]
    assert (swapped.b_count, swapped.r_count) == (rep_lo.r_count, rep_lo.b_count)
    assert swapped.e_count == rep_lo.e_count


@st.composite
def clause_fraction_rows(draw):
    """Score rows of k/m and a delta of 0 or j/m, so that many differences
    land exactly on the band's edge."""
    m = draw(st.integers(1, 600))
    l = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    score = st.integers(0, m).map(lambda k: k / m)
    rows = st.lists(st.lists(score, min_size=n, max_size=n), min_size=l, max_size=l)
    delta = draw(st.one_of(st.just(0.0), st.integers(0, m).map(lambda j: j / m)))
    return draw(rows), draw(rows), delta


@settings(max_examples=300, deadline=None)
@given(clause_fraction_rows())
def test_count_rows_matches_pairwise_loop(case):
    ym_rows, y0_rows, delta = case
    b = r = 0
    for ym_row, y0_row in zip(ym_rows, y0_rows):
        for y in ym_row:
            for z in y0_row:
                b += y < z - delta
                r += y > z + delta
    assert _count_rows(ym_rows, y0_rows, delta) == (b, r)


def test_shift_property():
    rng = random.Random(6)
    ym_rows = [[rng.uniform(0, 0.1) for _ in range(4)] for _ in range(3)]
    delta = 0.2
    shift = 0.35  # > delta + max spread of ym
    y0_rows = [[y + shift for y in row] for row in ym_rows]
    rep = ber_grouped(make_matrix(ym_rows), make_matrix(y0_rows), delta)[-1]
    assert (rep.b, rep.e, rep.r) == (1.0, 0.0, 0.0)


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        m = make_matrix([[0.0, 1 / 3], [0.25, 1e-9]], groups=[50, 75], label="sa")
        path = tmp_path / "results.csv"
        write_result_csv(m, path)
        back = read_result_csv(path)
        assert back == m

    def test_csv_keeps_the_run_indices(self, tmp_path):
        m = make_matrix([[0.0, 0.5], [0.25, 1.0]], groups=[50, 75], label="sa")
        m.run_indices = [0, 2]
        path = tmp_path / "results.csv"
        write_result_csv(m, path)
        assert [line.split(",")[3] for line in path.read_text().splitlines()[1:]] == [
            "0", "2", "0", "2"]
        assert read_result_csv(path) == m

    def test_csv_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_result_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("a\n", "line 2: expected 6 fields, got 1"),
        ("a,50,1,0,sa,0.1,extra\n", "line 2: expected 6 fields, got 7"),
        ("a,50,1,0,sa," + "1" * 200_000 + "\n", "line 2: field larger than field limit"),
    ])
    def test_csv_rejects_malformed_row(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + row)
        with pytest.raises(ValueError, match=message):
            read_result_csv(path)

    @pytest.mark.parametrize("row, bad", [
        ("a,50,x,1,sa,0.3", "'x'"),
        ("a,50,2,one,sa,0.3", "'one'"),
        ("a,50,2,1,sa,zero", "'zero'"),
        ("a,50,2,1,sa,2.0", "score 2.0 outside [0, 1]"),
        ("a,50,2,1,sa,nan", "score nan outside [0, 1]"),
        ("b,²,2,0,sa,0.3", "group '²' is not a variable count"),
        ("b,a/b,2,0,sa,0.3", "group 'a/b' is not a variable count"),
        ("b,overall,2,0,sa,0.3", "group 'overall' is not a variable count"),
        ("b,<b>&x,2,0,sa,0.3", "group '<b>&x' is not a variable count"),
        ("b,007,2,0,sa,0.3", "group '007' is not a variable count"),
        ("b,5.0,2,0,sa,0.3", "group '5.0' is not a variable count"),
    ], ids=["seed", "run_index", "y", "y_above_1", "y_nan", "group", "group_path",
            "group_overall", "group_markup", "group_leading_zero", "group_float"])
    def test_csv_names_the_line_of_a_bad_number(self, tmp_path, row, bad):
        path = tmp_path / "bad.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\na,50,1,0,sa,0.1\n" + row + "\n")
        message = re.escape(f"{path}: line 3: ") + ".*" + re.escape(bad)
        with pytest.raises(ValueError, match=message):
            read_result_csv(path)

    def test_csv_rejects_duplicate_run(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "instance_id,group,seed,run_index,algorithm,y\n"
            "a,50,1,0,sa,0.1\n"
            "a,50,2,0,sa,0.3\n"
        )
        with pytest.raises(ValueError, match="line 3: duplicate run 0 of instance 'a'"):
            read_result_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ("a,50,1,0,sa,0.1\nb,75,2,0,sa,0.2\na,75,3,1,sa,0.3\n",
         "line 4: instance 'a' in group 75, but 50 in an earlier row"),
        ("a,50,1,0,sa,0.1\na,50,2,1,placebo,0.3\n",
         "line 3: algorithm 'placebo', but 'sa' in an earlier row"),
        ("a,50,1,0,sa,0.1\na,50,2,2,sa,0.2\nb,50,3,0,sa,0.3\nb,50,4,1,sa,0.4\n",
         "instance 'b' has runs [0, 1], but instance 'a' has runs [0, 2]"),
        ("", "no result rows"),
    ], ids=["group", "algorithm", "runs", "no_rows"])
    def test_csv_rejects_rows_that_disagree(self, tmp_path, rows, message):
        path = tmp_path / "mixed.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + rows)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_result_csv(path)


CSV_FIELDS = ("a", "b", "50", "0", "1", "-1", "2", "0.5", "1e-3", "nan", "inf", "", "x",
              '"', '"a,b"', "²", "007", " 1", "sa")
well_formed_row = st.tuples(
    st.sampled_from(("a", "b")), st.sampled_from(("50", "75", "007", "x")),
    st.integers(-1, 9).map(str),
    st.integers(0, 2).map(str), st.just("sa"), st.sampled_from(("0", "0.5", "1", "1e-3", "2")),
).map(",".join)
csv_rows = st.one_of(well_formed_row,
                     st.lists(st.sampled_from(CSV_FIELDS), max_size=8).map(",".join))
csv_like = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.lists(csv_rows, max_size=6).map(
        lambda rows: "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"),
)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "results.csv"


@settings(max_examples=500, deadline=None)
@given(st.one_of(csv_like.map(str.encode), st.binary()))
def test_read_result_csv_accepts_or_raises_value_error(csv_path, data):
    csv_path.write_bytes(data)
    try:
        m = read_result_csv(csv_path)
    except ValueError:
        return
    write_result_csv(m, csv_path)
    assert read_result_csv(csv_path) == m
