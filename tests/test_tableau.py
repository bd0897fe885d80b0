"""Filling words into tableaux and the structural conditions on them."""

import itertools
import random
import time

import pytest

from sweepmap import (
    Diagnostic,
    SWWord,
    Tableau,
    TableauError,
    enumerate_family,
    extend_plus,
    fill,
    from_top_row,
    is_minus_admissible,
    sweep,
    tableau_to_word,
    validate_tableau,
)
from conftest import family_grid, fillings, random_path
from sweepmap.paths import skeleton
from sweepmap.tableau import _top_bounds

# tableau of the running example's image, sweep of (2,-1,-1,4,-1,5,...,3,...)
RUN_COLUMNS = ((1, 3, 5, 7, 9), (2, 4, 6), (8, 11, 13, 15, 17, 18), (10, 12, 14, 16))
RUN_WORD = "S4 S2 W W W W W S5 W S3 W W W W W W W W"


def run_tableau():
    return Tableau(RUN_COLUMNS)


def test_columns_become_int_tuples():
    t = Tableau([[1, 2]])
    assert t.columns == ((1, 2),)
    assert type(t.columns[0]) is tuple


class TestFill:
    def test_running_example(self):
        assert fill(SWWord.from_text(RUN_WORD)).columns == RUN_COLUMNS

    def test_single_column(self):
        assert fill(SWWord.from_text("S1 W")).columns == ((1, 2),)

    def test_interleaving(self):
        assert fill(SWWord.from_text("S2 S1 W W W")).columns == ((1, 3, 5), (2, 4))

    def test_fill_needs_an_open_column(self):
        with pytest.raises(TableauError, match="position 1"):
            fill(SWWord.from_text("W S1"))

    def test_fill_detects_short_words(self):
        with pytest.raises(TableauError, match="column 1 is unfilled"):
            fill(SWWord.from_text("S2 W"))

    @pytest.mark.parametrize("family", family_grid(3, 3), ids=str)
    def test_fill_round_trips_with_word(self, family):
        # filling always happens on the unscaled skeleton of a family member
        for path in enumerate_family(family, permute_k=True).paths:
            word = SWWord.from_steps(skeleton(sweep(path), family))
            t = fill(word)
            assert validate_tableau(t)
            assert tableau_to_word(t).exponents() == word.exponents()


class TestValidateTableau:
    def test_running_example_is_valid(self):
        assert validate_tableau(run_tableau())

    def test_strip_violation_reports_the_quadruple(self):
        d = validate_tableau(Tableau(((1, 4), (2, 3))))
        assert not d
        assert "strip violation 1 < 2 < 3 < 4" in d.reason
        assert "share column 2" in d.reason

    def test_entries_must_partition(self):
        d = validate_tableau(Tableau(((1, 3), (2, 5))))
        assert not d and "1..4" in d.reason

    def test_columns_must_increase(self):
        d = validate_tableau(Tableau(((2, 1), (3, 4))))
        assert not d and "column 1" in d.reason

    def test_top_row_must_increase(self):
        d = validate_tableau(Tableau(((2, 3), (1, 4))))
        assert not d and "top row" in d.reason

    def test_bound_holds_across_enumerations(self):
        # the partition and ordering conditions already force the bound
        for family in family_grid(3, 3):
            if family.kind != "k":
                continue
            for path in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(sweep(path)))
                prefix = 0
                for i, (ti, ki) in enumerate(zip(t.top_row, t.k), start=1):
                    assert ti <= prefix + i
                    prefix += ki

    @pytest.mark.parametrize(
        "k", [k for n in (1, 2, 3) for k in itertools.product((1, 2), repeat=n)], ids=str
    )
    def test_matches_the_quadratic_scan_on_every_filling(self, k):
        # increasing columns are the fillings that reach the strip check; for
        # n <= 2 every order inside the columns is tried as well
        cases = list(fillings(k))
        if len(k) <= 2:
            cases += list(fillings(k, increasing=False))
        for cols in cases:
            t = Tableau(cols)
            assert validate_tableau(t) == _quadratic_validate(t), cols

    def test_matches_the_quadratic_scan_on_random_fillings(self):
        # longer intervals than the exhaustive grid: random fillings with the
        # columns ordered by their tops, and valid fills with two entries swapped
        rng = random.Random(9)
        for trial in range(1200):
            k = [rng.randint(1, 6) for _ in range(rng.randint(2, 15))]
            if trial % 2:
                t = fill(SWWord.from_steps(sweep(random_path(k, rng))))
                flat = [v for col in t.columns for v in col]
                i, j = rng.sample(range(len(flat)), 2)
                flat[i], flat[j] = flat[j], flat[i]
            else:
                flat = rng.sample(range(1, len(k) + sum(k) + 1), len(k) + sum(k))
            it = iter(flat)
            cols = sorted(tuple(sorted(next(it) for _ in range(ki + 1))) for ki in k)
            t = Tableau(tuple(cols))
            assert validate_tableau(t) == _quadratic_validate(t), cols

    def test_strip_violation_late_in_a_long_interval(self):
        # in (1, 8) the shared column is 6 and 7, at the far end of the interval
        cols = ((1, 8, 16, 21, 25, 47), (2, 32, 34, 41, 42, 50), (3, 33, 44),
                (4, 10, 23, 26, 43, 46), (5, 17, 30, 35), (6, 7), (9, 15, 20, 22, 39),
                (11, 19, 24, 27, 37, 49), (12, 31, 40, 48, 51), (13, 29, 36, 38),
                (14, 18, 28, 45))
        d = validate_tableau(Tableau(cols))
        assert d.reason == "strip violation 1 < 6 < 7 < 8: 6 and 7 share column 6"

    def test_large_tableau_in_under_a_second(self):
        rng = random.Random(4)
        k = tuple(rng.randint(1, 10) for _ in range(3600))
        t = fill(SWWord.from_steps(sweep(random_path(k, rng))))
        assert t.size > 20_000
        start = time.perf_counter()
        assert validate_tableau(t)
        assert time.perf_counter() - start < 1.0


def _quadratic_validate(t):
    """validate_tableau with the strip condition checked pair by pair (the reference)."""
    n = len(t.columns)
    size = t.size
    entries = [v for col in t.columns for v in col]
    if sorted(entries) != list(range(1, size + 1)):
        return Diagnostic(False, f"entries do not form 1..{size}")
    for i, col in enumerate(t.columns, start=1):
        for a, b in zip(col, col[1:]):
            if a >= b:
                return Diagnostic(False, f"column {i} is not strictly increasing", i)
    top = t.top_row
    for i in range(1, n):
        if top[i - 1] >= top[i]:
            return Diagnostic(False, "top row is not strictly increasing", i + 1)
    for i, (ti, bound) in enumerate(zip(top, _top_bounds(t.k)), start=1):
        if ti > bound:
            return Diagnostic(False, f"top entry {ti} exceeds its bound {bound}", i)
    col_of = {v: c for c, col in enumerate(t.columns, start=1) for v in col}
    for col in t.columns:
        for a, d in zip(col, col[1:]):
            seen = {}
            for v in range(a + 1, d):
                c = col_of[v]
                if c in seen:
                    return Diagnostic(
                        False,
                        f"strip violation {a} < {seen[c]} < {v} < {d}: "
                        f"{seen[c]} and {v} share column {c}",
                    )
                seen[c] = v
    return Diagnostic(True)


class TestFromTopRow:
    def test_smallest(self):
        assert from_top_row((1, 2), (1, 1)).columns == ((1, 3), (2, 4))

    def test_with_wider_column(self):
        assert from_top_row((1, 3), (1, 2)).columns == ((1, 2), (3, 4, 5))

    def test_bound_violation(self):
        # position 2 is bounded by k_1 + 2 = 3
        with pytest.raises(TableauError, match="exceeds its bound 3"):
            from_top_row((1, 4), (1, 2))

    def test_must_start_at_one(self):
        with pytest.raises(TableauError, match="start at 1"):
            from_top_row((2, 3), (1, 1))

    @pytest.mark.parametrize("family", family_grid(3, 3), ids=str)
    def test_top_row_determines_the_tableau(self, family):
        for path in enumerate_family(family, permute_k=True).paths:
            t = fill(SWWord.from_steps(skeleton(sweep(path), family)))
            exps = tableau_to_word(t).exponents()
            assert from_top_row(t.top_row, exps) == t


class TestExtendPlus:
    def test_running_example(self):
        tp = extend_plus(run_tableau())
        cols = run_tableau().columns
        assert type(tp) is Tableau
        assert tp.columns == (*cols[:2], cols[2] + (19,), cols[3])

    def test_requires_trailing_entry(self):
        # only a malformed (non-increasing) column can hide the largest entry
        with pytest.raises(TableauError, match="largest entry"):
            extend_plus(Tableau(((4, 1), (2, 3))))


class TestMinusAdmissible:
    def test_running_example(self):
        assert is_minus_admissible(run_tableau())

    def test_tight_bound_is_rejected(self):
        # top row (1, 2) with k=(1, 1): t_2 = 2 equals its bound k_1+2 = 3? no;
        # use k=(1,1) top (1,3): t_2 = 3 == bound 3 -> not admissible
        assert not is_minus_admissible(Tableau(((1, 2), (3, 4))))
        assert is_minus_admissible(Tableau(((1, 3), (2, 4))))


class TestSerialization:
    def test_text(self):
        t = run_tableau()
        assert t.to_text() == "1,3,5,7,9|2,4,6|8,11,13,15,17,18|10,12,14,16"

    def test_json_round_trip(self):
        t = run_tableau()
        assert Tableau.from_json(t.to_json()) == t
        assert t.to_json()["k"] == [4, 2, 5, 3]

    def test_json_k_mismatch(self):
        with pytest.raises(TableauError, match="does not match"):
            Tableau.from_json({"k": [2, 2], "columns": [[1, 3], [2, 4]]})

    def test_short_column_rejected(self):
        with pytest.raises(TableauError, match="two entries"):
            Tableau(((1,), (2, 3)))
