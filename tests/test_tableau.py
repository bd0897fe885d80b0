"""Filling words into tableaux and the structural conditions on them."""

import pytest

from sweepmap import (
    SWWord,
    Tableau,
    TableauError,
    enumerate_family,
    extend_plus,
    fill,
    is_minus_admissible,
    sweep,
)
from conftest import family_grid, top_row_tableau, validate_tableau
from sweepmap.paths import skeleton

# tableau of the running example's image, sweep of (2,-1,-1,4,-1,5,...,3,...)
RUN_COLUMNS = ((1, 3, 5, 7, 9), (2, 4, 6), (8, 11, 13, 15, 17, 18), (10, 12, 14, 16))
RUN_WORD = "S4 S2 W W W W W S5 W S3 W W W W W W W W"


def run_tableau():
    return Tableau(RUN_COLUMNS)


def test_columns_become_int_tuples():
    t = Tableau([[1, 2]])
    assert t.columns == ((1, 2),)
    assert type(t.columns[0]) is tuple
    assert Tableau(((True, 2),)).columns == ((1, 2),)
    assert type(Tableau(((True, 2),)).columns[0][0]) is int


@pytest.mark.parametrize("entry", [2.7, 2.0, "2", None])
def test_entries_must_be_integers(entry):
    # int() would truncate 2.7 to 2 and read "2"
    with pytest.raises(TableauError, match="columns must hold integers"):
        Tableau(((1, entry),))


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
            plain = skeleton(sweep(path), family)
            t = fill(SWWord.from_steps(plain))
            assert validate_tableau(t)
            assert t.k == plain.rises


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

    def test_strip_violation_late_in_a_long_interval(self):
        # in (1, 8) the shared column is 6 and 7, at the far end of the interval
        cols = ((1, 8, 16, 21, 25, 47), (2, 32, 34, 41, 42, 50), (3, 33, 44),
                (4, 10, 23, 26, 43, 46), (5, 17, 30, 35), (6, 7), (9, 15, 20, 22, 39),
                (11, 19, 24, 27, 37, 49), (12, 31, 40, 48, 51), (13, 29, 36, 38),
                (14, 18, 28, 45))
        d = validate_tableau(Tableau(cols))
        assert d.reason == "strip violation 1 < 6 < 7 < 8: 6 and 7 share column 6"


class TestTopRow:
    def test_smallest(self):
        assert top_row_tableau((1, 2), (1, 1)).columns == ((1, 3), (2, 4))

    def test_with_wider_column(self):
        assert top_row_tableau((1, 3), (1, 2)).columns == ((1, 2), (3, 4, 5))

    @pytest.mark.parametrize("family", family_grid(3, 3), ids=str)
    def test_top_row_determines_the_tableau(self, family):
        for path in enumerate_family(family, permute_k=True).paths:
            t = fill(SWWord.from_steps(skeleton(sweep(path), family)))
            assert top_row_tableau(t.top_row, t.k) == t


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
