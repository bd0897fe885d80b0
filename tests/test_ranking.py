"""Tableau ranks: the frozen example, invariants, and occurrence counts."""

from collections import Counter

import pytest

from sweepmap import (
    SWWord,
    Tableau,
    TableauError,
    enumerate_family,
    fill,
    rank_tableau,
    ranks,
    sweep,
)
from conftest import family_grid

RUN_COLUMNS = ((1, 3, 5, 7, 9), (2, 4, 6), (8, 11, 13, 15, 17, 18), (10, 12, 14, 16))
RUN_RANKS = ((0, 1, 2, 3, 4), (0, 1, 2), (3, 4, 5, 6, 7, 8), (4, 5, 6, 7))
RUN_BY_INDEX = (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 7, 8)


def box_ranks(columns):
    """The ranks in tableau shape: each box holds its entry's rank."""
    r = rank_tableau(Tableau(columns))
    return tuple(tuple(r[v - 1] for v in col) for col in columns)


class TestGoldens:
    def test_running_example(self):
        r = rank_tableau(Tableau(RUN_COLUMNS))
        assert box_ranks(RUN_COLUMNS) == RUN_RANKS
        assert r == RUN_BY_INDEX
        assert r[11 - 1] == 4

    def test_two_columns(self):
        assert box_ranks(((1, 3), (2, 4))) == ((0, 1), (0, 1))

    def test_single_column(self):
        assert box_ranks(((1, 2),)) == ((0, 1),)

    def test_later_column_inherits_mid_rank(self):
        # column 2 tops at 3, whose predecessor 2 has rank 1
        assert box_ranks(((1, 2), (3, 4, 5))) == ((0, 1), (1, 2, 3))


PLAIN_FAMILIES = [f for f in family_grid(3, 3) if f.kind == "k"]


class TestInvariants:
    @pytest.mark.parametrize("family", PLAIN_FAMILIES, ids=str)
    def test_over_small_families(self, family):
        for path in enumerate_family(family, permute_k=True).paths:
            t = fill(SWWord.from_steps(sweep(path)))
            r = rank_tableau(t)
            assert r[0] == 0
            # ranks step by 0 or 1 along the index order
            assert all(b - a in (0, 1) for a, b in zip(r, r[1:]))
            assert len(r) == t.size

    def test_ranks_echo_the_preimage_levels(self):
        # multiset of box ranks == multiset of the preimage's starting levels
        for family in PLAIN_FAMILIES:
            for path in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(sweep(path)))
                r = rank_tableau(t)
                assert sorted(r) == sorted(ranks(path))

    @pytest.mark.parametrize("columns, error", [
        # column 2 tops at 4, but index 3 is ranked later, in column 3
        (((1, 2), (4, 5), (3, 6)), "cannot rank column 2: index 3 is not ranked yet"),
        (((1, 2), (2, 3)), "entry 2 appears twice"),
        (((1, 2), (3, 9)), "entry 9 out of range 1..4"),
    ], ids=["unrankable-top", "duplicate-entry", "out-of-range"])
    def test_refusals(self, columns, error):
        with pytest.raises(TableauError) as exc:
            rank_tableau(Tableau(columns))
        assert str(exc.value) == error


class TestRankCounts:
    def test_running_example(self):
        r = rank_tableau(Tableau(RUN_COLUMNS))
        top = Counter(r[col[0] - 1] for col in RUN_COLUMNS)
        below_top = Counter(r[v - 1] for col in RUN_COLUMNS for v in col[1:])
        assert (top[2], below_top[2]) == (0, 2)
        assert (top[0], below_top[0]) == (2, 0)
        assert (top[4], below_top[4]) == (1, 2)
        assert sum((top + below_top).values()) == 18

