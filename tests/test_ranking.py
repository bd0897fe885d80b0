"""Rank tableaux: the frozen example, invariants, and occurrence counts."""

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


class TestGoldens:
    def test_running_example(self):
        r = rank_tableau(Tableau(RUN_COLUMNS))
        assert r.columns == RUN_RANKS
        assert r.by_index == RUN_BY_INDEX
        assert r.rank_of(11) == 4

    def test_two_columns(self):
        assert rank_tableau(Tableau(((1, 3), (2, 4)))).columns == ((0, 1), (0, 1))

    def test_single_column(self):
        assert rank_tableau(Tableau(((1, 2),))).columns == ((0, 1),)

    def test_later_column_inherits_mid_rank(self):
        # column 2 tops at 3, whose predecessor 2 has rank 1
        r = rank_tableau(Tableau(((1, 2), (3, 4, 5))))
        assert r.columns == ((0, 1), (1, 2, 3))


PLAIN_FAMILIES = [f for f in family_grid(3, 3) if f.kind == "k"]


class TestInvariants:
    @pytest.mark.parametrize("family", PLAIN_FAMILIES, ids=str)
    def test_over_small_families(self, family):
        for path in enumerate_family(family, permute_k=True).paths:
            t = fill(SWWord.from_steps(sweep(path)))
            r = rank_tableau(t)
            assert r.rank_of(1) == 0
            # ranks step by 0 or 1 along the index order
            by = r.by_index
            assert all(b - a in (0, 1) for a, b in zip(by, by[1:]))
            assert len(by) == t.size

    def test_ranks_echo_the_preimage_levels(self):
        # multiset of box ranks == multiset of the preimage's starting levels
        for family in PLAIN_FAMILIES:
            for path in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(sweep(path)))
                r = rank_tableau(t)
                assert sorted(r.by_index) == sorted(ranks(path))

    def test_unrankable_top(self):
        # column 2 tops at 4 but index 3 is ranked in the same pass later
        with pytest.raises(TableauError, match="not ranked yet"):
            rank_tableau(Tableau(((1, 2), (4, 5), (3, 6))))

    def test_duplicate_entry(self):
        with pytest.raises(TableauError, match="twice"):
            rank_tableau(Tableau(((1, 2), (2, 3))))


class TestRankCounts:
    def test_running_example(self):
        r = rank_tableau(Tableau(RUN_COLUMNS))
        top = Counter(col[0] for col in r.columns)
        below_top = Counter(a for col in r.columns for a in col[1:])
        assert (top[2], below_top[2]) == (0, 2)
        assert (top[0], below_top[0]) == (2, 0)
        assert (top[4], below_top[4]) == (1, 2)
        assert sum((top + below_top).values()) == 18


class TestSerialization:
    def test_text(self):
        r = rank_tableau(Tableau(((1, 3), (2, 4))))
        assert r.to_text() == "0,1|0,1;by_index=0,0,1,1"

    def test_json(self):
        r = rank_tableau(Tableau(((1, 3), (2, 4))))
        assert r.to_json() == {
            "k": [1, 1],
            "ranks": [[0, 1], [0, 1]],
            "by_index": [0, 0, 1, 1],
        }
