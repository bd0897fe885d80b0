"""Ranks assigned to tableau entries, column by column.

Column 1 carries ranks 0..k_1 from top to bottom.  Every later column reads
the rank a of the index immediately preceding its top index and carries
a..a+k_i.  For the tableau of a path's word these ranks reproduce the
starting levels of the path's steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tableau import Tableau, TableauError


@dataclass(frozen=True)
class RankTableau:
    """Per-box ranks in tableau shape, plus the rank of every index."""

    columns: tuple[tuple[int, ...], ...]
    by_index: tuple[int, ...]  # by_index[i-1] = rank of index i

    def rank_of(self, index: int) -> int:
        return self.by_index[index - 1]

    @property
    def size(self) -> int:
        return len(self.by_index)

    def to_json(self) -> dict:
        return {
            "k": [len(c) - 1 for c in self.columns],
            "ranks": [list(c) for c in self.columns],
            "by_index": list(self.by_index),
        }

    def to_text(self) -> str:
        cols = "|".join(",".join(str(r) for r in col) for col in self.columns)
        by = ",".join(str(r) for r in self.by_index)
        return f"{cols};by_index={by}"


def rank_tableau(t: Tableau) -> RankTableau:
    """Rank every box of the tableau.

    An unrankable top index (its predecessor not placed yet, or out of
    range) signals an invalid tableau.
    """
    size = t.size
    by_index: list[int | None] = [None] * size
    cols = []
    for i, col in enumerate(t.columns, start=1):
        if i == 1:
            start = 0
        else:
            prev = col[0] - 1
            if prev < 1 or prev > size:
                raise TableauError(
                    f"top index {col[0]} of column {i} has no predecessor"
                )
            r = by_index[prev - 1]
            if r is None:
                raise TableauError(
                    f"cannot rank column {i}: index {prev} is not ranked yet"
                )
            start = r
        col_ranks = tuple(range(start, start + len(col)))
        for v, r in zip(col, col_ranks):
            if v < 1 or v > size:
                raise TableauError(f"entry {v} out of range 1..{size}")
            if by_index[v - 1] is not None:
                raise TableauError(f"entry {v} appears twice")
            by_index[v - 1] = r
        cols.append(col_ranks)
    # size distinct entries in 1..size: every index is ranked
    return RankTableau(tuple(cols), tuple(by_index))  # type: ignore[arg-type]
