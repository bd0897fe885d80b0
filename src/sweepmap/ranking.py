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

    @classmethod
    def from_text(cls, text: str) -> "RankTableau":
        try:
            cols_part, by_part = text.split(";by_index=")
            cols = tuple(
                tuple(int(v) for v in part.split(","))
                for part in cols_part.split("|")
            )
            by = tuple(int(v) for v in by_part.split(","))
        except ValueError as exc:
            raise TableauError(f"malformed rank text: {exc}") from None
        return cls(cols, by)


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


@dataclass(frozen=True)
class RankCounts:
    """How often a rank appears in a tableau, split by box position."""

    total: int
    top: int           # boxes in the first row
    below_top: int     # boxes below the first row
    bottom: int        # boxes in the last row of their column
    above_bottom: int  # boxes above the last row

    @classmethod
    def zero(cls) -> "RankCounts":
        return cls(0, 0, 0, 0, 0)


def rank_counts(r: RankTableau) -> dict[int, RankCounts]:
    """Per-rank occurrence counts, keyed by rank value."""
    acc: dict[int, list[int]] = {}
    for col in r.columns:
        last = len(col) - 1
        for row, rv in enumerate(col):
            c = acc.setdefault(rv, [0, 0, 0, 0, 0])
            c[0] += 1
            if row == 0:
                c[1] += 1
            else:
                c[2] += 1
            if row == last:
                c[3] += 1
            else:
                c[4] += 1
    return {rv: RankCounts(*vals) for rv, vals in sorted(acc.items())}
