"""Ranks of tableau entries, column by column.

Column 1 carries ranks 0..k_1 from top to bottom.  Every later column reads
the rank a of the index immediately preceding its top index and carries
a..a+k_i.  The ranks come back as one tuple indexed by entry: the rank of
entry v sits at position v-1, and a column's ranks are those of its
entries.  For the tableau of a path's word these ranks reproduce the
starting levels of the path's steps.
"""

from __future__ import annotations

from .tableau import Tableau, TableauError


def rank_tableau(t: Tableau) -> tuple[int, ...]:
    """Rank every box of the tableau; the rank of entry v is at v-1.

    An unrankable top index (its predecessor not placed yet, or out of
    range) signals an invalid tableau.
    """
    size = t.size
    by_index: list[int | None] = [None] * size
    for i, col in enumerate(t.columns, start=1):
        if i == 1:
            start = 0
        else:
            prev = col[0] - 1
            if prev < 1 or prev > size:
                raise TableauError(
                    f"top index {col[0]} of column {i} has no predecessor"
                )
            start = by_index[prev - 1]
            if start is None:
                raise TableauError(
                    f"cannot rank column {i}: index {prev} is not ranked yet"
                )
        for r, v in enumerate(col, start):
            if v < 1 or v > size:
                raise TableauError(f"entry {v} out of range 1..{size}")
            if by_index[v - 1] is not None:
                raise TableauError(f"entry {v} appears twice")
            by_index[v - 1] = r
    # size distinct entries in 1..size: every index is ranked
    return tuple(by_index)  # type: ignore[return-value]
