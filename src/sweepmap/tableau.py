"""Column tableaux built from SW-words.

Filling a word places its letter positions 1..n+|k| into n columns, one per
S letter; column i wants exactly k_i+1 entries where k_i is the exponent of
the i-th S letter.  Each S opens the next column, each W lands directly
below the smallest *active* entry -- the bottom of a column that has not
reached full height yet.  The fills of words, T_k, are what the
sweep-inversion walks in walking.py take.  They are exactly characterized
by their top rows and by a strip condition; the tests restate both facts
as checks of fill.  Each walk runs invert's pass on the word of the fill,
the plus and minus walks on that word lifted to their tilt; none reads
extend_plus's tableau, which the tests' paper-worded plus walk reads.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate

from .paths import SWWord, _index, _is_ints, _json_ints, _Record


class TableauError(ValueError):
    """Raised for malformed tableaux or words that cannot be filled."""


class Tableau(_Record):
    """Columns of strictly increasing indices; column i holds k_i+1 entries."""

    __match_args__ = ("columns",)

    def __init__(self, columns: tuple[tuple[int, ...], ...]) -> None:
        why = "tableau columns must hold integers"  # for the columns and their entries
        cols = _index(columns, why, TableauError, lambda col: _index(col, why, TableauError))
        if not cols:
            raise TableauError("tableau needs at least one column")
        for i, col in enumerate(cols, start=1):
            if len(col) < 2:
                raise TableauError(f"column {i} needs at least two entries")
        object.__setattr__(self, "columns", cols)

    @property
    def k(self) -> tuple[int, ...]:
        return tuple(len(col) - 1 for col in self.columns)

    @property
    def size(self) -> int:
        return sum(len(col) for col in self.columns)

    @property
    def top_row(self) -> tuple[int, ...]:
        return tuple(col[0] for col in self.columns)

    @property
    def bottom_row(self) -> tuple[int, ...]:
        return tuple(col[-1] for col in self.columns)

    def to_json(self) -> dict:
        return {"k": list(self.k), "columns": [list(c) for c in self.columns]}

    @classmethod
    def from_json(cls, obj: dict) -> "Tableau":
        if not isinstance(obj, dict) or "columns" not in obj:
            raise TableauError("tableau object needs a 'columns' key")
        cols = obj["columns"]
        if not isinstance(cols, list) or not all(map(_is_ints, cols)):
            raise TableauError("'columns' must be a list of lists of integers")
        t = cls(tuple(map(tuple, cols)))
        if "k" in obj and _json_ints(obj, "k", TableauError) != t.k:
            raise TableauError(
                f"k {tuple(obj['k'])} does not match column heights (expected {t.k})"
            )
        return t

    def to_text(self) -> str:
        return "|".join(",".join(str(v) for v in col) for col in self.columns)


def fill(word: SWWord) -> Tableau:
    """Build the tableau of a word.

    Entries arrive in increasing order, so the set of active bottoms stays
    sorted by construction and the smallest active entry is always the one
    waiting longest; a deque gives the whole fill a single linear pass.  The
    empty word opens no column, and Tableau refuses it.
    """
    # each column is a list headed by the length it must reach, that head included
    columns: list[list[int]] = []
    active: deque[list[int]] = deque()  # columns, fronted by the smallest bottom
    push, pop = active.append, active.popleft
    j = 0
    try:
        for kind, size in word.letters:
            j += 1
            if kind == "S":
                col = [size + 2, j]
                columns.append(col)
                push(col)
            else:
                col = pop()
                col.append(j)
                if len(col) < col[0]:
                    push(col)
    except IndexError:  # the pop found no active column
        raise TableauError(f"no active entry for the W letter at position {j}") from None
    if active:
        unfilled = next(i for i, col in enumerate(columns, start=1) if col is active[0])
        raise TableauError(f"word ended while column {unfilled} is unfilled")
    return Tableau(tuple([tuple(col[1:]) for col in columns]))


def extend_plus(t: Tableau) -> Tableau:
    """Append index size+1 directly below the largest entry.

    The tableau the plus walk walks, whose extended column keeps its
    designated bottom at its (k_i+1)-st entry, the one above size+1.
    walk_plus places that entry itself; the tests' reference walk reads it here.
    """
    size = t.size
    cols = list(t.columns)
    for i, col in enumerate(cols):
        if col[-1] == size:
            cols[i] = col + (size + 1,)
            return Tableau(tuple(cols))
    raise TableauError(f"no column ends with the largest entry {size}")


def is_minus_admissible(t: Tableau) -> bool:
    """Whether every later top entry sits strictly below its bound.

    Column 1 is unconstrained; for i >= 2 the top entry must satisfy
    t_i < k_1+...+k_{i-1}+i.
    """
    return all(ti < bound for ti, bound in zip(t.top_row[1:], _top_bounds(t.k)[1:]))


def _top_bounds(k) -> list[int]:
    """The bound k_1+...+k_{i-1}+i on the top entry of column i, for every column."""
    return [prefix + i for i, prefix in enumerate(accumulate(k[:-1], initial=0), start=1)]
