"""Column tableaux built from SW-words.

Filling a word places its letter positions 1..n+|k| into n columns, one per
S letter; column i wants exactly k_i+1 entries where k_i is the exponent of
the i-th S letter.  Each S opens the next column, each W lands directly
below the smallest *active* entry -- the bottom of a column that has not
reached full height yet.  The resulting tableaux are exactly characterized
by their top rows, and drive the sweep-inversion walks in walking.py.
Every walk reads a plain Tableau: the plus walk's is the filled one with
index size+1 appended below its largest entry (extend_plus), so the three
walks differ only in the length of one column.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate

from .paths import VALID, Diagnostic, SWWord, _is_ints, _json_ints, _unchecked


class TableauError(ValueError):
    """Raised for malformed tableaux or words that cannot be filled."""


@dataclass(frozen=True)
class Tableau:
    """Columns of strictly increasing indices; column i holds k_i+1 entries."""

    columns: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        cols = tuple(tuple(map(int, col)) for col in self.columns)
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
    waiting longest; a deque gives the whole fill a single linear pass.
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
    if not columns:
        return Tableau(())  # raises: a tableau needs a column
    # SWWord sizes are positive, so every column holds two or more ints
    return _unchecked(Tableau, columns=tuple([tuple(col[1:]) for col in columns]))


def validate_tableau(t: Tableau) -> Diagnostic:
    """Check the partition, column, top-row, and strip conditions.

    The strip condition: whenever d sits directly below a in some column,
    no two of the values strictly between a and d may share a column.  The
    bound t_i <= k_1+...+k_{i-1}+i on the top row follows from the first three.
    """
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
    # no bound check: every value below t_i lies in columns 1..i-1, so t_i <= k_1+...+k_{i-1}+i
    # two values strictly between a and d share a column exactly when one of
    # them has the entry below it in there too: min(below[a+1..d-1]) < d.  Each
    # u >= d has below[u] > u >= d, so that is min(below[a+1:]) < d, a suffix minimum
    below = [size + 1] * (size + 1)  # below[u]: the entry under u, size+1 under a bottom
    for col in t.columns:
        for a, d in zip(col, col[1:]):
            below[a] = d
    least = list(accumulate(reversed(below), min))[::-1]  # least[u] = min(below[u:])
    for col in t.columns:
        for a, d in zip(col, col[1:]):
            if least[a + 1] < d:
                return _strip_violation(t, a, d)
    return VALID


def _strip_violation(t: Tableau, a: int, d: int) -> Diagnostic:
    """The first two values strictly between a and d that share a column."""
    col_of = {v: c for c, col in enumerate(t.columns, start=1) for v in col}
    seen: dict[int, int] = {}
    for v in range(a + 1, d):
        c = col_of[v]
        if c in seen:
            return Diagnostic(
                False,
                f"strip violation {a} < {seen[c]} < {v} < {d}: "
                f"{seen[c]} and {v} share column {c}",
            )
        seen[c] = v
    raise TableauError("no two values share a column")  # pragma: no cover - least found two


def from_top_row(top, k) -> Tableau:
    """The unique valid tableau with the given top row.

    Built by filling the word that has S^{k_i} at position top_i and W
    everywhere else; top_i may not exceed k_1+...+k_{i-1}+i.
    """
    top = tuple(int(v) for v in top)
    k = tuple(int(v) for v in k)
    if len(top) != len(k):
        raise TableauError("top row and rise vector must have equal length")
    if any(v <= 0 for v in k):
        raise TableauError("rise vector entries must be positive")
    if top[0] != 1:
        raise TableauError("top row must start at 1")
    for a, b in zip(top, top[1:]):
        if a >= b:
            raise TableauError("top row must be strictly increasing")
    for i, (ti, bound) in enumerate(zip(top, _top_bounds(k)), start=1):
        if ti > bound:
            raise TableauError(f"top entry {ti} at position {i} exceeds its bound {bound}")
    return fill(_top_word(top, k))


def _top_word(top, k) -> SWWord:
    """The word of length n+|k| with S^{k_i} at position top_i and W elsewhere."""
    tops = dict(zip(top, k))
    return SWWord(
        tuple(("S", tops[j]) if j in tops else ("W", 1) for j in range(1, len(k) + sum(k) + 1))
    )


def tableau_to_word(t: Tableau) -> SWWord:
    """The word with S^{k_i} at the top-row positions and W elsewhere."""
    if min(t.top_row) < 1 or max(t.top_row) > t.size:
        raise TableauError("top-row entries out of range")
    return _top_word(t.top_row, t.k)


def extend_plus(t: Tableau) -> Tableau:
    """Append index size+1 directly below the largest entry.

    This is the plus walk's tableau: walk_plus keeps the extended column's
    designated bottom at its (k_i+1)-st entry, the one above size+1.
    """
    size = t.size
    cols = list(t.columns)
    for i, col in enumerate(cols):
        if col[-1] == size:
            cols[i] = col + (size + 1,)
            # only the extended column is new, and t's columns are int tuples already
            return _unchecked(Tableau, columns=tuple(cols))
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
