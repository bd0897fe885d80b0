"""Walks on ranked tableaux that reconstruct sweep preimages.

Each walk visits the tableau and writes a sequence of indices.  Spelling
the family's letters along that sequence -- an S letter on every top-row
index, a W on every other index -- gives the SW-word of the unique preimage
of the filled path under the sweep map.  The family's tilt picks the walk
(plain, plus or minus), and all three run in time linear in the number of
entries.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .paths import (
    FamilySpec,
    PathError,
    StepSequence,
    SWWord,
    _tilt,
    _unchecked,
    _walk_tilt,
    skeleton,
    validate,
)
from .ranking import rank_tableau
from .tableau import Tableau, extend_plus, fill, is_minus_admissible


class WalkError(ValueError):
    """Raised when a walk cannot run or cannot complete on its input."""


def _above(columns, size: int) -> list[int]:
    """above[v]: the entry directly above v, or its column's bottom when v
    tops the column; above[0] is unused.  Checks that the entries are
    exactly 1..size, with entry 1 on top of the first column."""
    above = [0] * (size + 1)
    try:
        for col in columns:
            prev = col[-1]
            for v in col:
                above[v] = prev
                prev = v
    except IndexError:  # an entry above size, or an empty column
        raise WalkError(f"tableau entries must lie in 1..{size}") from None
    if min(chain.from_iterable(columns), default=0) < 1:  # would index from the end
        raise WalkError(f"tableau entries must lie in 1..{size}")
    if columns[0][0] != 1:
        raise WalkError("entry 1 must top the first column")
    if above.count(0) > 1:  # size entries in 1..size leave a gap only by repeating one
        twice = Counter(chain.from_iterable(columns)).most_common(1)[0][0]
        raise WalkError(f"entry {twice} appears twice")
    return above


def walk(t: Tableau, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Plain walk, on the tableau and its ranks by entry (rank_tableau's).

    Start by writing the largest rank-0 entry.  From a first-row box move
    to the bottom of its column, from any other box move up one box; read
    the rank there and write the largest not-yet-written entry of that
    rank.  Stop when no such entry remains; a complete run writes every
    entry exactly once.
    """
    cols = t.columns
    size = t.size
    if len(ranks) != size:
        raise WalkError(f"expected {size} ranks, one per entry, got {len(ranks)}")
    if min(ranks) < 0:
        raise WalkError("ranks must be nonnegative")
    rank = (0, *ranks)  # rank[v] of entry v
    # ascending entries per rank; popping the back yields the largest
    # unwritten entry of that rank
    stacks: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for v in range(1, size + 1):
        stacks[rank[v]].append(v)
    # after writing v, the walk pops the stack of the rank read above v
    after = [stacks[rank[a]] for a in _above(cols, size)]
    bucket = stacks[0]
    if not bucket:
        raise WalkError("no rank-0 entry to start from")
    cur = bucket.pop()
    out = [cur]
    while True:
        bucket = after[cur]
        if not bucket:
            break
        cur = bucket.pop()
        out.append(cur)
    if len(out) != size:
        raise WalkError(f"walk stopped after {len(out)} of {size} writes")
    return tuple(out)


def walk_plus(t: Tableau) -> tuple[int, ...]:
    """Walk for the plus family, on extend_plus's tableau.

    Its largest entry sits directly under the second largest, in a column of
    three or more entries.  That column's designated bottom is the entry
    above the largest; every other column's is its last entry.  Entries one
    more than a designated bottom are flagged.  Start by writing 1.  From a
    first-row box read the designated bottom b of the column and write
    entry b+1 -- written even when b+1 is flagged.  From any other box step
    up one box; a normal entry there is written, a flagged entry r slides
    down to r-1, r-2, ... until a normal entry appears, and that one is
    written.  The walk stops when its next write would repeat an index,
    having written every entry exactly once.
    """
    cols, size = t.columns, t.size
    foot = next((col for col in cols if col[-1] == size), ())
    if len(foot) < 3 or foot[-2] != size - 1:
        raise WalkError(f"entry {size} must sit under {size - 1} in a column of 3+ entries")
    bottoms = [col[-2] if col[-1] == size else col[-1] for col in cols]
    return _walk_tilted(cols, bottoms, size, 1)


def walk_minus(t: Tableau) -> tuple[int, ...]:
    """Walk for the minus family, the mirror image of walk_plus.

    Requires a minus-admissible tableau.  Entries one less than a bottom
    are flagged; first-row boxes jump to their column bottom b and write
    b-1 unconditionally; flagged entries reached from below slide upward
    to the next normal entry.  Exactly one entry stays unwritten.
    """
    if not is_minus_admissible(t):
        raise WalkError("tableau violates the strict top-row bounds")
    return _walk_tilted(t.columns, t.bottom_row, t.size, -1)


def _walk_tilted(cols, bottoms, size: int, sign: int) -> tuple[int, ...]:
    """The plus (sign +1) or minus (sign -1) walk; see walk_plus."""
    step = _above(cols, size)  # a top entry's step becomes its bottom + sign
    is_top = [False] * (size + 1)
    flagged = [False] * (size + 2)  # indexed 0..size+1, set only inside 1..size
    for col, b in zip(cols, bottoms):
        is_top[col[0]] = True
        step[col[0]] = b + sign
        flagged[b + sign] = True
    flagged[0] = flagged[size + 1] = False
    written = [False] * (size + 1)
    out = [1]
    written[1] = True
    cur = 1
    for _ in range(size + 1):
        target = step[cur]
        if not is_top[cur]:
            while flagged[target]:
                target -= sign
        if target < 1 or target > size:
            raise WalkError(f"walk left the tableau at entry {target}")
        if written[target]:
            break
        written[target] = True
        out.append(target)
        cur = target
    else:  # pragma: no cover - the repeat check always fires first
        raise WalkError("walk failed to terminate")
    expected = size if sign > 0 else size - 1  # the minus walk skips one entry
    if len(out) != expected:
        raise WalkError(f"walk wrote {len(out)} of the expected {expected} entries")
    return tuple(out)


def run_walk(t: Tableau, tilt: int) -> tuple[int, ...]:
    """The walk of a family's tilt, run on the tableau of a path's skeleton."""
    if tilt > 0:
        return walk_plus(extend_plus(t))
    if tilt < 0:
        return walk_minus(t)
    return walk(t, rank_tableau(t))


def sigma_to_preimage(sigma: tuple[int, ...], t: Tableau, family: FamilySpec) -> StepSequence:
    """Spell the preimage path along a walk's output.

    Position j of the word gets the family's scaled S letter of column i
    when sigma[j] is the top index t_i, and a W letter otherwise.  The
    result is validated against the permutation-closed family.
    """
    tilt = _walk_tilt(family)
    rises = _tilt(t.k, family.down_drop, tilt)  # each column's tilted rise
    if sorted(rises) != sorted(family.up_rises):
        raise WalkError("tableau heights do not permute the family's rise vector")
    expected_len = t.size + tilt  # the write count tells the three walks apart
    if len(sigma) != expected_len:
        raise WalkError(f"expected {expected_len} writes, got {len(sigma)}")
    # the signed step spelled at each entry: its column's rise on a top, else the drop
    step_at = [-family.down_drop] * (expected_len + 1)
    for v, rise in zip(t.top_row, rises):
        if 0 < v <= expected_len:
            step_at[v] = rise
    try:  # a non-int entry fails the comparison or the list index
        if min(sigma) < 1 or max(sigma) > expected_len:
            raise WalkError(f"written entries must lie in 1..{expected_len}")
        steps = tuple(map(step_at.__getitem__, sigma))
    except TypeError:
        raise WalkError("written entries must be integers") from None
    # the drop and the tilted rises are nonzero ints, so no entry needs a re-check
    out = _unchecked(StepSequence, steps=steps)
    d = validate(out, family, permute_k=True)
    if not d:
        raise WalkError(f"reconstruction is not a valid family member: {d}")
    return out


def invert(steps: StepSequence, family: FamilySpec) -> StepSequence:
    """The unique sweep preimage of a path, by fill, rank, and walk.

    Accepts any member of the permutation-closed family.  The path is
    unscaled to its plain skeleton before filling, and the family's tilt
    picks the walk; minus inversion additionally needs the filled tableau
    to be minus-admissible, which holds exactly when the skeleton returns
    to level zero only once.  Rational (m, n) paths invert when m mod n is
    0, 1 or n - 1, as plain, plus or minus paths.
    """
    d = validate(steps, family, permute_k=True)
    if not d:
        raise PathError(f"not a member of the family: {d}")
    t = fill(SWWord.from_steps(skeleton(steps, family)))
    sigma = run_walk(t, family.tilt)
    return sigma_to_preimage(sigma, t, family)
