"""Walks on ranked tableaux that reconstruct sweep preimages.

Each walk visits the tableau and writes a sequence of indices.  Spelling
the family's letters along that sequence -- an S letter on every top-row
index, a W on every other index -- gives the SW-word of the unique preimage
of the filled path under the sweep map.  The family's tilt picks the walk
(plain, plus or minus), and all three run in time linear in the number of
entries.  invert runs one pass over the path's ints: _invert_flat fills,
ranks, walks and spells for tilt 0, and _invert_tilted fills, walks and
spells for tilt +1 and -1, placing extend_plus's extra entry for +1.  It
validates its input once: each pass writes distinct entries and spells the
input's own steps, so the answer only needs its length and running minimum
checked.  The staged functions serve the fill, rank and walk pictures and
are the passes' oracle.  The plus and minus walks and the tilted pass share
one loop, _slide_walk, which reads every slide from a table built once.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain

from .paths import FamilySpec, StepSequence, _member, _tilt, _unchecked, _walk_tilt, validate
from .ranking import rank_tableau
from .tableau import Tableau, extend_plus, is_minus_admissible


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
    rank = (0, *ranks)  # rank[v] of entry v
    # ascending entries per rank; popping the back yields the largest
    # unwritten entry of that rank
    try:  # a non-int rank fails the comparison, the range or the list index
        if min(ranks) < 0:
            raise WalkError("ranks must be nonnegative")
        stacks: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
        for v in range(1, size + 1):
            stacks[rank[v]].append(v)
    except TypeError:
        raise WalkError("ranks must be integers") from None
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
    """The plus (sign +1) or minus (sign -1) walk; see walk_plus.  Each top
    writes its bottom + sign, which is flagged.  After _above, entry 1 tops
    column 1, so every bottom is at least 2, and walk_plus's bottoms are
    below size: no flag is 1 (plus) or size (minus), so no slide or write
    leaves the tableau."""
    above = _above(cols, size)
    flags = [b + sign for b in bottoms]
    for col, f in zip(cols, flags):
        above[col[0]] = ~f
    return tuple(_slide_walk(above, flags, sign, 1))


def _slide_walk(above: list, flags: list[int], sign: int, first: int) -> list[int]:
    """The tilted walk over entries first..len(above)-1, starting with first.

    above[v] is ~w for a top v that writes w, and for any other v the entry
    above it, from which the walk slides by -sign to land[], the first entry
    at or past it that is not flagged.  Slides are read from that table,
    built once, so each write costs O(1).  The walk stops at an entry already
    written (marked None in above) and must have written every entry, or,
    for the minus walk, all but one.
    """
    land = list(range(len(above)))
    for f in sorted(flags, reverse=sign < 0):  # f - sign is settled before f
        land[f] = land[f - sign]
    a = ~first
    out: list[int] = []
    write = out.append
    while True:
        target = ~a if a < 0 else land[a]
        if (a := above[target]) is None:
            break
        above[target] = None
        write(target)
    expected = len(above) - first - (sign < 0)
    if len(out) != expected:
        raise WalkError(f"walk wrote {len(out)} of the expected {expected} entries")
    return out


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
    if tuple(sorted(rises)) != family.sorted_rises:
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
    return _preimage(steps, family)


def _preimage(steps: tuple[int, ...], family: FamilySpec) -> StepSequence:
    """The spelled steps as a path, guarded: it must be a member of the
    family's closure.  Walks spell the family's drop and rises, nonzero ints,
    so no step needs the StepSequence re-check."""
    out = _unchecked(StepSequence, steps)
    d = validate(out, family, permute_k=True)
    if not d:
        raise WalkError(f"reconstruction is not a valid family member: {d}")
    return out


def _invert_flat(s: tuple[int, ...], drop: int) -> tuple[int, ...]:
    """The preimage of a validated tilt-0 path s (rises drop*k_i, drops -drop):
    fill, rank, plain walk and spelling in one pass over 0-based entries.

    Filling keeps a FIFO of the columns with room below their bottom, as
    (rank of the bottom, rank the column ends at).  A rise tops a new column
    at the latest entry's rank; a drop goes under the head's bottom and takes
    the rank after the bottom's.  The walk only ever reads the rank after an entry -- the end rank
    of a top's column, the rank above any other entry -- so that is all the
    fill keeps per entry.  The FIFO holds bottoms in index order, so a drop's
    rank is the latest rank or one more: each rank is one run of entries, and
    the walk writes its largest unwritten entry with a counter per rank,
    floored at the last entry of the rank before.
    """
    after: list[int] = []  # the rank the walk reads after writing each entry
    bottom: list[int] = []  # the FIFO's ranks of bottoms, from index head
    end: list[int] = []  # and the ranks their columns end at
    last: list[int] = []  # the last entry of each rank but the highest
    add_after, add_bottom, add_end = after.append, bottom.append, end.append
    head = rank = 0  # rank: the latest entry's, the highest so far
    for j, a in enumerate(s):
        if a > 0:
            e = rank + a // drop
            add_after(e)
            add_bottom(rank)
            add_end(e)
            continue
        r = bottom[head]
        e = end[head]
        head += 1
        add_after(r)
        if r == rank:  # entry j starts rank r + 1
            last.append(j - 1)
            rank += 1
        r += 1
        if r < e:
            add_bottom(r)
            add_end(e)
    del bottom, end
    size = len(s)
    nxt = [*last, size - 1]  # the largest unwritten entry of each rank
    floor = [-1, *last]  # the entry below each rank's run
    out: list[int] = []
    write = out.append
    r = 0  # the walk starts with the largest rank-0 entry
    while (cur := nxt[r]) != floor[r]:
        nxt[r] = cur - 1
        write(cur)
        r = after[cur]
    if len(out) != size:
        raise WalkError(f"walk stopped after {len(out)} of {size} writes")
    return tuple(map(s.__getitem__, out))


def _invert_tilted(s: tuple[int, ...], drop: int, sign: int) -> tuple[int, ...]:
    """The preimage of a validated tilt-sign path s (rises drop*k_i + sign,
    drops -drop): fill, plus or minus walk and spelling in one pass over
    0-based entries, without unscaling s; entry j spells s[j].

    The skeleton's entries are s[:-1] for sign +1, whose last step is
    extend_plus's extra entry, and s with its final drop restored for -1.
    A rise a opens a column with room for (a - sign) // drop entries below
    its top, and a drop goes under the bottom at the head of a FIFO of the
    columns with room.  A column completed at bottom j has its top write
    j + sign, which is flagged, and _slide_walk walks the table.  The plus
    extra entry goes under the last skeleton entry and leaves its column's
    designated bottom where it was.

    Sign -1 needs no top-row bound check (is_minus_admissible): a top at
    entry j meets the bound -- the rises k_i of the columns before it, plus
    one each -- only at plain level 0.  On a validated member with n ups and
    drop n, the plain level h after u >= 1 ups has tilted level n*h - u >= 0,
    so h >= 1 until the restored final drop: the skeleton returns to level
    0 only once.
    """
    if sign > 0:
        steps, size = s[:-1], len(s)
    else:
        steps, size = chain(s, (-drop,)), len(s) + 1
    above: list = [0] * size
    flags: list[int] = []  # the entries bottom + sign, ascending
    at: list[int] = []  # the FIFO's bottoms, from index head,
    room: list[int] = []  # their columns' entries still to come,
    top: list[int] = []  # and their columns' tops
    add_at, add_room, add_top = at.append, room.append, top.append
    head = 0
    try:
        for j, a in enumerate(steps):
            if a > 0:
                add_at(j)
                add_room((a - sign) // drop)
                add_top(j)
                continue
            above[j] = at[head]
            r = room[head] - 1
            t = top[head]
            head += 1
            if r:
                add_at(j)
                add_room(r)
                add_top(t)
            else:
                above[t] = ~(j + sign)
                flags.append(j + sign)
    except IndexError:  # the FIFO is empty
        raise WalkError(f"no column has room for the drop at entry {j + 1}") from None
    if head != len(at):
        raise WalkError(f"path ends while the column topped by entry {top[head] + 1} is unfilled")
    del at, room, top
    if sign > 0:
        if not flags:
            raise WalkError("path has no column to extend")
        above[size - 1] = size - 2
    out = _slide_walk(above, flags, sign, 0)
    if sign < 0 and above[size - 1] is None:  # the restored drop spells no step of s
        raise WalkError(f"written entries must lie in 1..{size - 1}")
    return tuple(map(s.__getitem__, out))


def invert(steps: StepSequence, family: FamilySpec) -> StepSequence:
    """The unique sweep preimage of a path, by fill, rank, and walk.

    Accepts any member of the permutation-closed family, and the family's
    tilt picks the walk.  Membership already makes a minus path's tableau
    minus-admissible: its skeleton returns to level zero only once.
    Rational (m, n) paths invert when m mod n is 0, 1 or n - 1, as plain,
    plus or minus paths.  Each tilt takes one pass over the path's own
    ints, _invert_flat or _invert_tilted, between the input check and the
    output guard; the public stages are the passes' oracle.

    The input is validated once, by the membership check skeleton and the
    command line share (a raw 0 step or a non-member is refused there with
    their text), and the answer is guarded by its length and running
    minimum alone.  Each pass spells s's own steps in the order
    it writes entries, and writes no entry twice: _invert_flat's counter
    per rank counts down inside that rank's run of entries, and the runs
    are disjoint; _slide_walk marks each written entry None and stops at
    the first repeat.  A full-length answer is therefore a permutation of
    the member s -- the family's rises and drops, with total 0 -- so only
    a negative prefix sum can make it a non-member.  An answer that fails
    the guard gets the full check, which names what is wrong with it.
    """
    steps = _member(steps, family)
    tilt = _walk_tilt(family)
    s, drop = steps.steps, family.down_drop
    out = _invert_tilted(s, drop, tilt) if tilt else _invert_flat(s, drop)
    if len(out) == len(s) and min(accumulate(out)) >= 0:
        return _unchecked(StepSequence, out)
    return _preimage(out, family)  # a non-member: refused with validate's diagnostic
