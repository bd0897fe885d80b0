"""Walks on filled tableaux that reconstruct sweep preimages.

Each walk writes a sequence of a tableau's indices.  Spelling the family's
letters along it -- an S letter on every top-row index, a W on every other
-- gives the SW-word of the unique preimage of the filled path under the
sweep map.  _order picks the walk by the family's tilt, one linear pass over
a path's ints that returns the 0-based order it writes: _flat_order fills,
ranks and walks for tilt 0, and _tilted_order fills and walks for tilt +1
and -1, sliding past flagged entries one at a time.  invert and the command
line's walk run it on a member; walk, walk_plus and walk_minus, for the
library and the tests, run it on the word of a tableau of T_k, a fill.  The
staged fill and rank serve the command line's pictures, and with the
tests' paper-worded walks they are the passes' oracle.
"""

from __future__ import annotations

from itertools import accumulate, chain

from .paths import (FamilySpec, StepSequence, SWWord, _lift_ints, _member, _tilt, _unchecked,
                    _walk_tilt, validate)
from .tableau import Tableau, TableauError, fill, is_minus_admissible


class WalkError(ValueError):
    """Raised when a walk cannot run or cannot complete on its input."""


def _skeleton_ints(t: Tableau) -> list[int]:
    """The word t is the fill of, as ints: k_i at the top of column i and -1
    at every other entry.  Refused unless fill gives t back, so the walks
    run only on tableaux of T_k, where the word is a member of the plain
    family's closure and every pass completes."""
    ints = [-1] * t.size
    try:
        for col in t.columns:
            ints[col[0] - 1] = len(col) - 1
        if fill(SWWord.from_steps(ints)) == t:
            return ints
    except (IndexError, TableauError):  # a top past size, or a word fill refuses
        pass
    raise WalkError("tableau is not the fill of any word")


def walk(t: Tableau) -> tuple[int, ...]:
    """Plain walk on a tableau of T_k, ranked by rank_tableau.

    Start by writing the largest rank-0 entry.  From a first-row box move
    to the bottom of its column, from any other box move up one box; read
    the rank there and write the largest not-yet-written entry of that
    rank.  Stop when no such entry remains; a complete run writes every
    entry exactly once.  Runs the flat pass on the skeleton's word.
    """
    return tuple(v + 1 for v in _order(_skeleton_ints(t), 1, 0))


def walk_plus(t: Tableau) -> tuple[int, ...]:
    """Walk for the plus family, on a tableau of T_k as extend_plus extends it.

    Index size+1 goes directly under the largest entry.  Each column's
    designated bottom is its last entry in t, so the extended column's is
    the entry above size+1.  Entries one more than a designated bottom are
    flagged.  Start by writing 1.  From a first-row box read the designated
    bottom b of the column and write entry b+1 -- written even when b+1 is
    flagged.  From any other box step up one box; a normal entry there is
    written, a flagged entry r slides down to r-1, r-2, ... until a normal
    entry appears, and that one is written.  The walk stops when its next
    write would repeat an index, having written every index 1..size+1
    exactly once.  Runs the tilted pass on the skeleton's word lifted by +1.
    """
    # lifted with drop 2: any drop keeps each column's room at k_i, and drop 2
    # keeps the minus walk's rise 2k_i - 1 positive at k_i = 1
    return tuple(v + 1 for v in _order(_lift_ints(_skeleton_ints(t), 2, 1), 2, 1))


def walk_minus(t: Tableau) -> tuple[int, ...]:
    """Walk for the minus family, the mirror image of walk_plus.

    Requires a minus-admissible tableau of T_k.  Entries one less than a
    bottom are flagged; first-row boxes jump to their column bottom b and
    write b-1 unconditionally; flagged entries reached from below slide
    upward to the next normal entry.  Exactly one entry stays unwritten.
    Runs the tilted pass on the skeleton's word lifted by -1, whose final
    drop, removed by the lift, the pass restores.
    """
    ints = _skeleton_ints(t)
    if not is_minus_admissible(t):
        raise WalkError("tableau violates the strict top-row bounds")
    return tuple(v + 1 for v in _order(_lift_ints(ints, 2, -1), 2, -1))


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


def _order(s, drop: int, tilt: int) -> list[int]:
    """The 0-based order in which the walk of a family's tilt writes its member s."""
    return _tilted_order(s, drop, tilt) if tilt else _flat_order(s, drop)


def _flat_order(s, drop: int) -> list[int]:
    """The 0-based order in which the plain walk writes the entries of a
    validated tilt-0 path s (rises drop*k_i, drops -drop): fill, rank and
    walk in one pass.  On any other list of ints it returns a permutation
    of range(len(s)) or raises WalkError.

    The walk only ever reads the rank after an entry -- the rank of its
    column's last entry for a top, the rank of the entry above for any
    other -- so that is all the fill keeps per entry.  A drop goes under
    the bottom that has waited longest and takes the rank after that
    bottom's.  Every new bottom has the latest rank hi: a top takes the
    latest entry's rank, a drop under a bottom of rank hi - 1 has rank hi,
    and a drop under a bottom of rank hi starts rank hi + 1.  So bottoms
    are taken in rank order, a drop takes one of the lowest rank left, lo =
    hi - 1, and since the drop records only lo, the bottoms of one rank are
    interchangeable: the fill counts the ones of rank lo still left.

    When none is left, drop j takes a bottom of rank hi and starts rank
    hi + 1.  The entries of rank hi are the run floor[-1] + 1 .. j - 1, all
    placed before j; each became a bottom unless it is the last entry of
    its column, and none has been taken.  With ends[e] the number of
    columns whose last entry has rank e, j - floor[-1] - 1 - ends[hi]
    bottoms of rank hi are left.  A count below 0 at the end is a drop that
    found no bottom.

    Each rank is one run of entries, and the walk writes its largest
    unwritten entry with a counter per rank, floored at the last entry of
    the rank before.
    """
    size = len(s)
    after: list[int] = []  # the rank the walk reads after writing each entry
    add = after.append
    ends = [0] * (size + 2)  # the number of columns whose last entry has each rank
    floor = [-1]  # the entry below each rank's run
    lo = hi = left = 0  # drops take bottoms of rank lo, left of them; hi is the latest rank
    try:
        for j, a in enumerate(s):
            if a > 0:
                e = hi + a // drop
                add(e)
                ends[e] += 1
                continue
            if not left:  # entry j starts rank hi + 1
                lo, hi, left = hi, hi + 1, j - floor[-1] - 1 - ends[hi]
                floor.append(j - 1)
            add(lo)
            left -= 1
    except IndexError:  # ends[e] for e past size + 1
        raise WalkError(f"the column topped by entry {j + 1} is longer than the path") from None
    if left < 0:
        raise WalkError("a drop finds no column with room")
    nxt = [*floor[1:], size - 1]  # the largest unwritten entry of each rank
    out: list[int] = []
    write = out.append
    r = 0  # the walk starts with the largest rank-0 entry
    try:
        while (cur := nxt[r]) != floor[r]:
            nxt[r] = cur - 1
            write(cur)
            r = after[cur]
    except IndexError:  # a column's last rank that no entry has
        raise WalkError(f"walk reads rank {r}, past the last rank {hi}") from None
    if len(out) != size:
        raise WalkError(f"walk stopped after {len(out)} of {size} writes")
    return out


def _tilted_order(s, drop: int, sign: int) -> list[int]:
    """The 0-based order in which the plus (sign +1) or minus (sign -1) walk
    writes the entries of a validated tilt-sign path s (rises drop*k_i + sign,
    drops -drop): fill and walk in one pass, without unscaling s.

    The skeleton's entries are s[:-1] for sign +1, whose last step is
    extend_plus's extra entry, and s with its final drop restored for -1.
    A rise a opens a column with room for (a - sign) // drop entries below
    its top, and a drop goes under the bottom at the head of a FIFO of the
    columns with room.  A column completed at bottom j has its top write
    j + sign, which is flagged.  The plus extra entry goes under the last
    skeleton entry and leaves its column's designated bottom where it was.

    above[v] is then ~w for a top v that writes w, flagged or not, and for
    any other v the entry above it, from which the walk slides by -sign
    while the entry is flagged, at most to entry 0 (+1) or size - 1 (-1),
    which no flag j + sign is.  The walk starts at entry 0, stops at an
    entry already written (marked None in above) and must have written
    every entry, or, for the minus walk, all but the last, the restored
    drop.  No top writes that, and a slide reaches it only from an entry a
    whose later entries all complete columns: a entered the FIFO last, so
    the drop went under a, and the walk steps to a only from the drop.

    Slides are amortized O(1) per write, for any ints.  Every slide past a
    flagged entry f lands on the first unflagged entry past f.  Each slide
    but the walk's last writes where it lands, no entry twice, so at most
    one of them passes f, and the last passes it at most once more.  A
    column flags at most one entry: slides total 2 * columns steps at most.

    Sign -1 needs no top-row bound check (is_minus_admissible): a top at
    entry j meets the bound -- the rises k_i of the columns before it, plus
    one each -- only at plain level 0.  On a validated member with n ups and
    drop n, the plain level h after u >= 1 ups has tilted level n*h - u >= 0,
    so h >= 1 until the restored final drop: the skeleton returns to level 0
    only once, and its tableau is minus-admissible.
    """
    if sign > 0:
        steps, size = s[:-1], len(s)
    else:
        steps, size = chain(s, (-drop,)), len(s) + 1
    above: list = [0] * size
    flagged = bytearray(size)  # 1 at each entry bottom + sign
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
                flagged[j + sign] = 1
    except IndexError:  # the FIFO is empty
        raise WalkError(f"no column has room for the drop at entry {j + 1}") from None
    if head != len(at):
        raise WalkError(f"path ends while the column topped by entry {top[head] + 1} is unfilled")
    del at, room, top
    if sign > 0:
        if size < 2:  # s[:-1] is empty
            raise WalkError("path has no column to extend")
        above[size - 1] = size - 2
    out: list[int] = []
    write = out.append
    target = 0
    while (a := above[target]) is not None:
        above[target] = None
        write(target)
        if a < 0:
            target = ~a
            continue
        while flagged[a]:
            a -= sign
        target = a
    expected = size - (sign < 0)
    if len(out) != expected:
        raise WalkError(f"walk wrote {len(out)} of the expected {expected} entries")
    return out


def invert(steps: StepSequence, family: FamilySpec) -> StepSequence:
    """The unique sweep preimage of a path, by fill, rank, and walk.

    Accepts any member of the permutation-closed family; rational (m, n)
    paths invert when m mod n is 0, 1 or n - 1, as plain, plus or minus
    paths.  The family's tilt picks one pass over the path's own ints
    (_order), and the answer spells s's steps in the order the pass writes.

    The input is validated once, by the membership check skeleton and the
    command line share (a raw 0 step or a non-member is refused there with
    their text), and the answer is guarded by its length and running
    minimum alone.  Each pass writes no entry twice: _flat_order's counter
    per rank counts down inside that rank's run of entries, and the runs
    are disjoint; _tilted_order marks each written entry None and stops at
    the first repeat.  A full-length answer is therefore a permutation of
    the member s -- the family's rises and drops, with total 0 -- so only
    a negative prefix sum can make it a non-member.  An answer that fails
    the guard gets the full check, which names what is wrong with it.
    """
    s = _member(steps, family).steps
    out = tuple(map(s.__getitem__, _order(s, family.down_drop, _walk_tilt(family))))
    if len(out) == len(s) and min(accumulate(out)) >= 0:
        return _unchecked(StepSequence, out)
    return _preimage(out, family)  # a non-member: refused with validate's diagnostic
