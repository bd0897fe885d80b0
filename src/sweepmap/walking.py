"""Walks on filled tableaux that reconstruct sweep preimages.

Each walk writes a sequence of a tableau's indices.  Spelling the family's
letters along it -- an S letter on every top-row index, a W on every other
-- gives the SW-word of the unique preimage of the filled path under the
sweep map.  _route picks the pass by the family's tilt, one linear pass over
a path's ints: _flat_order for tilt 0, and for -1 on the path with its final
drop restored; for +1 _upward_order, which writes each rank from its
smallest entry.  Both end in one walk loop, _walk; no pass slides.  invert
runs the pass on a member, and through _order so do the command line's walk
and the tableau walks, on the word of a fill.  The staged fill and rank serve
the pictures, and with the tests' paper-worded walks they are its oracle.
"""

from __future__ import annotations

from itertools import accumulate

from .paths import (FamilySpec, StepSequence, SWWord, _gather, _lift_ints, _member, _tilt,
                    _unchecked, _walk_tilt, validate)
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

    The paper words it with flags and slides (extend_plus's index size+1
    under the largest entry, and entries one more than a column's bottom
    flagged); it writes every index 1..size+1 once.  Runs the upward pass on
    the skeleton's word lifted by +1: the plain walk, each rank written from
    its smallest entry (see _route).
    """
    return tuple(v + 1 for v in _order(_lift_ints(_skeleton_ints(t), 1, 1), 1, 1))


def walk_minus(t: Tableau) -> tuple[int, ...]:
    """Walk for the minus family, the mirror image of walk_plus.

    Requires a minus-admissible tableau of T_k.  Entries one less than a
    bottom are flagged; first-row boxes jump to their column bottom b and
    write b-1 unconditionally; flagged entries reached from below slide
    upward to the next normal entry.  Exactly one entry, the last, stays
    unwritten.  Runs the flat pass on the skeleton's word lifted by -1 at
    drop 2 (rises 2k_i - 1 > 0), its final drop restored after the first step.
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
    out = _route(s, drop, tilt)[1]
    return [v - (v > 1) for v in out] if tilt < 0 else out  # entry v >= 2 read is s's v - 1


def _route(s, drop: int, tilt: int) -> tuple:
    """The steps the walk of a family's tilt reads from its member s, and the
    0-based order it writes them in: s for tilt 0 and +1; for -1, s with its
    final drop restored after the first step, less that drop's write.

    Let P be the skeleton of p = s, with drop n and tilt t.  After u ups at
    plain level h, p is at level n*h + t*u, 0 <= u <= n, and two steps at
    one h have an up between them.  For +1, n*h + u <= n*(h + 1), equal only
    at u = n, and only p's first step has u = 0: the sweep's order is (h,
    index ascending), p's extra drop, at h = 0 and u = n, the last at rank
    0, and the plain walk writing each rank's smallest unwritten entry
    writes p.  For -1, u >= 1 past the first step, so the order, level then
    index descending, is (h, index descending), P's plain sweep.  Only P's
    first step starts at level 0 and the restored drop is the last at 1: P's
    image is p's with it at index 1, and the plain walk on that writes P,
    the drop last.  On any ints the pass writes entry 1 last or refuses:
    entry 0 is alone at rank 0, and entry 1, a drop, reads rank 0, which
    ends the walk.  P is at level 0 only at its ends, where alone a top
    meets its bound: its tableau is minus-admissible.
    """
    if tilt >= 0:
        return s, _upward_order(s, drop) if tilt else _flat_order(s, drop, 0)
    s = (*s[:1], -drop, *s[1:])
    out = _flat_order(s, drop, tilt)
    out.pop()  # entry 1
    return s, out


def _flat_order(s, drop: int, tilt: int) -> list[int]:
    """The 0-based order in which the plain walk writes the entries of a
    validated path s (rises drop*k_i + tilt, for tilt 0 or -1, drops -drop):
    fill, rank and walk in one pass.  On any other list of ints it returns a
    permutation of range(len(s)) or raises WalkError.

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
    bottoms of rank hi are left.  A drop that finds none is refused by _walk's
    count: rank lo is read once too often, so some rank is read too rarely.

    Each rank is one run of entries, and _walk writes its largest
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
                e = hi + (a - tilt) // drop
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
    # the largest unwritten entry of each rank, counting down to the entry below its run
    return _walk(after, [*floor[1:], size - 1], floor, -1, hi)


def _upward_order(s, drop: int) -> list[int]:
    """The 0-based order in which the plus walk writes the entries of a
    validated tilt +1 path s (rises drop*k_i + 1, drops -drop), in one pass:
    _flat_order's fill and walk, each rank's counter run upward from its
    smallest entry (see _route).  On any other ints it returns a permutation
    of range(len(s)) or raises WalkError.

    After a rise a at rank hi the walk reads rank hi + (a - 1) // drop, and
    after a drop the rank below, -1 after the extra drop.  Every step but
    the first follows one that ends at its level -- a drop, or a rise whose
    column ends there -- and every such step has one after it, the last the
    extra drop: rank r + 1 holds the entries of rank r, less the columns
    ending at rank r and 1 at r = 0, as drops, and rank 0 holds one.  A
    level's last step is a drop, so each run ends with its last drop: the
    fill counts the drops left in the latest rank.  Rank -1, and the rank
    past the last, read an empty sentinel counter.  Entries past the last
    closed run are in no counter, so _walk's count refuses them.
    """
    size = len(s)
    after: list[int] = []  # the rank the walk reads after writing each entry
    add = after.append
    ends = [0] * (size + 2)  # the number of columns whose last entry has each rank
    ends[0] = 1  # the first step's, which follows no step
    start = [0]  # the first entry of each rank's run
    lo, hi, left = -1, 0, 1  # drops of rank hi read lo = hi - 1, left of them to come
    try:
        for j, a in enumerate(s):
            if a > 0:
                e = hi + (a - 1) // drop
                add(e)
                ends[e] += 1
                continue
            add(lo)
            left -= 1
            if not left:  # entry j ends rank hi
                lo, hi, left = hi, hi + 1, j + 1 - start[-1] - ends[hi]
                start.append(j + 1)
    except IndexError:  # ends[e] for e past size + 1
        raise WalkError(f"the column topped by entry {j + 1} is longer than the path") from None
    # each rank's smallest unwritten entry, counting up to the entry past its run; then rank -1's
    return _walk(after, [*start[:-1], size], [*start[1:], size], 1, lo)


def _walk(after: list[int], nxt: list[int], stop: list[int], step: int, last: int) -> list[int]:
    """The walk both passes end in: write rank 0's next entry, and after
    each entry that of rank after[entry], until a rank's counter nxt[r]
    reaches stop[r].  A counter moves by step, -1 or +1, inside its rank's
    run and stops at the run's far end, so no entry is written twice; a
    walk that writes fewer than all of them, or reads a rank past the
    last, raises WalkError."""
    out: list[int] = []
    write = out.append
    r = 0
    try:
        while (cur := nxt[r]) != stop[r]:
            nxt[r] = cur + step
            write(cur)
            r = after[cur]
    except IndexError:  # a column's last rank that no entry has
        raise WalkError(f"walk reads rank {r}, past the last rank {last}") from None
    if len(out) < len(after):
        raise WalkError(f"walk stopped after {len(out)} of {len(after)} writes")
    return out


def invert(steps: StepSequence, family: FamilySpec) -> StepSequence:
    """The unique sweep preimage of a path, by fill, rank, and walk.

    Accepts any member of the permutation-closed family; rational (m, n)
    paths invert when m mod n is 0, 1 or n - 1, as plain, plus or minus
    paths.  The answer spells the steps _route's pass reads, in write order.

    The input is validated once, by the membership check skeleton and the
    command line share (a raw 0 step or a non-member is refused there with
    their text), and the answer is guarded by its length and running
    minimum alone.  No pass writes an entry twice: _walk's counter per rank
    stays inside that rank's run of entries, and the runs are disjoint; the
    minus route leaves out the restored drop.  A full-length answer is thus
    a permutation of the member s -- the family's rises and drops, total 0
    -- so only a negative prefix sum makes it a non-member, and a failing
    answer gets the full check, which names it.
    """
    s = _member(steps, family).steps
    read, order = _route(s, family.down_drop, _walk_tilt(family))
    out = _gather(read, order)
    if len(out) == len(s) and min(accumulate(out)) >= 0:
        return _unchecked(StepSequence, out)
    return _preimage(out, family)  # a non-member: refused with validate's diagnostic
