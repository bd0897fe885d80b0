"""Walks on ranked tableaux that reconstruct sweep preimages.

Each walk visits the tableau and writes a sequence of indices.  Spelling
the family's letters along that sequence -- an S letter on every top-row
index, a W on every other index -- gives the SW-word of the unique preimage
of the filled path under the sweep map.  All three walks, and the digraph
restatement of the plain one, run in time linear in the number of entries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .paths import (
    KIND_K,
    KIND_KMINUS,
    KIND_KPLUS,
    KIND_RATIONAL,
    FamilySpec,
    PathError,
    StepSequence,
    SWWord,
    _tilt,
    _unchecked,
    skeleton,
    validate,
)
from .ranking import RankTableau, rank_tableau
from .tableau import Tableau, TableauPlus, extend_plus, fill, is_minus_admissible

VARIANTS = ("plain", "plus", "minus", "graph")


class WalkError(ValueError):
    """Raised when a walk cannot run or cannot complete on its input."""


@dataclass(frozen=True)
class SweepPermutation:
    """The order in which a walk writes the tableau indices."""

    sigma: tuple[int, ...]
    variant: str

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise WalkError(f"unknown walk variant {self.variant!r}")
        object.__setattr__(self, "sigma", tuple(map(int, self.sigma)))

    def __len__(self) -> int:
        return len(self.sigma)

    def __iter__(self):
        return iter(self.sigma)

    def __getitem__(self, i):
        return self.sigma[i]

    def to_json(self) -> dict:
        return {"variant": self.variant, "sigma": list(self.sigma)}


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


def walk(t: Tableau, r: RankTableau) -> SweepPermutation:
    """Plain walk.

    Start by writing the largest rank-0 entry.  From a first-row box move
    to the bottom of its column, from any other box move up one box; read
    the rank there and write the largest not-yet-written entry of that
    rank.  Stop when no such entry remains; a complete run writes every
    entry exactly once.
    """
    cols = t.columns
    size = t.size
    if len(r.by_index) != size or list(map(len, r.columns)) != list(map(len, cols)):
        raise WalkError("rank tableau does not match the tableau's shape")
    if min(r.by_index) < 0:
        raise WalkError("ranks must be nonnegative")
    rank = (0,) + r.by_index  # rank[v] of entry v
    # ascending entries per rank; popping the back yields the largest
    # unwritten entry of that rank
    stacks: list[list[int]] = [[] for _ in range(max(r.by_index) + 1)]
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
    # every write is an int entry of the tableau, so sigma needs no re-check
    return _unchecked(SweepPermutation, sigma=tuple(out), variant="plain")


def walk_plus(tp: TableauPlus) -> SweepPermutation:
    """Walk for the plus family.

    Entries one more than a designated bottom are flagged.  Start by
    writing 1.  From a first-row box read the designated bottom b of the
    column and write entry b+1 -- written even when b+1 is flagged.  From
    any other box step up one box; a normal entry there is written, a
    flagged entry r slides down to r-1, r-2, ... until a normal entry
    appears, and that one is written.  The walk stops when its next write
    would repeat an index, having written every entry exactly once.
    """
    return _walk_tilted(tp.columns, tp.bottom_row, tp.size, 1)


def walk_minus(t: Tableau) -> SweepPermutation:
    """Walk for the minus family, the mirror image of walk_plus.

    Requires a minus-admissible tableau.  Entries one less than a bottom
    are flagged; first-row boxes jump to their column bottom b and write
    b-1 unconditionally; flagged entries reached from below slide upward
    to the next normal entry.  Exactly one entry stays unwritten.
    """
    if not is_minus_admissible(t):
        raise WalkError("tableau violates the strict top-row bounds")
    return _walk_tilted(t.columns, t.bottom_row, t.size, -1)


def _walk_tilted(cols, bottoms, size: int, sign: int) -> SweepPermutation:
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
    variant = "plus" if sign > 0 else "minus"
    return _unchecked(SweepPermutation, sigma=tuple(out), variant=variant)


@dataclass(frozen=True)
class RankDigraph:
    """One edge per tableau index, between ranks.

    A top-row index of rank a in a column of rise k contributes the edge
    a -> a+k; every other index of rank b contributes b -> b-1.  Vertex r
    owns the ascending list indices_by_rank[r] of indices at rank r.
    """

    edge_target: tuple[int, ...]  # edge_target[i-1] = target rank of index i
    rank_of: tuple[int, ...]
    indices_by_rank: tuple[tuple[int, ...], ...]
    top_indices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.edge_target)

    def balance(self) -> dict[int, tuple[int, int, int]]:
        """Per-vertex (in-degree, out-degree, #indices at the rank)."""
        n_ranks = len(self.indices_by_rank)
        indeg = [0] * n_ranks
        outdeg = [0] * n_ranks
        for v, tgt in enumerate(self.edge_target, start=1):
            outdeg[self.rank_of[v - 1]] += 1
            indeg[tgt] += 1
        return {
            r: (indeg[r], outdeg[r], len(self.indices_by_rank[r]))
            for r in range(n_ranks)
        }

    @property
    def is_balanced(self) -> bool:
        return all(i == o == s for i, o, s in self.balance().values())


def build_rank_digraph(t: Tableau, r: RankTableau) -> RankDigraph:
    """The rank digraph of a ranked tableau."""
    by_index = r.by_index
    size = t.size
    if len(by_index) != size:
        raise WalkError("rank tableau does not match the tableau's shape")
    top_of = dict(zip(t.top_row, t.k))
    max_rank = max(by_index)
    targets = []
    for v in range(1, size + 1):
        rv = by_index[v - 1]
        if v in top_of:
            tgt = rv + top_of[v]
        else:
            tgt = rv - 1
        if tgt < 0 or tgt > max_rank:
            raise WalkError(f"edge of index {v} leaves the rank range")
        targets.append(tgt)
    by_rank: list[list[int]] = [[] for _ in range(max_rank + 1)]
    for v, rv in enumerate(by_index, start=1):
        by_rank[rv].append(v)
    return RankDigraph(
        tuple(targets),
        tuple(by_index),
        tuple(tuple(s) for s in by_rank),
        frozenset(top_of),
    )


def walk_graph(g: RankDigraph) -> SweepPermutation:
    """The plain walk restated on the rank digraph.

    Mark the largest index at rank 0, then repeatedly follow the edge of
    the just-marked index and mark the largest unmarked index at the target
    rank, stopping when that rank is exhausted.
    """
    stacks = [list(s) for s in g.indices_by_rank]
    if not stacks or not stacks[0]:
        raise WalkError("no rank-0 index to start from")
    out = [stacks[0].pop()]
    while True:
        tgt = g.edge_target[out[-1] - 1]
        bucket = stacks[tgt]
        if not bucket:
            break
        out.append(bucket.pop())
    if len(out) != g.size:
        raise WalkError(f"walk stopped after {len(out)} of {g.size} writes")
    return SweepPermutation(tuple(out), "graph")


# walk variants per k-vector kind; the first is the one invert runs
_KIND_VARIANTS = {
    KIND_K: ("plain", "graph"),
    KIND_KPLUS: ("plus",),
    KIND_KMINUS: ("minus",),
}


def variant_for(kind: str, variant: str | None = None) -> str:
    """The walk variant to run for a kind: the given one, checked, or the default."""
    variants = _KIND_VARIANTS.get(kind)
    if variants is None:
        raise PathError("rational paths have no walk")
    if variant is not None and variant not in variants:
        raise WalkError(f"variant {variant!r} does not fit family kind {kind!r}")
    return variant or variants[0]


def run_walk(t: Tableau, variant: str) -> SweepPermutation:
    """Run a walk, as picked by variant_for, on the tableau of a path's skeleton."""
    if variant == "plain":
        return walk(t, rank_tableau(t))
    if variant == "graph":
        return walk_graph(build_rank_digraph(t, rank_tableau(t)))
    if variant == "plus":
        return walk_plus(extend_plus(t))
    return walk_minus(t)


def sigma_to_preimage(
    sigma: SweepPermutation, t: Tableau, family: FamilySpec
) -> StepSequence:
    """Spell the preimage path along a walk's output.

    Position j of the word gets the family's scaled S letter of column i
    when sigma[j] is the top index t_i, and a W letter otherwise.  The
    result is validated against the permutation-closed family.
    """
    variant_for(family.kind, sigma.variant)
    k, tilt = t.k, family.tilt
    if sorted(k) != sorted(family.k):
        raise WalkError("tableau heights do not permute the family's rise vector")
    expected_len = t.size + tilt
    if len(sigma) != expected_len:
        raise WalkError(f"expected {expected_len} writes, got {len(sigma)}")
    if min(sigma.sigma) < 1 or max(sigma.sigma) > expected_len:
        raise WalkError(f"written entries must lie in 1..{expected_len}")
    # the signed step spelled at each entry: its column's rise on a top, else the drop
    step_at = [-family.down_drop] * (expected_len + 1)
    for v, rise in zip(t.top_row, _tilt(k, family.scale, tilt)):
        if 0 < v <= expected_len:
            step_at[v] = rise
    # the drop and the tilted rises are nonzero ints, so no entry needs a re-check
    out = _unchecked(StepSequence, steps=tuple(map(step_at.__getitem__, sigma.sigma)))
    d = validate(out, family, permute_k=True)
    if not d:
        raise WalkError(f"reconstruction is not a valid family member: {d}")
    return out


def invert(steps: StepSequence, family: FamilySpec) -> StepSequence:
    """The unique sweep preimage of a path, by fill, rank, and walk.

    Accepts any member of the permutation-closed family.  Plus and minus
    paths are unscaled to their underlying plain path before filling; minus
    inversion additionally needs the filled tableau to be minus-admissible,
    which holds exactly when that underlying path returns to level zero
    only once.
    """
    if family.kind == KIND_RATIONAL:
        raise PathError("inversion is not available for rational paths")
    d = validate(steps, family, permute_k=True)
    if not d:
        raise PathError(f"not a member of the family: {d}")
    t = fill(SWWord.from_steps(skeleton(steps, family)))
    sigma = run_walk(t, variant_for(family.kind))
    return sigma_to_preimage(sigma, t, family)
