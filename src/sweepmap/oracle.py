"""Exhaustive ground truth for small instances.

Enumerates whole families, of every kind, by depth-first search over their
rises and drop, and searches and sweeps each permutation closure once into a
memo that enumeration, brute-force inversion and the bijection certificate
read.  All of it is independent of the walk-based inversion, so the two can
check each other.
"""

from __future__ import annotations

from itertools import chain, permutations

from .paths import FamilySpec, StepSequence, _Record, _unchecked, emit_steps
from .sweep import sweep

DEFAULT_MAX_N = 5
DEFAULT_MAX_K = 4


class OracleError(ValueError):
    """Raised for exceeded bounds or impossible preimage requests."""


class FamilyEnumeration(_Record):
    """Every path of a family (or its permutation closure), in DFS order, and their count."""

    __match_args__ = ("family", "permuted", "paths", "counts")  # counts: per ordering of k

    def __init__(self, family: FamilySpec, permuted: bool, paths: tuple[StepSequence, ...],
                 counts: dict[tuple[int, ...], int]) -> None:
        self.__dict__.update(family=family, permuted=permuted, paths=paths, counts=counts,
                             count=len(paths))

    def to_json(self) -> dict:
        return {
            "family": self.family.to_json(),
            "permuted": self.permuted,
            "count": self.count,
            "counts": {
                ",".join(str(v) for v in key): c for key, c in self.counts.items()
            },
            "paths": [list(p) for p in self.paths],
        }


def _check_bounds(family: FamilySpec, max_n: int, max_k: int) -> None:
    if family.n_up > max_n:
        raise OracleError(f"n={family.n_up} exceeds the bound {max_n}")
    # the largest k_i of rise = drop*k_i + tilt; m // n for a rational family with no walk
    k = (family.sorted_rises[-1] - (family.tilt or 0)) // family.down_drop
    if k > max_k:
        raise OracleError(f"max k_i={k} exceeds the bound {max_k}")


def _paths_for(rises: tuple[int, ...], drop: int, n_down: int) -> list[StepSequence]:
    """Depth-first search over interleavings with nonnegative running height.

    The stack holds each down branch beneath its up branch, so paths come out
    in S-before-W lexicographic order.  Once the ups run out the height is
    drop times the remaining downs, which are appended at once.
    """
    n = len(rises)
    tails = [(-drop,) * j for j in range(n_down + 1)]  # tails[j]: j drops
    paths: list[StepSequence] = []
    stack = [((), 0, n_down, 0)]  # prefix, ups placed, downs left, height
    while stack:
        prefix, i, left, h = stack.pop()
        if i == n:
            paths.append(_unchecked(StepSequence, prefix + tails[left]))
            continue
        if left and h >= drop:
            stack.append((prefix + tails[1], i, left - 1, h - drop))
        stack.append((prefix + (rises[i],), i + 1, left, h + rises[i]))
    return paths


def _search(rises: tuple[int, ...], drop: int) -> dict[tuple[int, ...], list[StepSequence]]:
    """Each distinct ordering of the rises, sorted, with its paths."""
    n_down = sum(rises) // drop
    return {o: _paths_for(o, drop, n_down) for o in sorted(set(permutations(rises)))}


def enumerate_family(
    family: FamilySpec,
    permute_k: bool = False,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
) -> FamilyEnumeration:
    """All valid paths of the family, deterministically ordered.

    With permute_k the rise vector ranges over all its distinct orderings
    (sorted), and the result is their concatenation.  A closure that the
    oracle memo holds is read from it, not searched again.
    """
    _check_bounds(family, max_n, max_k)
    if family.k and not permute_k:
        groups = {family.k: _paths_for(family.up_rises, family.down_drop, family.n_down)}
    else:  # a rational family has one ordering, keyed by its rises
        key = (family.sorted_rises, family.down_drop)
        found = _closures[key][0] if key in _closures else _search(*key)
        # drop*k_i + tilt increases with k_i: the sorted orderings of k and of the rises pair up
        groups = dict(zip(family.orderings() if family.k else found, found.values()))
    paths = tuple(p for ps in groups.values() for p in ps)
    return FamilyEnumeration(family, permute_k, paths, {o: len(ps) for o, ps in groups.items()})


# (sorted rises, drop) -> a closure, as _closure builds it: 8 kept, least recently used first
_closures: dict[tuple[tuple[int, ...], int], tuple[dict, dict, dict]] = {}


def _closure(family: FamilySpec, max_n: int, max_k: int):
    """The family's permutation closure: its paths by ordering, then path -> image in
    enumeration order and image -> preimages, keyed by step tuples.  Searched and swept
    once per (sorted rises, drop), whatever kind names them; the last 8 are kept."""
    _check_bounds(family, max_n, max_k)
    key = (family.sorted_rises, family.down_drop)
    closure = _closures.pop(key, None)
    if closure is None:
        by_ordering = _search(*key)
        images, index = {}, {}  # path -> image, image -> preimage StepSequences
        for p in chain.from_iterable(by_ordering.values()):
            q = images[p.steps] = sweep(p).steps
            index.setdefault(q, []).append(p)
        closure = by_ordering, images, index
    _closures[key] = closure
    if len(_closures) > 8:
        del _closures[next(iter(_closures))]
    return closure


def brute_invert(
    steps: StepSequence,
    family: FamilySpec,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
) -> StepSequence:
    """Preimage by lookup in the memoized sweep of the closure; none or several raise."""
    if not isinstance(steps, StepSequence):
        steps = StepSequence(steps)
    preimages = _closure(family, max_n, max_k)[2].get(steps.steps, ())
    if not preimages:
        raise OracleError(f"no preimage of {emit_steps(steps)} in the family")
    if len(preimages) > 1:
        raise OracleError(f"multiple preimages of {emit_steps(steps)} in the family")
    return preimages[0]


class BijectionReport(_Record):
    """Result of certifying the sweep map over an enumerated family."""

    __match_args__ = ("family", "count", "bijection", "counterexample")

    def __init__(self, family: FamilySpec, count: int, bijection: bool,
                 counterexample: dict | None) -> None:
        self.__dict__.update(family=family, count=count, bijection=bijection,
                             counterexample=counterexample)

    def to_json(self) -> dict:
        return {
            "family": self.family.to_json(),
            "count": self.count,
            "bijection": self.bijection,
            "counterexample": self.counterexample,
        }


def certify_bijection(
    family: FamilySpec, max_n: int = DEFAULT_MAX_N, max_k: int = DEFAULT_MAX_K
) -> BijectionReport:
    """Check that the memoized sweep maps the family's permutation closure
    bijectively onto itself.

    Injectivity plus image-inside-domain over a finite set of equal size is
    a bijection; the first violation of either becomes the counterexample.
    The closure's index lists each image's preimages in enumeration order, so
    a path that is not the first of its image's collides with that first.
    """
    _, images, index = _closure(family, max_n, max_k)
    counterexample = None
    for p, q in images.items():
        if q not in images:
            counterexample = {
                "kind": "image-outside-family",
                "path": emit_steps(p),
                "image": emit_steps(q),
            }
            break
        if (first := index[q][0]).steps != p:
            counterexample = {
                "kind": "collision",
                "first": emit_steps(first),
                "second": emit_steps(p),
                "image": emit_steps(q),
            }
            break
    return BijectionReport(family, len(images), counterexample is None, counterexample)
