"""Exhaustive ground truth for small instances.

Enumerates whole families, of every kind, by depth-first search over their
rises and drop, and sweeps each permutation closure once into a memo; brute-force
inversion and the bijection certificate both read that memo.  Everything here is
independent of the walk-based inversion so the two can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .paths import FamilySpec, StepSequence, emit_steps
from .sweep import sweep

DEFAULT_MAX_N = 5
DEFAULT_MAX_K = 4


class OracleError(ValueError):
    """Raised for exceeded bounds or impossible preimage requests."""


@dataclass(frozen=True)
class FamilyEnumeration:
    """Every path of a family (or its permutation closure), in DFS order."""

    family: FamilySpec
    permuted: bool
    paths: tuple[StepSequence, ...]
    counts: dict[tuple[int, ...], int]  # paths per rise-vector ordering

    @property
    def count(self) -> int:
        return len(self.paths)

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
    k = (max(family.up_rises) - (family.tilt or 0)) // family.down_drop
    if k > max_k:
        raise OracleError(f"max k_i={k} exceeds the bound {max_k}")


def _paths_for(rises: tuple[int, ...], drop: int, n_down: int):
    """DFS over interleavings with nonnegative running height.

    The up branch is explored before the down branch, so paths come out in
    S-before-W lexicographic order.  Every leaf is valid: once the ups run
    out the height equals drop times the remaining downs.
    """
    n = len(rises)
    path: list[int] = []

    def rec(i_up: int, used_down: int, h: int):
        if i_up == n and used_down == n_down:
            yield StepSequence(tuple(path))
            return
        if i_up < n:
            path.append(rises[i_up])
            yield from rec(i_up + 1, used_down, h + rises[i_up])
            path.pop()
        if used_down < n_down and h >= drop:
            path.append(-drop)
            yield from rec(i_up, used_down + 1, h - drop)
            path.pop()

    yield from rec(0, 0, 0)


def enumerate_family(
    family: FamilySpec,
    permute_k: bool = False,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
) -> FamilyEnumeration:
    """All valid paths of the family, deterministically ordered.

    With permute_k the rise vector ranges over all its distinct orderings
    (sorted), and the result is their concatenation.
    """
    _check_bounds(family, max_n, max_k)
    orderings = family.orderings() if permute_k else (family.k,)
    # drop*k_i + tilt increases with k_i: the sorted orderings of k and of the rises pair up
    groups = dict(zip(orderings, _by_ordering(family.up_rises, family.down_drop, permute_k)))
    paths = tuple(p for ps in groups.values() for p in ps)
    return FamilyEnumeration(family, permute_k, paths, {o: len(ps) for o, ps in groups.items()})


def _by_ordering(rises: tuple[int, ...], drop: int, permute: bool):
    """The paths of the rises in their order, or of each distinct ordering, sorted."""
    n_down = sum(rises) // drop
    for ordering in sorted(set(permutations(rises))) if permute else (rises,):
        yield tuple(_paths_for(ordering, drop, n_down))


@lru_cache(maxsize=8)
def _sweep_closure(rises: tuple[int, ...], drop: int):
    """Path -> image in enumeration order, and image -> preimages, kept for 8 closures
    of sorted rises and drop, whatever kind names them."""
    images = {p: sweep(p) for ps in _by_ordering(rises, drop, True) for p in ps}
    preimages: dict[StepSequence, list[StepSequence]] = {}
    for p, q in images.items():
        preimages.setdefault(q, []).append(p)
    return images, {q: tuple(ps) for q, ps in preimages.items()}


def _closure(family: FamilySpec, max_n: int, max_k: int):
    """The family's permutation closure, enumerated and swept once per (sorted rises, drop)."""
    _check_bounds(family, max_n, max_k)
    return _sweep_closure(tuple(sorted(family.up_rises)), family.down_drop)


def brute_invert(
    steps: StepSequence,
    family: FamilySpec,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
) -> StepSequence:
    """Preimage by lookup in the memoized sweep of the closure; none or several raise."""
    if not isinstance(steps, StepSequence):
        steps = StepSequence(steps)
    _, index = _closure(family, max_n, max_k)
    preimages = index.get(steps, ())
    if not preimages:
        raise OracleError(f"no preimage of {emit_steps(steps)} in the family")
    if len(preimages) > 1:
        raise OracleError(f"multiple preimages of {emit_steps(steps)} in the family")
    return preimages[0]


@dataclass(frozen=True)
class BijectionReport:
    """Result of certifying the sweep map over an enumerated family."""

    family: FamilySpec
    permuted: bool
    count: int
    bijection: bool
    counterexample: dict | None

    def to_json(self) -> dict:
        return {
            "family": self.family.to_json(),
            "count": self.count,
            "bijection": self.bijection,
            "counterexample": self.counterexample,
        }


def certify_bijection(
    family: FamilySpec,
    permute_k: bool = True,
    max_n: int = DEFAULT_MAX_N,
    max_k: int = DEFAULT_MAX_K,
) -> BijectionReport:
    """Check that the memoized sweep maps the family bijectively onto itself.

    Without permute_k the domain is the paths of the family's own ordering.
    Injectivity plus image-inside-domain over a finite set of equal size is
    a bijection; the first violation of either becomes the counterexample.
    """
    images, _ = _closure(family, max_n, max_k)
    if not permute_k:
        rises = family.up_rises
        images = {p: q for p, q in images.items() if p.rises == rises}
    seen: dict[StepSequence, StepSequence] = {}
    counterexample = None
    for p, q in images.items():
        if q not in images:
            counterexample = {
                "kind": "image-outside-family",
                "path": emit_steps(p),
                "image": emit_steps(q),
            }
            break
        if q in seen:
            counterexample = {
                "kind": "collision",
                "first": emit_steps(seen[q]),
                "second": emit_steps(p),
                "image": emit_steps(q),
            }
            break
        seen[q] = p
    return BijectionReport(
        family, permute_k, len(images), counterexample is None, counterexample
    )
