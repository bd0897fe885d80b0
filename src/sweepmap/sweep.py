"""The sweep map: rearrange a path's steps by increasing starting level.

Steps are stably ordered by (starting level, position), with positions
compared right-to-left inside a level, and the path is rebuilt in that
order.  The map is defined for any valid step sequence; for the supported
families it is a bijection, inverted in walking.py.

The forward pass is one running sum for the levels and one stable keyed
sort over the positions taken right to left, which leaves later positions
first inside a level; no bucket per level is needed, so the tilted kinds,
whose levels are scaled by n, cost the same per step.
"""

from __future__ import annotations

from .paths import PathError, StepSequence, _gather, _ints, _levels, _unchecked


def _order(s: tuple[int, ...]) -> list[int]:
    """0-based positions of the steps s in sweep order; PathError off the Dyck condition."""
    levels, d = _levels(s)
    if not d:
        raise PathError(str(d))
    return sorted(range(len(s) - 1, -1, -1), key=levels.__getitem__)


def sweep_order(steps: StepSequence) -> tuple[int, ...]:
    """1-based positions sorted by starting level, later positions first within a level."""
    return tuple([i + 1 for i in _order(_ints(steps))])


def sweep(steps: StepSequence) -> StepSequence:
    """Image of the path under the sweep map."""
    if not isinstance(steps, StepSequence):
        steps = StepSequence(steps)
    s = steps.steps
    # a permutation of a StepSequence's entries needs no re-check
    return _unchecked(StepSequence, _gather(s, _order(s)))
