"""Spans around sweepmap's public functions, recorded from outside.

``Tracer`` wraps every traced function and rebinds each module-level name
in ``sweepmap.*`` that refers to the original, so calls made through
``from .paths import validate`` style imports are caught too; methods are
patched on their class.  Everything is restored on exit.  Spans are kept in
flat arrays (name, start, end, parent, op) and written out at the end.
Garbage-collector pauses and collections per generation come from
``gc.callbacks`` while an op is running.
"""

from __future__ import annotations

import functools
import gc
import gzip
import sys
from array import array
from time import perf_counter

# traced function ("module.attribute", or "module.Class.method") -> layer
LAYER_OF = {
    "paths.validate": "paths.validate",
    "paths.dyck_diagnostic": "paths.validate",
    "paths.from_plus": "paths.unscale",
    "paths.from_minus": "paths.unscale",
    "paths.SWWord.from_steps": "paths.word",
    "paths.SWWord.steps": "paths.word",
    "paths.ranks": "paths.ranks",
    "paths.parse_steps": "paths.parse_emit",
    "paths.emit_steps": "paths.parse_emit",
    "sweep.sweep": "sweep.sweep_order",
    "sweep.sweep_order": "sweep.sweep_order",
    "tableau.fill": "tableau.fill",
    "tableau.extend_plus": "tableau.tilt",
    "tableau.is_minus_admissible": "tableau.tilt",
    "ranking.rank_tableau": "ranking.rank_tableau",
    "walking.walk": "walking.walk",
    "walking.walk_plus": "walking.walk_plus",
    "walking.walk_minus": "walking.walk_minus",
    "walking.sigma_to_preimage": "walking.spell",
    "walking.invert": "walking.invert",
    "cli.main": "cli.main",
    "oracle.enumerate_family": "oracle.enumerate",
    "oracle.certify_bijection": "oracle.certify",
    "oracle.brute_invert": "oracle.brute_invert",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
NAMES = tuple(LAYER_OF)
INVERT = NAMES.index("walking.invert")
VALIDATE = NAMES.index("paths.validate")


class Tracer:
    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.gc_collections = [0, 0, 0]
        self.gc_pause = 0.0
        self._stack = [-1]
        self._gc_start = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, fn):
        names, starts, ends = self.name, self.start, self.end
        parents, ops, stack = self.parent, self.op, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.current_op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                starts[i] = t0
                stack.pop()

        return traced

    def _on_gc(self, phase, info) -> None:
        if self.current_op < 0:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause += perf_counter() - self._gc_start
            self.gc_collections[info["generation"]] += 1

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in sys.modules.items()
            if name == "sweepmap" or name.startswith("sweepmap.")
        ]
        try:
            for name_id, target in enumerate(NAMES):
                module_name, *attrs = target.split(".")
                owner = sys.modules[f"sweepmap.{module_name}"]
                if len(attrs) == 2:  # a method, patched on its class
                    owner = getattr(owner, attrs[0])
                    raw = owner.__dict__[attrs[1]]
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    wrapped = self._wrap(name_id, fn)
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(wrapped)
                    self._restore.append((owner, attrs[1], raw))
                    setattr(owner, attrs[1], wrapped)
                    continue
                original = getattr(owner, attrs[0])
                wrapped = self._wrap(name_id, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapped)
            gc.callbacks.append(self._on_gc)
        except BaseException:
            self._undo()
            raise
        return self

    def _undo(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def __exit__(self, *exc) -> None:
        self._undo()

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, path) -> None:
        """Gzipped TSV, one span per line: op, parent span (-1 for none),
        name, and start and end in ns from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tparent\tname\tstart_ns\tend_ns\n")
            fh.writelines(
                f"{op}\t{p}\t{NAMES[n]}\t{round((s - t0) * 1e9)}\t{round((e - t0) * 1e9)}\n"
                for op, p, n, s, e in zip(self.op, self.parent, self.name, self.start, self.end)
            )
