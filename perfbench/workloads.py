"""The three workloads: turn generated inputs into ops and run one op.

Each workload is a closed loop with one caller: the next op starts only
after the previous one has returned and been checked.  An op calls the
public sweepmap API through the package module ``sm`` at call time, so a
traced run sees the wrapped functions.  Only the calls into sweepmap are
timed; building inputs and checking outputs are not.

Times are calibrated against the host's speed.  On a shared host the same
code runs up to twice as slowly for tens of seconds at a time, so raw
times of two runs are not comparable.  A fixed reference kernel (the
benchmark's own sweep of a fixed 6,500-step path) is timed before every
op and after every stage that takes longer than the kernel, and the
stage's time is reported as ``raw * REF_SECONDS / reference``: what it
would have taken on a host that runs the kernel in REF_SECONDS.
"""

from __future__ import annotations

import io
import random
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import gen

# the reference kernel's typical time on the machine the benchmark was
# defined on (2 vCPUs, Python 3.11.7); fixed, so runs compare across hosts
REF_SECONDS = 0.002
REF_PATH = gen.plain_path(tuple(range(1, 11)) * 100, random.Random("reference"))


def reference_seconds() -> float:
    t = perf_counter()
    gen.sweep_ref(REF_PATH)
    return perf_counter() - t


class Clock:
    """Times the stages of one op, each calibrated by the reference kernel
    timed before it and, for a stage longer than the kernel, after it."""

    def __init__(self) -> None:
        self.times: dict[str, float] = {}  # calibrated seconds per stage
        self.raw = 0.0  # uncalibrated seconds of all stages
        # short stages lean on this one alone, so it is a median of three
        self._ref = statistics.median(reference_seconds() for _ in range(3))

    def __call__(self, stage: str, fn):
        t0 = perf_counter()
        out = fn()
        seconds = perf_counter() - t0
        ref = self._ref
        # the kernel would evict the caches a short next stage finds warm
        if seconds > REF_SECONDS:
            self._ref = reference_seconds()
            ref = (ref + self._ref) / 2
        self.times[stage] = seconds * REF_SECONDS / ref
        self.raw += seconds
        return out


@dataclass
class OpResult:
    kind: str
    ok: bool
    steps: int  # steps of the paths the op round-tripped
    paths: int  # paths the op round-tripped
    clock: Clock
    lines: int = 0  # stdin lines fed to the command line

    @property
    def seconds(self) -> float:
        """Calibrated seconds of all stages."""
        return sum(self.clock.times.values())

    def us_per_step(self, stage: str) -> float:
        return self.clock.times[stage] / self.steps * 1e6


def _prepare_invert_large(sm, inputs):
    return [
        (kind, sm.FamilySpec(kind, k=k), sm.StepSequence(tuple(p)), tuple(img))
        for kind, k, p, img in inputs
    ]


def _op_invert_large(sm, item, clock) -> OpResult:
    kind, family, path, image = item
    q = clock("sweep", lambda: sm.sweep(path))
    back = clock("invert", lambda: sm.invert(q, family))
    ok = q.steps == image and back == path
    return OpResult(kind, ok, len(path), 1, clock)


def _prepare_batch_cli(sm, inputs):
    return inputs


def _cli(sm, argv, stdin_text):
    """sweepmap's command line in process, with stdin and stdout swapped."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        rc = sm.cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    return rc, out.splitlines()


def _batch_ok(rc, got, want, bad) -> bool:
    if rc != (1 if bad else 0) or len(got) != len(want):
        return False
    bad = set(bad)
    return all(
        g.startswith("error:") if j in bad else g == w
        for j, (g, w) in enumerate(zip(got, want))
    )


def _op_batch_cli(sm, batch, clock) -> OpResult:
    kind, k, bad = batch["kind"], batch["k"], batch["bad"]
    family = ["--family", kind, "--k", ",".join(map(str, k))]
    preimages, images = batch["preimages"], batch["images"]
    sweep_in, invert_in = "\n".join(preimages) + "\n", "\n".join(images) + "\n"
    rc1, got1 = clock("sweep", lambda: _cli(sm, ["sweep", *family], sweep_in))
    rc2, got2 = clock("invert", lambda: _cli(sm, ["invert", *family], invert_in))
    ok = _batch_ok(rc1, got1, images, bad) and _batch_ok(rc2, got2, preimages, bad)
    paths = len(preimages) - len(bad)
    size = len(k) + sum(k) + {"k": 0, "kplus": 1, "kminus": -1}[kind]
    return OpResult(
        kind, ok, size * paths, paths, clock, lines=len(preimages) + len(images)
    )


def _prepare_certify_grid(sm, inputs):
    return [(kind, k, sm.FamilySpec(kind, k=k)) for kind, k in inputs]


def _op_certify_grid(sm, item, clock) -> OpResult:
    kind, k, family = item
    report = clock("certify", lambda: sm.certify_bijection(family))
    paths = clock("enumerate", lambda: sm.enumerate_family(family, permute_k=True).paths)
    images = clock("sweep", lambda: [sm.sweep(p) for p in paths])
    fast = clock("invert", lambda: [sm.invert(q, family) for q in images])
    slow = clock("brute", lambda: [sm.brute_invert(q, family) for q in images])
    ok = (
        report.bijection
        and report.count == len(paths) == len(set(paths)) == gen.closure_size(kind, k)
        and fast == slow == list(paths)
        and all(
            gen.is_member(p.steps, kind, k) and list(q.steps) == gen.sweep_ref(p.steps)
            for p, q in zip(paths, images)
        )
    )
    return OpResult(kind, ok, sum(len(p) for p in paths), len(paths), clock)


@dataclass(frozen=True)
class Workload:
    prepare: object  # (sm, generated inputs) -> op items
    op: object  # (sm, item, clock) -> OpResult
    cycle: bool  # whether the loop repeats the items until time is up


WORKLOADS = {
    "invert-large": Workload(_prepare_invert_large, _op_invert_large, True),
    "batch-cli": Workload(_prepare_batch_cli, _op_batch_cli, True),
    # each family once per process, so the oracle memo starts cold
    "certify-grid": Workload(_prepare_certify_grid, _op_certify_grid, False),
}
