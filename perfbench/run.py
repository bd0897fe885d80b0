"""sweepmap benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload invert-large --seed 1 --seconds 30 --trace 0

Runs from the repository root against ``src/`` without installing the
package.  With ``--trace 0`` it reports the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` it reruns the same ops with spans around
sweepmap's public functions and reports the per-layer metrics.  Every op's
output is checked; the last stdout line is the JSON result and the exit
code is 1 if any op failed.
Times, the import time included, are calibrated against the host's speed
with a reference kernel; see workloads.py.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
from workloads import REF_SECONDS, WORKLOADS, Clock, reference_seconds  # noqa: E402

SETUP_REPEATS = 15
TAIL_BEYOND = 10
# traced runs report the collections of the first ops, which every run
# completes, so the counts repeat exactly for a seed
GC_OPS = len(gen.KINDS)

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import sweepmap\n"
    "print(time.perf_counter() - t)\n"
)

_UNTRACED_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import run\n"
    "print(run.untraced_seconds(sys.argv[2], int(sys.argv[3]), int(sys.argv[4])))\n"
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _python(code: str, *args: str, timeout: float) -> str:
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, *args],
        capture_output=True, text=True, timeout=timeout, check=True,
    )
    return done.stdout


def setup_seconds() -> float:
    """Median calibrated wall time of ``import sweepmap`` in fresh processes.

    The first import writes the bytecode cache and is not counted.
    """
    _python(_IMPORT_TIMER, str(SRC), timeout=60)
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        seconds = float(_python(_IMPORT_TIMER, str(SRC), timeout=60))
        after = reference_seconds()
        times.append(seconds * 2 * REF_SECONDS / (before + after))
    return statistics.median(times)


def import_sweepmap():
    sys.path.insert(0, str(SRC))
    import sweepmap
    import sweepmap.cli  # noqa: F401  (batch-cli calls sweepmap.cli.main)

    if Path(sweepmap.__file__).resolve().parent != SRC / "sweepmap":
        raise ImportError(f"sweepmap imported from {sweepmap.__file__}, not {SRC}")
    return sweepmap


def run_ops(sm, workload, items, seconds, max_ops=None, tracer=None):
    """The closed loop: one op at a time until time or ops run out, and
    at least until every family kind has had an op.

    Returns the op results and, when traced, each op's collections per
    garbage-collector generation.
    """
    results, gc_counts = [], []
    deadline = perf_counter() + seconds
    while len(results) != max_ops:
        if perf_counter() >= deadline and {r.kind for r in results} == set(gen.KINDS):
            break
        i = len(results)
        if not workload.cycle and i == len(items):
            break
        gc.collect()
        clock = Clock()
        if tracer is not None:
            before = list(tracer.gc_collections)
            tracer.current_op = i
        results.append(workload.op(sm, items[i % len(items)], clock))
        if tracer is not None:
            tracer.current_op = -1
            gc_counts.append([a - b for a, b in zip(tracer.gc_collections, before)])
    return results, gc_counts


def _prepare(name: str, seed: int):
    inputs = gen.GENERATORS[name](seed)
    digest = gen.digest(inputs)
    sm = import_sweepmap()
    items = WORKLOADS[name].prepare(sm, inputs)
    del inputs
    gc.collect()
    gc.freeze()  # inputs stay out of the collector's scans
    return sm, items, digest


def untraced_seconds(name: str, seed: int, ops: int) -> float:
    """Timed seconds of the first ``ops`` ops, untraced, in this process."""
    sm, items, _ = _prepare(name, seed)
    results, _ = run_ops(sm, WORKLOADS[name], items, float("inf"), max_ops=ops)
    return sum(r.seconds for r in results)


def _us_per_step(results, stage: str, kind: str | None = None) -> list[float]:
    return [
        r.us_per_step(stage) for r in results if kind is None or r.kind == kind
    ]


def _median_per_step(results, stage: str, kind: str | None = None) -> float:
    """The median over all steps of the op's µs/step: ops weigh by steps, so
    small families of the grid or short batches do not dominate."""
    pairs = sorted(
        (r.us_per_step(stage), r.steps)
        for r in results
        if kind is None or r.kind == kind
    )
    half = sum(w for _, w in pairs) / 2
    seen = 0
    for value, w in pairs:
        seen += w
        if seen >= half:
            return value
    raise ValueError("no ops")


def end_to_end_metrics(results, setup_s: float) -> dict[str, float]:
    out = {"setup_s": setup_s, "peak_rss_mb": _rss_mb()}
    for kind in gen.KINDS:
        out[f"invert_{kind}_us_per_step"] = _median_per_step(results, "invert", kind)
    pooled = sorted(_us_per_step(results, "invert"))
    rank = len(pooled) - TAIL_BEYOND - 1
    if rank < 0:  # too few samples for a tail: report the maximum
        rank = len(pooled) - 1
    out["invert_us_per_step.tail"] = pooled[rank]
    print(
        f"invert_us_per_step.tail: p{100 * (rank + 1) / len(pooled):.1f} "
        f"of {len(pooled)} samples, {len(pooled) - rank - 1} beyond it"
    )
    out["sweep_us_per_step"] = _median_per_step(results, "sweep")
    out["paths_per_s"] = sum(r.paths for r in results) / sum(r.seconds for r in results)
    raw = sum(r.clock.raw for r in results)
    print(f"calibration: {raw} s measured, {sum(r.seconds for r in results)} s calibrated")
    return out


def per_layer_metrics(tracer, results, gc_counts, untraced_s, input_rss_mb):
    self_times = tracer.self_times()
    scale = sum(r.seconds for r in results) / sum(r.clock.raw for r in results)
    by_layer = dict.fromkeys(spans.LAYERS, 0.0)
    for n, t in zip(tracer.name, self_times):
        by_layer[spans.LAYER_OF[spans.NAMES[n]]] += t * scale
    per = {
        "step": sum(r.steps for r in results),
        "line": sum(r.lines for r in results),
        "path": sum(r.paths for r in results),
        "call": tracer.name.count(spans.NAMES.index("oracle.brute_invert")),
    }
    unit_of = {
        "cli.main": "line",
        "oracle.enumerate": "path",
        "oracle.certify": "path",
        "oracle.brute_invert": "call",
    }
    out = {}
    for layer, t in by_layer.items():
        unit = unit_of.get(layer, "step")
        out[f"{layer}.self_us_per_{unit}"] = t / per[unit] * 1e6 if per[unit] else 0.0

    # validate calls made inside invert, per invert, by family kind
    kind_of_op = [r.kind for r in results]
    in_invert = []
    inverts = dict.fromkeys(gen.KINDS, 0)
    validates = dict.fromkeys(gen.KINDS, 0)
    for n, p, op in zip(tracer.name, tracer.parent, tracer.op):
        inside = n == spans.INVERT or (p >= 0 and in_invert[p])
        in_invert.append(inside)
        if n == spans.INVERT:
            inverts[kind_of_op[op]] += 1
        elif n == spans.VALIDATE and inside:
            validates[kind_of_op[op]] += 1
    for kind in gen.KINDS:
        out[f"paths.validate.calls_per_invert.{kind}"] = (
            validates[kind] / inverts[kind] if inverts[kind] else 0.0
        )

    first = gc_counts[:GC_OPS]
    for g in range(3):
        out[f"gc.gen{g}.collections_per_op"] = sum(c[g] for c in first) / len(first)
    out["gc.pause_ms_per_op"] = tracer.gc_pause * scale * 1e3 / len(results)
    traced_s = sum(r.seconds for r in results)
    out["trace.coverage"] = sum(self_times) / sum(r.clock.raw for r in results)
    out["trace.overhead"] = traced_s / untraced_s
    out["mem.input_rss_mb"] = input_rss_mb
    return out


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sweepmap" / "__init__.py").is_file():
        print(f"error: no sweepmap sources under {SRC}", file=sys.stderr)
        return 2
    declared = _declared(bool(args.trace))

    sm, items, digest = _prepare(args.workload, args.seed)
    print(f"inputs {args.workload} seed {args.seed}: sha256 {digest}")
    input_rss_mb = _rss_mb()
    workload = WORKLOADS[args.workload]

    if args.trace:
        with spans.Tracer() as tracer:
            results, gc_counts = run_ops(sm, workload, items, args.seconds, tracer=tracer)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz")
        untraced_s = float(
            _python(
                _UNTRACED_CHILD, str(HERE), args.workload, str(args.seed),
                str(len(results)), timeout=120,
            )
        )
        metrics = per_layer_metrics(tracer, results, gc_counts, untraced_s, input_rss_mb)
    else:
        setup_s = setup_seconds()
        results, _ = run_ops(sm, workload, items, args.seconds)
        metrics = end_to_end_metrics(results, setup_s)
        print(f"input_rss_mb: {input_rss_mb} (after building inputs and importing sweepmap)")

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    failed = sum(not r.ok for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
