"""Tests of the benchmark itself: inputs, declared metrics, and short runs.

    python -m pytest perfbench/tests -q
"""

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import sweepmap as sm  # noqa: E402
import sweepmap.cli  # noqa: E402, F401

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

SMALL_FAMILIES = [(1, 2, 3), (2, 2), (1, 1, 3), (1, 1, 2, 4)]


@pytest.mark.parametrize("kind", gen.KINDS)
@pytest.mark.parametrize("k", SMALL_FAMILIES)
def test_members_cover_the_closure_and_nothing_else(kind, k):
    family = sm.FamilySpec(kind, k=k)
    closure = set(sm.enumerate_family(family, permute_k=True).paths)
    assert gen.closure_size(kind, k) == len(closure)
    rng = random.Random(0)
    drawn = {sm.StepSequence(tuple(gen.member(kind, k, rng))) for _ in range(30 * len(closure))}
    assert drawn == closure
    assert all(gen.is_member(p.steps, kind, k) for p in closure)


@pytest.mark.parametrize("kind", gen.KINDS)
def test_large_members_and_non_members(kind):
    rng = random.Random(1)
    k = tuple(sorted(rng.randint(1, 10) for _ in range(300)))
    family = sm.FamilySpec(kind, k=k)
    for _ in range(5):
        path = gen.member(kind, k, rng)
        steps = sm.StepSequence(tuple(path))
        assert gen.is_member(path, kind, k)
        assert sm.validate(steps, family, permute_k=True)
        assert gen.sweep_ref(path) == list(sm.sweep(steps).steps)
        bad = gen.non_member(kind, k, rng)
        assert not sm.validate(sm.StepSequence(tuple(bad)), family, permute_k=True)


def test_closure_sizes_match_the_grid():
    total = 0
    for kind, k in gen.certify_grid(0):
        total += gen.closure_size(kind, k)
        if len(k) <= 3:
            family = sm.FamilySpec(kind, k=k)
            assert gen.closure_size(kind, k) == sm.enumerate_family(family, permute_k=True).count
    assert total == 69_683


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_inputs_depend_only_on_the_seed(workload, monkeypatch):
    monkeypatch.setattr(gen, "LARGE_N", 60)
    make = gen.GENERATORS[workload]
    assert gen.digest(make(3)) == gen.digest(make(3))
    assert gen.digest(make(3)) != gen.digest(make(4))


def test_generator_does_not_import_sweepmap():
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import gen; print('sweepmap' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_declared_metrics_are_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(gen.GENERATORS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_tracer_sees_calls_through_every_binding_and_restores_them():
    modules = [m for name, m in sys.modules.items() if name.startswith("sweepmap")]
    before = [dict(vars(m)) for m in modules]
    from_steps = sm.SWWord.__dict__["from_steps"]
    validate = sm.paths.validate
    family = sm.FamilySpec.plus((2, 1, 3))
    image = sm.sweep(sm.StepSequence(tuple(gen.member("kplus", (1, 2, 3), random.Random(0)))))
    with spans.Tracer() as tracer:
        assert sm.paths.validate is sm.walking.validate is sm.cli.validate is not validate
        sm.invert(image, family)
    names = [spans.NAMES[n] for n in tracer.name]
    assert names[0] == "walking.invert" and tracer.parent[0] == -1
    assert {"paths.validate", "paths.from_plus", "paths.SWWord.from_steps", "tableau.fill",
            "walking.walk_plus", "walking.sigma_to_preimage"} <= set(names)
    assert all(s >= 0 for s in tracer.self_times())
    assert [dict(vars(m)) for m in modules] == before
    assert sm.SWWord.__dict__["from_steps"] is from_steps


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("invert-large", "0"), ("batch-cli", "0"), ("certify-grid", "0"), ("certify-grid", "1")],
)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == declared
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_a_wrong_expected_output_fails_the_run(workload, monkeypatch, capsys):
    monkeypatch.setattr(gen, "LARGE_N", 60)
    monkeypatch.setattr(gen, "BATCH_LINES", 20)
    reference = gen.sweep_ref
    monkeypatch.setattr(gen, "sweep_ref", lambda steps: reference(steps)[::-1])
    try:
        rc = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.5"])
    finally:
        run.gc.unfreeze()
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_fails_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    done = _run("--workload", "batch-cli", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
