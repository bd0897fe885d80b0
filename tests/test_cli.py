"""CLI behavior: single-path calls, stdin batches, formats, and exit codes."""

import io
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout, suppress
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepmap import (FamilySpec, PathError, SWWord, cli, emit_steps, enumerate_family,
                      fill, oracle, parse_steps, paths, sweep, tableau, walk, walk_minus,
                      walk_plus, walking)
from sweepmap.cli import main
from sweepmap.paths import skeleton
from conftest import counting, family_grid

ROOT = Path(__file__).resolve().parent.parent
# JSON path lines with a non-list or a non-integer where integers belong
BAD_JSON_LINES = [
    '{"steps": [null]}',
    '{"steps": 5}',
    '{"steps": [1.7, -1.2]}',
    '{"steps": [true, -1]}',
    '{"steps": [2, -1, -1], "family": {"kind": "k", "k": 2}}',
    '{"steps": [2, -1, -1], "family": {"kind": "k", "k": [2.9]}}',
    '{"steps": [2, -1, -1], "family": {"kind": "rational", "m": null, "n": 1}}',
]
PREIMAGE = "2,-1,-1,4,-1,5,-1,-1,-1,-1,3,-1,-1,-1,-1,-1,-1,-1"
IMAGE = "4,2,-1,-1,-1,-1,-1,5,-1,3,-1,-1,-1,-1,-1,-1,-1,-1"
# non-members of the plain family of their own rises, and validate's text for each
NO_FAMILY_NON_MEMBERS = [("2,-2,-1", "prefix sum -1 is negative (index 3)"),
                         ("1,-3,2,-1,-1", "prefix sum -2 is negative (index 2)"),
                         ("1,1,-2", "expected 4 steps, got 3")]
# a batch for the family k = (1, 1): members, malformed, JSON, zero, blank and
# too short lines
BATCH_LINES = '1,1,-1,-1\nx\n\n{"steps": [null]}\n1,-1,1,-1\n0,1\n   \n2,-1,-1\n'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_fixed_point(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", "1,-1")
        assert code == 0 and out.strip() == "1,-1"

    def test_running_example(self, capsys):
        code, out, _ = run(capsys, "sweep", "--steps", PREIMAGE)
        assert code == 0 and out.strip() == IMAGE

    def test_sw_input(self, capsys):
        code, out, _ = run(capsys, "sweep", "--sw", "S2 W W")
        assert code == 0 and out.strip() == "2,-1,-1"

    def test_json_format_carries_the_family(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--steps", "2,1,-1,-1,-1", "--family", "k", "--k", "2,1",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["family"] == {"kind": "k", "k": [2, 1], "scale": 1}
        assert obj["steps"] == [2, -1, -1, 1, -1]

    def test_invalid_path(self, capsys):
        code, _, err = run(capsys, "sweep", "--steps", "1,-1,-1")
        assert code == 1 and err.startswith("error:")

    def test_family_mismatch(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--steps", "1,-1", "--family", "k", "--k", "2"
        )
        assert code == 1 and "not a member" in err


class TestInvert:
    def test_running_example(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--steps", IMAGE, "--family", "k", "--k", "2,4,5,3"
        )
        assert code == 0 and out.strip() == PREIMAGE

    def test_family_flag_is_required(self, capsys):
        code, _, err = run(capsys, "invert", "--steps", "1,-1")
        assert code == 1 and "required" in err

    def test_family_inferred_from_the_path(self, capsys):
        code, out, _ = run(capsys, "invert", "--steps", "1,-1,1,-1", "--family", "k")
        assert code == 0 and out.strip() == "1,1,-1,-1"

    def test_plus_family(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--steps", "3,-2,3,-2,-2", "--family", "kplus"
        )
        assert code == 0
        out_steps = out.strip()
        code2, swept, _ = run(capsys, "sweep", "--steps", out_steps)
        assert code2 == 0 and swept.strip() == "3,-2,3,-2,-2"

    def test_minus_family(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--steps", "3,1,-2,-2", "--family", "kminus", "--k", "2,1"
        )
        assert code == 0 and out.strip() == "3,-2,1,-2"

    def test_rational_is_refused(self, capsys):
        # (7, 5): m mod n = 2, a residue no walk handles
        code, out, err = run(
            capsys, "invert", "--steps", "7,-5,7,-5,7,-5,7,-5,7,-5,-5,-5", "--family",
            "rational", "--m", "7", "--n", "5",
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "error: rational (7, 5) paths have no walk: m mod n is 2, "
            "and the walks need 0, 4, or 1 with m > n"
        ]

    @pytest.mark.parametrize("m, n, steps, preimage", [
        (6, 3, "6,-3,6,6,-3,-3,-3,-3,-3", "6,-3,6,-3,-3,6,-3,-3,-3"),
        (7, 3, "7,-3,7,7,-3,-3,-3,-3,-3,-3", "7,-3,7,-3,-3,7,-3,-3,-3,-3"),
        (5, 3, "5,5,-3,-3,-3,5,-3,-3", "5,-3,5,5,-3,-3,-3,-3"),
        (1, 2, "1,1,-2", "1,1,-2"),
    ], ids=["m=0-mod-n", "m=1-mod-n", "m=-1-mod-n", "1,2"])
    def test_rational_round_trips(self, capsys, m, n, steps, preimage):
        family = ["--family", "rational", "--m", str(m), "--n", str(n)]
        code, out, _ = run(capsys, "invert", "--steps", steps, *family)
        assert (code, out.strip()) == (0, preimage)
        code, out, _ = run(capsys, "sweep", "--steps", preimage, *family)
        assert (code, out.strip()) == (0, steps)

    @pytest.mark.parametrize("command", ["invert", "fill", "rank", "walk"])
    @pytest.mark.parametrize("steps", ["1,1,1,-3", "7,-5,7,-5,7,-5,7,-5,7,-5,-5,-5"])
    def test_residue_without_a_walk_is_one_error(self, capsys, command, steps):
        code, out, err = run(capsys, command, "--steps", steps, "--family", "rational")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and "m mod n is" in err


class TestFillAndRank:
    def test_fill_text(self, capsys):
        code, out, _ = run(capsys, "fill", "--steps", IMAGE)
        assert code == 0
        assert out.strip() == "1,3,5,7,9|2,4,6|8,11,13,15,17,18|10,12,14,16"

    def test_fill_json(self, capsys):
        code, out, _ = run(capsys, "fill", "--steps", "2,-1,-1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"k": [2], "columns": [[1, 2, 3]]}

    def test_fill_ascii(self, capsys):
        code, out, _ = run(capsys, "fill", "--steps", "1,-1,1,-1", "--format", "ascii")
        assert code == 0 and out.splitlines()[0].split() == ["1", "3"]

    def test_fill_unscales_plus_paths(self, capsys):
        # the skeleton of 3,-2,3,-2,-2 is 1,-1,1,-1, whose word is S1 W S1 W
        code, out, _ = run(
            capsys, "fill", "--steps", "3,-2,3,-2,-2", "--family", "kplus"
        )
        assert code == 0 and out.strip() == "1,2|3,4"

    @pytest.mark.parametrize("steps, text", [
        ("1,-1,1,-1", "0,1|1,2;by_index=0,1,1,2"),
        ("1,1,-1,-1", "0,1|0,1;by_index=0,0,1,1"),
    ], ids=["rising-ranks", "equal-ranks"])
    def test_rank_text(self, capsys, steps, text):
        code, out, _ = run(capsys, "rank", "--steps", steps)
        assert code == 0 and out == text + "\n"

    def test_rank_json(self, capsys):
        code, out, _ = run(capsys, "rank", "--steps", "1,1,-1,-1", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "k": [1, 1],
            "ranks": [[0, 1], [0, 1]],
            "by_index": [0, 0, 1, 1],
        }

    def test_rank_svg(self, capsys):
        code, out, _ = run(capsys, "rank", "--steps", "1,1,-1,-1", "--format", "svg")
        assert code == 0 and out.startswith("<svg") and ">1:0<" in out


class TestWalk:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "walk", "--steps", IMAGE)
        assert code == 0
        assert out.strip() == "2,6,4,1,11,8,18,17,15,13,10,16,14,12,9,7,5,3"

    def test_json_is_the_index_list(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "walk", "--steps", "1,-1", "--format", "json")
        assert code == 0 and json.loads(out) == [1, 2]
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,-1\n3,-2,3,-2,-2\n"))
        code, out, _ = run(capsys, "walk", "--family", "kplus", "--format", "json")
        assert code == 1 and out.splitlines()[1] == "[1, 3, 5, 4, 2]"
        assert out.splitlines()[0].startswith("error:")

    def test_plus_variant(self, capsys):
        code, out, _ = run(
            capsys, "walk", "--steps", "3,-2,3,-2,-2", "--family", "kplus"
        )
        assert code == 0 and len(out.strip().split(",")) == 5

    @pytest.mark.parametrize("family", family_grid(3, 3) + [
        FamilySpec.rational(m, n) for m, n in
        [(4, 2), (6, 3), (5, 3), (7, 3), (3, 2), (5, 2), (7, 5), (8, 4), (9, 4), (1, 2)]
    ], ids=str)
    def test_batch_is_the_tableau_walk(self, capsys, monkeypatch, family):
        # every path and image: the walk of the family's tilt on the fill of its
        # skeleton, or that route's error; (7, 5) is a residue no walk handles
        lines, expected = [], []
        tableau_walk = {0: walk, 1: walk_plus, -1: walk_minus}.get(family.tilt)
        for p in enumerate_family(family, permute_k=True).paths:
            for q in (p, sweep(p)):
                lines.append(emit_steps(q))
                try:
                    t = fill(SWWord.from_steps(skeleton(q, family)))
                except PathError as exc:
                    expected.append(f"error: {exc}")
                    continue
                expected.append(",".join(map(str, tableau_walk(t))))
        if family.k:
            flags = ["--family", family.kind, "--k", emit_steps(family.k)]
        else:
            flags = ["--family", "rational", "--m", str(family.m), "--n", str(family.n)]
        monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{x}\n" for x in lines)))
        code, out, err = run(capsys, "walk", *flags)
        assert (code, err) == (int(family.tilt is None), "")
        assert out.splitlines() == expected


class TestEnumerate:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "k", "--k", "1,1")
        assert code == 0
        assert out.strip().splitlines() == ["1,1,-1,-1", "1,-1,1,-1"]

    def test_permute_concatenates_orderings(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "k", "--k", "2,1", "--permute"
        )
        assert code == 0 and len(out.strip().splitlines()) == 5

    def test_json_counts(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "k", "--k", "2,1", "--permute",
            "--format", "json",
        )
        obj = json.loads(out)
        assert code == 0 and obj["counts"] == {"1,2": 2, "2,1": 3}

    @pytest.mark.parametrize("permute", [[], ["--permute"]])
    def test_rational_json_counts_are_keyed_by_the_rises(self, capsys, permute):
        code, out, _ = run(
            capsys, "enumerate", "--family", "rational", "--m", "7", "--n", "3",
            "--format", "json", *permute,
        )
        obj = json.loads(out)
        assert code == 0 and obj["counts"] == {"7,7,7": 12} and obj["count"] == 12

    def test_bounds_are_enforced(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--family", "k", "--k", "1,1,1", "--max-n", "2"
        )
        assert code == 1 and "exceeds the bound" in err


def _fault(name, at, result):
    """A fault of cli's binding of sweep or invert: at the path whose text is at, it
    returns the path whose text is result, or raises result if that is an error."""
    def apply(monkeypatch):
        real = getattr(cli, name)

        def faked(steps, *family):
            if emit_steps(steps) != at:
                return real(steps, *family)
            if isinstance(result, Exception):
                raise result
            return parse_steps(result)

        monkeypatch.setattr(cli, name, faked)
    return apply


# verify on k = (2, 1): a fault of sweep or invert at one path, and the counterexample.
# The closure in enumeration order, each path with its true image:
# 1,2,-1,-1,-1 -> 1,-1,2,-1,-1    1,-1,2,-1,-1 -> 2,1,-1,-1,-1
# 2,1,-1,-1,-1 -> 2,-1,-1,1,-1    2,-1,1,-1,-1 -> 2,-1,1,-1,-1
# 2,-1,-1,1,-1 -> 1,2,-1,-1,-1
VERIFY_FAULTS = {
    "outside": (_fault("sweep", "1,-1,2,-1,-1", "3,-1,-1,-1"),
                {"kind": "image-outside-family", "path": "1,-1,2,-1,-1",
                 "image": "3,-1,-1,-1"}),
    "error": (_fault("invert", "2,1,-1,-1,-1", walking.WalkError("stuck")),
              {"kind": "round-trip-error", "path": "1,-1,2,-1,-1", "image": "2,1,-1,-1,-1",
               "error": "stuck"}),
    "mismatch": (_fault("invert", "1,-1,2,-1,-1", "2,1,-1,-1,-1"),
                 {"kind": "round-trip-mismatch", "path": "1,2,-1,-1,-1",
                  "image": "1,-1,2,-1,-1", "preimage": "2,1,-1,-1,-1"}),
    # a collision is a mismatch whose preimage sweeps to the same image
    "collision": (_fault("sweep", "2,-1,1,-1,-1", "2,1,-1,-1,-1"),
                  {"kind": "round-trip-mismatch", "path": "2,-1,1,-1,-1",
                   "image": "2,1,-1,-1,-1", "preimage": "1,-1,2,-1,-1"}),
}


class TestVerify:
    def test_passes_on_small_family(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "2,1,3")
        assert code == 0
        obj = json.loads(out)
        assert obj["bijection"] is True and obj["counterexample"] is None
        assert set(obj) == {"family", "count", "bijection", "counterexample"}

    def test_all_three_kinds(self, capsys):
        for kind in ("k", "kplus", "kminus"):
            code, out, _ = run(capsys, "verify", "--family", kind, "--k", "2,2")
            assert code == 0 and json.loads(out)["bijection"] is True

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "--family", "k", "--k", "2,1")
        _, second, _ = run(capsys, "verify", "--family", "k", "--k", "2,1")
        assert first == second and json.loads(first)["count"] == 5

    @pytest.mark.usefixtures("cold_oracle")
    def test_cold_verify_builds_no_memo(self, capsys, monkeypatch):
        # one search per ordering of the rises, one sweep and one invert per path
        calls = Counter()
        counting(monkeypatch, calls, (oracle, "_paths_for"), (oracle, "sweep"), (cli, "sweep"),
                 (cli, "invert"))
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "1,2,3")
        count = json.loads(out)["count"]
        assert code == 0 and count == 72 and oracle._closures == {}
        assert calls == {"_paths_for": 6, "sweep": count, "invert": count}

    def test_rational_closure(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "rational", "--m", "7", "--n", "3",
                           "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "family: rational m=7 n=3", "count: 12", "bijection: yes", ]

    def test_residue_without_a_walk_is_an_error_not_a_failure(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "rational", "--m", "7", "--n", "5")
        assert (code, out) == (1, "")
        assert err.startswith("error: rational (7, 5) paths have no walk")

    @pytest.mark.parametrize("fault, counterexample", VERIFY_FAULTS.values(),
                             ids=VERIFY_FAULTS)
    def test_failure_exits_two(self, capsys, monkeypatch, fault, counterexample):
        fault(monkeypatch)
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "2,1")
        assert code == 2
        assert out == json.dumps({"family": {"kind": "k", "k": [2, 1], "scale": 1}, "count": 5,
                                  "bijection": False, "counterexample": counterexample},
                                 indent=2) + "\n"

    @pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
    @pytest.mark.parametrize("k", ["2,1", "1,2", "1,1,2"])
    def test_ordered_distinct_rises_certify_the_closure(self, capsys, kind, k):
        # the sweep reorders rises, so verify covers every ordering of k
        code, out, _ = run(capsys, "verify", "--family", kind, "--k", k)
        obj = json.loads(out)
        assert code == 0 and obj["bijection"] is True
        closure = enumerate_family(FamilySpec(kind, tuple(map(int, k.split(",")))), True)
        assert obj["count"] == closure.count

    @pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
    def test_equal_rises_verify_without_permute(self, capsys, kind):
        code, out, _ = run(capsys, "verify", "--family", kind, "--k", "2,2")
        assert code == 0 and json.loads(out)["bijection"] is True

    def test_text_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "kplus", "--k", "2,1", "--format", "text"
        )
        assert code == 0
        assert out == "family: kplus k=2,1\ncount: 5\nbijection: yes\n"

    @pytest.mark.parametrize("fault, counterexample", VERIFY_FAULTS.values(),
                             ids=VERIFY_FAULTS)
    def test_text_report_lists_the_counterexample(self, capsys, monkeypatch, fault,
                                                  counterexample):
        fault(monkeypatch)
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "2,1", "--format", "text")
        assert code == 2
        assert out.splitlines() == [
            "family: k k=2,1", "count: 5", "bijection: no",
            *(f"{key}: {value}" for key, value in counterexample.items()),
        ]

    def test_json_report_is_unchanged(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "1,1", "--format", "json")
        assert code == 0
        assert out == (
            '{\n  "family": {\n    "kind": "k",\n    "k": [\n      1,\n      1\n    ],\n'
            '    "scale": 1\n  },\n  "count": 2,\n  "bijection": true,\n'
            '  "counterexample": null\n}\n'
        )


class TestBatch:
    def test_stdin_lines_stay_aligned(self, capsys, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin", io.StringIO("1,-1\n1,-1,-1\n2,-1,-1\n")
        )
        code, out, _ = run(capsys, "sweep")
        lines = out.strip("\n").split("\n")
        assert code == 1
        assert lines[0] == "1,-1"
        assert lines[1].startswith("error:")
        assert lines[2] == "2,-1,-1"

    @pytest.mark.parametrize("bad", BAD_JSON_LINES)
    def test_bad_json_line_is_an_error_line(self, capsys, monkeypatch, bad):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"1,-1\n{bad}\n2,-1,-1\n"))
        code, out, _ = run(capsys, "sweep")
        lines = out.strip("\n").split("\n")
        assert code == 1
        assert lines[0] == "1,-1"
        assert lines[1].startswith("error:")
        assert lines[2] == "2,-1,-1"

    @pytest.mark.parametrize("scale", ["true", "1.0", '"1"'])
    def test_non_integer_scale_is_an_error_line(self, capsys, monkeypatch, scale):
        line = f'{{"steps": [1, -1], "family": {{"kind": "k", "k": [1], "scale": {scale}}}}}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{line}\n1,-1\n"))
        code, out, _ = run(capsys, "sweep")
        assert code == 1
        assert out.splitlines() == ["error: 'scale' must be an integer", "1,-1"]

    def test_only_newlines_end_lines(self, capsys, monkeypatch):
        # a form feed is a line break to str.splitlines, not to `wc -l`
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,-1\x0c2,-1,-1\n1,1,-1,-1\n"))
        code, out, _ = run(capsys, "sweep")
        lines = out.split("\n")
        assert code == 1 and len(lines) == 3 and lines[2] == ""
        assert lines[0].startswith("error:") and lines[1] == "1,-1,1,-1"

    def test_empty_stdin_prints_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert run(capsys, "sweep") == (0, "", "")

    def test_all_good_batch_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,-1\n2,-1,-1\n"))
        code, out, _ = run(capsys, "sweep")
        assert code == 0 and out.strip("\n").split("\n") == ["1,-1", "2,-1,-1"]

    def test_json_lines(self, capsys, monkeypatch):
        line = json.dumps({"family": {"kind": "k", "k": [1, 1]}, "steps": [1, 1, -1, -1]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
        code, out, _ = run(capsys, "invert", "--family", "k", "--format", "json")
        assert code == 0
        assert json.loads(out.strip()) == {
            "family": {"kind": "k", "k": [1, 1], "scale": 1},
            "steps": [1, -1, 1, -1],
        }

    def test_batch_invert(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("1,1,-1,-1\n1,-1,1,-1\n"))
        code, out, _ = run(capsys, "invert", "--family", "k", "--k", "1,1")
        assert code == 0
        assert out.strip("\n").split("\n") == ["1,-1,1,-1", "1,1,-1,-1"]

    @pytest.mark.parametrize("flags, error", [
        (("--family", "k", "--k", "1,x"), "malformed rise vector '1,x'"),
        (("--family", "kminus", "--k", "1"), "minus family needs n*k_i >= 2 for every entry"),
        (("--family", "rational", "--m", "0", "--n", "3"),
         "rational family needs positive m and n"),
    ], ids=["malformed-k", "kminus-k", "rational-m"])
    def test_bad_family_flags_fail_each_line_after_its_own_error(self, capsys, monkeypatch,
                                                                 flags, error):
        # the family is built once per run; a line's own parse error comes first
        monkeypatch.setattr(sys, "stdin", io.StringIO(BATCH_LINES))
        lines = [f"error: {error}", "error: malformed step token 'x' at index 1",
                 "error: empty line", "error: 'steps' must be a list of integers",
                 f"error: {error}", "error: zero rise at index 1", "error: empty line",
                 f"error: {error}"]
        assert run(capsys, "invert", *flags) == (1, "".join(f"{x}\n" for x in lines), "")
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert run(capsys, "invert", *flags) == (0, "", "")

    def test_good_family_flags_on_the_same_lines(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(BATCH_LINES))
        calls = Counter()
        counting(monkeypatch, calls, (cli, "_family_from_args"))
        assert run(capsys, "invert", "--family", "k", "--k", "1,1") == (1, (
            "1,-1,1,-1\nerror: malformed step token 'x' at index 1\nerror: empty line\n"
            "error: 'steps' must be a list of integers\n1,1,-1,-1\n"
            "error: zero rise at index 1\nerror: empty line\n"
            "error: not a member of the family: expected 4 steps, got 3\n"), "")
        assert calls == {"_family_from_args": 1}

    @pytest.mark.parametrize("command, kind, k, calls", [
        ("invert", "k", (2, 1, 3), 1), ("invert", "kminus", (2, 1, 3), 1),
        ("invert", "kplus", (2, 1, 3), 1), ("sweep", "k", (2, 1, 3), 1),
        ("fill", "kplus", (2, 1, 3), 1), ("rank", "kminus", (2, 1, 3), 1),
        ("walk", "k", (2, 1, 3), 1), ("walk", "kplus", (2, 1, 3), 1),
        ("walk", "kminus", (2, 1, 3), 1),
    ])
    def test_validate_calls_per_line(self, capsys, monkeypatch, command, kind, k, calls):
        # invert checks its input once, on every kind, and guards its output
        # without validate; sweep and walk check membership once, and fill and
        # rank once in skeleton; the command line adds no check of its own
        family = FamilySpec(kind, k=k)
        path = enumerate_family(family, permute_k=True).paths[-1]
        line = ",".join(map(str, path))
        monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
        counted, staged = Counter(), Counter()
        counting(monkeypatch, counted, (paths, "validate"), (walking, "validate"))
        # the walk runs invert's pass on the member: no fill, word or tableau walk
        counting(monkeypatch, staged, (tableau, "fill"), (walking, "fill"), (cli, "fill"),
                 (SWWord, "from_steps"), (walking, "walk"), (walking, "walk_plus"),
                 (walking, "walk_minus"))
        code, _, _ = run(capsys, command, "--family", kind, "--k", ",".join(map(str, k)))
        assert code == 0 and counted == {"validate": calls}
        if command == "walk":
            assert staged == {}

    @pytest.mark.parametrize("flags", [(), ("--family", "k", "--k", "2")], ids=["none", "k"])
    def test_byte_order_mark_leaves_the_first_line_only(self, capsys, monkeypatch, flags):
        # stdin of a file saved with a BOM: the mark goes from the first line alone
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff2,-1,-1\n\ufeff2,-1,-1\n"))
        assert run(capsys, "sweep", *flags) == (
            1, "2,-1,-1\nerror: malformed step token '\\ufeff2' at index 1\n", "")
        monkeypatch.setattr(sys, "stdin", io.StringIO('\ufeff{"steps": [2, -1, -1]}\n'))
        assert run(capsys, "sweep", *flags) == (0, "2,-1,-1\n", "")


# one family of each kind, by the flags that fix it for a whole batch
TABLE_FAMILIES = {
    "k": (FamilySpec.vector((2, 1, 3)), ("--family", "k", "--k", "2,1,3")),
    "kplus": (FamilySpec.plus((1, 2)), ("--family", "kplus", "--k", "1,2")),
    "kminus": (FamilySpec.minus((2, 1, 3)), ("--family", "kminus", "--k", "2,1,3")),
    "rational": (FamilySpec.rational(7, 3), ("--family", "rational", "--m", "7", "--n", "3")),
}
ARABIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _respellings(tokens):
    """A member's tokens respelled so that each line misses its family's table:
    parse_steps reads it as the member or refuses it, or it is a JSON object."""
    first, second, rest = tokens[0], tokens[1], tokens[2:]
    return [
        ",".join(["+" + first, second, *rest]), ", ".join(tokens),
        ",".join(["0" + first, second, *rest]), ",".join([first, "\x1c" + second, *rest]),
        ",".join(tokens).translate(ARABIC_DIGITS), ",".join([first, "0", *rest]),
        ",".join([first, "", second, *rest]), ",".join(["99", second, *rest]),
        ",".join([first, "-99", *rest]), json.dumps({"steps": list(map(int, tokens))}),
    ]


def _single(capsys, tmp_path, argv, text):
    """What the one-input command prints for a batch line: its answer or its error."""
    if text.startswith("{"):
        (tmp_path / "line.json").write_text(text, encoding="utf-8")
        source = ["--file", str(tmp_path / "line.json")]
    else:
        source = [f"--steps={text}"]
    code, out, err = run(capsys, *argv, *source)
    return out.rstrip("\n") if code == 0 else err.rstrip("\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("kind", sorted(TABLE_FAMILIES))
@pytest.mark.parametrize("command", ["sweep", "invert", "fill", "rank", "walk"])
def test_batch_table_answers_as_its_fallback(capsys, monkeypatch, tmp_path, command, kind, fmt):
    # members and images hit the family's table; every other spelling misses it and
    # takes parse_steps: each answer, error lines too, is the one-input command's
    family, flags = TABLE_FAMILIES[kind]
    paths = enumerate_family(family, permute_k=True).paths
    lines = [emit_steps(paths[0]), emit_steps(sweep(paths[-1]))]
    for p in (paths[0], paths[-1]):
        lines += [emit_steps(p), *_respellings(emit_steps(p).split(","))]
    argv = [command, *flags, "--format", fmt]
    want = [_single(capsys, tmp_path, argv, line) for line in lines]
    monkeypatch.setattr(sys, "stdin", io.StringIO("".join(f"{line}\n" for line in lines)))
    code, out, err = run(capsys, *argv)
    got = out.split("\n")
    assert got.pop() == "" and err == "" and len(got) == len(want)
    for line, g, w in zip(lines, got, want):
        if fmt == "json" and not w.startswith("error:"):
            g, w = json.loads(g), json.loads(w)
        assert g == w, line
    assert code == any(w.startswith("error:") for w in want)


@pytest.mark.parametrize("kind", sorted(TABLE_FAMILIES))
@pytest.mark.parametrize("command", ["sweep", "invert"])
def test_batch_table_line_calls_no_parse_or_emit(capsys, monkeypatch, command, kind):
    family, flags = TABLE_FAMILIES[kind]
    text = emit_steps(enumerate_family(family, permute_k=True).paths[-1])
    calls = Counter()
    counting(monkeypatch, calls, (cli, "parse_steps"), (cli, "emit_steps"))
    for line, want in [(text, {}), (text.replace(",", ", "), {"parse_steps": 1, "emit_steps": 1})]:
        calls.clear()
        monkeypatch.setattr(sys, "stdin", io.StringIO(line + "\n"))
        code, out, _ = run(capsys, command, *flags)
        assert code == 0 and out.count("\n") == 1 and calls == want, line


@pytest.mark.parametrize("command", ["sweep", "invert"])
def test_batch_table_one_token_line(capsys, monkeypatch, tmp_path, command):
    # a line of one table token reads as a 1-tuple, not the bare step: it is
    # refused with the one-input command's text
    argv = [command, "--family", "k", "--k", "3"]
    want = [_single(capsys, tmp_path, argv, line) for line in ("3", "-1")]
    assert all(w.startswith("error: not a member") for w in want)
    monkeypatch.setattr(sys, "stdin", io.StringIO("3\n-1\n"))
    assert run(capsys, *argv) == (1, "".join(f"{w}\n" for w in want), "")


class TestRender:
    def test_path_ascii(self, capsys):
        code, out, _ = run(capsys, "render", "--steps", "1,-1")
        assert code == 0 and out.rstrip("\n") == "/\\"

    def test_path_svg(self, capsys):
        code, out, _ = run(capsys, "render", "--steps", "2,-1,-1", "--format", "svg")
        assert code == 0 and out.startswith("<svg")

    def test_tableau_file_with_ranks(self, capsys, tmp_path):
        f = tmp_path / "t.json"
        f.write_text(json.dumps({"columns": [[1, 3], [2, 4]]}))
        code, out, _ = run(capsys, "render", "--file", str(f), "--ranks")
        assert code == 0 and out.splitlines()[0].split() == ["1:0", "2:0"]

    @pytest.mark.parametrize(
        "bad",
        ['{"columns": 5}', '{"columns": [[1, 2], "ab"]}', '{"columns": [[1, 2]], "k": 3}'],
    )
    def test_bad_tableau_file(self, capsys, tmp_path, bad):
        f = tmp_path / "t.json"
        f.write_text(bad)
        code, _, err = run(capsys, "render", "--file", str(f))
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_path_below_level_zero(self, capsys, fmt):
        assert run(capsys, "render", "--steps=-1,1", "--format", fmt) == (
            1, "", "error: prefix sum -1 is negative (index 1)\n")

    def test_ranks_need_a_tableau(self, capsys):
        code, _, err = run(capsys, "render", "--steps", "1,-1", "--ranks")
        assert code == 1 and "tableaux" in err


class TestFilesAndUsage:
    @pytest.mark.parametrize("flags", [
        ["--family", "rational", "--m", "5"],
        ["--family", "rational", "--n", "1"],
        ["--family", "k", "--m", "2", "--n", "1"],
        ["--family", "rational", "--k", "2"],
        ["--k", "2"],
    ], ids=["lone-m", "lone-n", "m-and-n-with-k-kind", "k-with-rational", "k-without-family"])
    @pytest.mark.parametrize("stdin", ["", "2,-1,-1\n1,-1\n"], ids=["single", "batch"])
    def test_family_flags_the_kind_does_not_read(self, capsys, monkeypatch, flags, stdin):
        # the parent ignored each of these flags: sweep printed 2,-1,-1 and exited 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        steps = [] if stdin else ["--steps", "2,-1,-1"]
        code, out, err = run(capsys, "sweep", *steps, *flags)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: --")

    def test_file_input_with_family(self, capsys, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(
            json.dumps({"family": {"kind": "k", "k": [2, 1]}, "steps": [2, 1, -1, -1, -1]})
        )
        code, out, _ = run(capsys, "sweep", "--file", str(f), "--format", "json")
        assert code == 0
        assert json.loads(out)["family"]["k"] == [2, 1]

    def test_step_text_file(self, capsys, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("1,-1\n")
        code, out, _ = run(capsys, "sweep", "--file", str(f))
        assert code == 0 and out.strip() == "1,-1"

    @pytest.mark.parametrize("command, content, out", [
        ("sweep", "2,-1,-1", "2,-1,-1\n"), ("sweep", '{"steps": [2, -1, -1]}', "2,-1,-1\n"),
        ("render", '{"steps": [2, -1, -1]}', "/\\\n/ \\\n"),
    ], ids=["text", "json", "render"])
    def test_file_with_a_byte_order_mark(self, capsys, tmp_path, command, content, out):
        # an editor's UTF-8 byte-order mark is not part of the path
        marked, plain = tmp_path / "marked", tmp_path / "plain"
        marked.write_bytes(b"\xef\xbb\xbf" + content.encode())
        plain.write_text(content, encoding="utf-8")
        assert run(capsys, command, "--file", str(marked)) == (0, out, "")
        assert run(capsys, command, "--file", str(plain)) == (0, out, "")

    def test_out_flag_writes_the_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, "sweep", "--steps", "1,-1", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "1,-1\n"

    @pytest.mark.parametrize("flag, error", [
        ("--steps", "error: malformed step token '' at index 1"),
        ("--sw", "error: empty word"),
        ("--file", "error: [Errno 2] No such file or directory: ''"),
    ], ids=["steps", "sw", "file"])
    def test_empty_source_is_refused_not_read_as_no_source(self, capsys, monkeypatch, flag, error):
        # the parent took an empty source for none and swept the stdin batch
        monkeypatch.setattr(sys, "stdin", io.StringIO("2,-1,-1\n"))
        assert run(capsys, "sweep", flag, "") == (1, "", error + "\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sweep", "--file", "/nonexistent/path.json")
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("bad", BAD_JSON_LINES)
    def test_bad_json_file(self, capsys, tmp_path, bad):
        f = tmp_path / "p.json"
        f.write_text(bad)
        code, _, err = run(capsys, "sweep", "--file", str(f))
        assert code == 1 and err.startswith("error:")

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "sweep", "--bogus")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "command", ["sweep", "invert", "fill", "rank", "walk", "verify", "render"]
    )
    def test_permute_belongs_to_enumerate_only(self, capsys, command):
        code, out, err = run(capsys, command, "--family", "k", "--k", "1", "--permute")
        assert code == 1 and out == "" and "unrecognized arguments: --permute" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_malformed_k(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--family", "k", "--k", "2,x"
        )
        assert code == 1 and "malformed rise vector" in err
        # an empty --k is malformed too; it used to be dropped and the rises inferred
        code, out, err = run(capsys, "sweep", "--steps", "2,-1,-1", "--family", "k", "--k", "")
        assert (code, out, err) == (1, "", "error: malformed rise vector ''\n")

    @pytest.mark.parametrize("argv, error", [
        (["enumerate", "--family", "k"], "family 'k' needs --k"),
        (["verify", "--family", "rational"], "rational family needs --m and --n"),
        # and a command without what it reads: render has no stdin batch, and a
        # batch has no pictures; both refuse before stdin is read
        (["render"], "no input: pass --steps, --sw, or --file"),
        (["fill", "--format", "ascii"], "batch mode does not support --format ascii"),
        # with no family, fill, rank and walk check the plain family of the
        # path's rises; these three were filled, ranked and walked unchecked
        *(([command, "--steps", steps], f"not a member of the family: {error}")
          for command in ("fill", "rank", "walk") for steps, error in NO_FAMILY_NON_MEMBERS),
    ])
    def test_family_without_its_flags(self, capsys, argv, error):
        assert run(capsys, *argv) == (1, "", f"error: {error}\n")

    @pytest.mark.parametrize("command", ["fill", "rank", "walk"])
    def test_no_family_batch_checks_the_plain_family(self, capsys, monkeypatch, command):
        lines = "".join(f"{steps}\n" for steps, _ in NO_FAMILY_NON_MEMBERS)
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        assert run(capsys, command) == (1, "".join(
            f"error: not a member of the family: {error}\n"
            for _, error in NO_FAMILY_NON_MEMBERS), "")

    @pytest.mark.parametrize("k", ["1_0", "2.0"])
    def test_k_entries_follow_the_step_token_rule(self, capsys, k):
        # int() read "1_0" as 10, where --steps refuses the token
        code, out, err = run(capsys, "invert", "--family", "k", "--k", k,
                             "--steps", "10" + ",-1" * 10)
        assert (code, out, err) == (1, "", f"error: malformed rise vector {k!r}\n")

    def test_k_entries_take_the_whitespace_steps_do(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "k", "--k", " 2 ,\x1c1",
                           "--steps", "2,1,-1,-1,-1")
        assert (code, out) == (0, "2,-1,-1,1,-1\n")

    def test_parser_is_built_once_per_process(self):
        # built at the first main() call, not at import, and shared after it
        code = ("from sweepmap import cli; "
                "print(cli.build_parser.cache_info().currsize); "
                "cli.main(['sweep', '--steps', '1,-1']); cli.main(['sweep', '--steps', '1,-1']); "
                "print(cli.build_parser.cache_info().misses)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
        assert done.stdout.split() == ["0", "1,-1", "1,-1", "1"], done.stderr


def _console():
    """The installed script if there is one; otherwise the same entry point
    through `python -m sweepmap`.  Returns the command and its environment."""
    script = shutil.which("sweepmap")
    if script is not None:
        return [script], None
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return [sys.executable, "-m", "sweepmap"], {
        **os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))
    }


def test_console_script_round_trip(tmp_path):
    # the script is declared in pyproject.toml
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'sweepmap = "sweepmap.cli:main"' in scripts.splitlines()
    command, env = _console()
    result = subprocess.run(
        [*command, "sweep", "--steps", "2,-1,-1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "2,-1,-1"


@pytest.mark.parametrize("argv, stdin, first", [
    (("enumerate", "--family", "k", "--k", "4,4,4,4,4", "--permute"), b"",
     b"4,4,4,4,4" + b",-1" * 20 + b"\n"),
    (("sweep",), b"2,-1,1,-1,3,-1,-1,-1,-1\n" * 20000, b"2,-1,3,1,-1,-1,-1,-1,-1\n"),
], ids=["enumerate", "batch"])
def test_closed_stdout_is_not_an_error(argv, stdin, first):
    # `sweepmap ... | head -1`: far more than a pipe buffer of output, so the
    # writer meets the closed pipe; nothing goes to stderr, and the exit is 1
    command, env = _console()
    with subprocess.Popen([*command, *argv], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        feeder = _feed(proc, stdin)
        assert proc.stdout.readline() == first
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=60)) == (b"", 1)
        feeder.join(timeout=60)


def _feed(proc, data: bytes) -> threading.Thread:
    """Write data to a child's stdin, then close it, in a thread: a batch answers
    as it reads, so a parent that wrote all of a long stdin before reading any
    answer would wait on the child while the child waits on it."""
    def write():
        with suppress(BrokenPipeError):  # the child stopped reading
            proc.stdin.write(data)
        with suppress(BrokenPipeError):
            proc.stdin.close()

    thread = threading.Thread(target=write)
    thread.start()
    return thread


def _poll(read, want: bytes, seconds: float = 30) -> bytes:
    """Call read() until it returns want, or until the time is up; its last result."""
    deadline = time.monotonic() + seconds
    while (got := read()) != want and time.monotonic() < deadline:
        time.sleep(0.01)
    return got


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_batch_answers_each_line_before_the_next(tmp_path, to_file):
    # `producer | sweepmap invert ...`: each answer is written, to stdout or to
    # --out, before the next line is sent, and the exit code still reports the bad line
    target = tmp_path / "answers.txt"
    command, env = _console()
    argv = [*command, "invert", "--family", "k", "--k", "1,1"]
    with subprocess.Popen(argv + (["--out", str(target)] if to_file else []),
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        fd = proc.stdout.fileno()
        os.set_blocking(fd, False)
        seen = bytearray()

        def read() -> bytes:
            if to_file:
                return target.read_bytes() if target.exists() else b""
            with suppress(BlockingIOError):  # nothing written yet
                seen.extend(os.read(fd, 1 << 16))
            return bytes(seen)

        want = b""
        for line, answer in [(b"1,1,-1,-1\n", b"1,-1,1,-1\n"),
                             (b"x\n", b"error: malformed step token 'x' at index 1\n"),
                             (b"1,-1,1,-1\n", b"1,1,-1,-1\n")]:
            proc.stdin.write(line)
            proc.stdin.flush()
            want += answer
            assert _poll(read, want) == want
        proc.stdin.close()
        assert proc.wait(timeout=60) == 1
        assert os.read(fd, 1 << 16) == b""  # stdout holds nothing more
        assert (read(), proc.stderr.read()) == (want, b"")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_batch_peak_memory_stays_flat():
    # `sweepmap invert` on 1,000 and on 10,000 distinct lines of one family: keeping
    # as little as 60 bytes per line would add 0.5 MB to the second child's peak.
    # The peak is VmHWM, which exec starts afresh; ru_maxrss also counts the size
    # the child had before exec, a copy of this test process.  A first one-line
    # child writes the bytecode, whose compiling would set the next child's peak
    lines = [emit_steps(sweep(p)) for p in enumerate_family(FamilySpec.vector((2,) * 8),
                                                            max_n=8).paths[:10000]]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from sweepmap.cli import main; "
            "rc = main(sys.argv[2:]); sys.stdout.flush(); "
            "print(*[s.split()[1] for s in open('/proc/self/status') if s.startswith('VmHWM:')], "
            "file=sys.stderr); sys.exit(rc)")
    peak_kb = []
    for n in (1, 1000, 10000):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(ROOT / "src"), "invert", "--family", "k",
             "--k", "2,2,2,2,2,2,2,2"],
            input="\n".join(lines[:n]) + "\n", capture_output=True, text=True, timeout=120)
        assert (done.returncode, len(done.stdout.splitlines())) == (0, n), done.stderr
        peak_kb.append(int(done.stderr))
    assert peak_kb[2] - peak_kb[1] < 512, peak_kb


# every option of every subcommand, in parser order: (flags, dest, choices, default, required)
INPUT_OPTIONS = [
    (("--steps",), "steps", None, None, False),
    (("--sw",), "sw", None, None, False),
    (("--file",), "file", None, None, False),
]


def family_options(required):
    return [
        (("--family",), "family", ("k", "kplus", "kminus", "rational"), None, required),
        (("--k",), "kvec", None, None, False),
        (("--m",), "m", None, None, False),
        (("--n",), "n", None, None, False),
    ]


def output_options(formats, default):
    return [
        (("--format",), "format", formats, default, False),
        (("--out",), "out", None, None, False),
    ]


BOUND_OPTIONS = [
    (("--max-n",), "max_n", None, 5, False),
    (("--max-k",), "max_k", None, 4, False),
]
ENUMERATE_OPTIONS = [(("--permute",), "permute", None, False, False)] + BOUND_OPTIONS
TEXT, PICTURES = ("text", "json"), ("text", "json", "ascii", "svg")
CLI_SURFACE = [
    ("sweep", INPUT_OPTIONS + family_options(False) + output_options(TEXT, "text")),
    ("invert", INPUT_OPTIONS + family_options(True) + output_options(TEXT, "text")),
    ("fill", INPUT_OPTIONS + family_options(False) + output_options(PICTURES, "text")),
    ("rank", INPUT_OPTIONS + family_options(False) + output_options(PICTURES, "text")),
    (
        "walk",
        INPUT_OPTIONS
        + family_options(False)
        + output_options(TEXT, "text"),
    ),
    ("enumerate", family_options(True) + ENUMERATE_OPTIONS + output_options(TEXT, "text")),
    ("verify", family_options(True) + BOUND_OPTIONS + output_options(TEXT, "json")),
    (
        "render",
        INPUT_OPTIONS
        + family_options(False)
        + [(("--ranks",), "ranks", None, False, False)]
        + output_options(("ascii", "svg"), "ascii"),
    ),
]


def test_cli_surface_is_pinned():
    import argparse

    from sweepmap.cli import build_parser

    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = [
        (
            name,
            [
                (
                    tuple(a.option_strings),
                    a.dest,
                    tuple(a.choices) if a.choices else None,
                    a.default,
                    a.required,
                )
                for a in parser._actions
                if a.dest != "help"
            ],
        )
        for name, parser in sub.choices.items()
    ]
    assert surface == CLI_SURFACE


# every option of every subcommand that takes a value (a store_true defaults to False)
_VALUE_OPTIONS = [(name, flags[0]) for name, options in CLI_SURFACE
                  for flags, _, _, default, _ in options if default is not False]


@pytest.mark.parametrize("command, flag", _VALUE_OPTIONS)
def test_option_value_of_two_dashes_is_a_usage_error(capsys, monkeypatch, tmp_path, command,
                                                     flag):
    # Python 3.10 and 3.11 read --opt=-- as [], past the option's type and choices
    monkeypatch.chdir(tmp_path)
    good = ["--family", "k", "--k", "2,1"]  # a call the command answers
    if cli._TABLE[command].reads_path:
        good += ["--steps", "2,1,-1,-1,-1"]
    code, out, err = run(capsys, command, *good, f"{flag}=--")
    assert (code, out) == (1, "") and err.startswith(f"usage: sweepmap {command} ")
    assert err.endswith(f"\nsweepmap {command}: error: argument {flag}: expected one argument\n")
    assert list(tmp_path.iterdir()) == []


DEEP_JSON = '{"steps": ' + "[" * 5000 + "]" * 5000 + "}"


@pytest.mark.parametrize("command", ["sweep", "render"])
@pytest.mark.parametrize(
    "content", [b"\xff\xfe1,-1\n", DEEP_JSON.encode()], ids=["not-utf8", "deep-json"]
)
def test_unreadable_file_is_an_error(capsys, tmp_path, command, content):
    f = tmp_path / "p"
    f.write_bytes(content)
    code, out, err = run(capsys, command, "--file", str(f))
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("command", ["sweep", "invert", "fill", "rank", "walk"])
def test_deep_json_line_is_an_error_line(capsys, monkeypatch, command):
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"1,-1\n{DEEP_JSON}\n1,1,-1,-1\n"))
    code, out, _ = run(capsys, command, "--family", "k")
    lines = out.strip("\n").split("\n")
    assert code == 1 and len(lines) == 3
    assert lines[1].startswith("error:")
    assert not lines[0].startswith("error:") and not lines[2].startswith("error:")


def test_render_checks_the_file_family(capsys, tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"family": {"kind": "k", "k": [2]}, "steps": [1, -1]}))
    code, out, err = run(capsys, "render", "--file", str(f))
    assert code == 1 and out == "" and "not a member of the family" in err
    f.write_text(json.dumps({"family": {"kind": "k", "k": [1]}, "steps": [1, -1]}))
    code, out, _ = run(capsys, "render", "--file", str(f))
    assert code == 0 and out.rstrip("\n") == "/\\"


HUGE = "1" + "0" * 5000  # past Python's 4,300-digit limit on converting text to int


HUGE_ERRORS = {"steps": "step token at index 1 has too many digits",
               "sw": "token at index 1 has too many digits",
               "file": "a JSON integer has too many digits"}


@pytest.mark.parametrize("source", sorted(HUGE_ERRORS))
def test_huge_int_is_an_error(capsys, tmp_path, source):
    f = tmp_path / "p.json"
    f.write_text(f'{{"steps": [{HUGE}, -1]}}')
    value = {"steps": f"{HUGE},-1", "sw": f"S{HUGE} W", "file": str(f)}[source]
    code, out, err = run(capsys, "sweep", f"--{source}", value)
    assert (code, out, err) == (1, "", f"error: {HUGE_ERRORS[source]}\n")


def test_huge_json_int_is_an_error_line(capsys, monkeypatch):
    # the JSON line gets its own error, and malformed JSON keeps json's text
    lines = f'1,-1\n{{"steps": [{HUGE}, -1]}}\n{{"steps": [1, -1\n1,1,-1,-1\n'
    monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
    code, out, _ = run(capsys, "sweep", "--family", "k")
    assert code == 1 and out.split("\n") == [
        "1,-1", "error: a JSON integer has too many digits",
        "error: Expecting ',' delimiter: line 1 column 17 (char 16)", "1,-1,1,-1", ""]


# raw material for the single-input fuzzer: step tokens, SW letters, JSON
# fragments, ints past the digit limit and nesting past the recursion limit
_HUGE_INTS = st.integers(4301, 5000).map(lambda n: "9" * n)
_DEEP = st.integers(1, 3000).map(lambda d: "[" * d + "]" * d)
_KEYS = st.sampled_from(["steps", "family", "kind", "k", "m", "n", "columns"])


def _object(pairs):
    return "{" + ",".join(f'"{key}": {value}' for key, value in pairs) + "}"


_JSON = st.recursive(
    st.one_of(
        st.integers(-4, 4).map(str), _HUGE_INTS, _DEEP,
        st.sampled_from(["null", "true", "1.5", "1e999", '"k"', '"kplus"', '"rational"']),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5).map(lambda xs: "[" + ",".join(xs) + "]"),
        st.lists(st.tuples(_KEYS, inner), max_size=4).map(_object),
    ),
    max_leaves=12,
)
_OBJECTS = st.lists(st.tuples(_KEYS, _JSON), max_size=4).map(_object)
_TOKENS = st.one_of(
    st.integers(-4, 4).map(str), _HUGE_INTS, st.text(max_size=3),
    st.sampled_from(["S", "S2", "W", "W3", ",", " ", "-", "{", "[", "]"]),
)
_INPUTS = st.one_of(
    st.lists(_TOKENS, max_size=12).map("".join),
    _OBJECTS,
    _OBJECTS.map(lambda text: text[:-1]),  # cut short
    st.text(max_size=20),
)
_FAMILIES = st.sampled_from([
    [], ["--family", "k"], ["--family", "kplus"], ["--family", "kminus"],
    ["--family", "k", "--k", "2,1"], ["--family", "rational"],
    ["--family", "rational", "--m", "3", "--n", "2"],
])
_PATH_COMMANDS = ["sweep", "invert", "fill", "rank", "walk", "render"]


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(_PATH_COMMANDS),
    source=st.sampled_from(["steps", "sw", "file"]),
    text=_INPUTS,
    family=_FAMILIES,
    fmt=st.integers(0, 3),
    ranks=st.booleans(),
)
def test_single_input_fuzz_exits_zero_or_one(tmp_path_factory, command, source, text, family,
                                             fmt, ranks):
    formats = cli._TABLE[command].formats
    argv = [command, *family, "--format", formats[fmt % len(formats)]]
    if command == "render" and ranks:
        argv.append("--ranks")
    if source == "file":
        f = tmp_path_factory.mktemp("fuzz") / "input"
        f.write_bytes(text.encode("utf-8", "surrogatepass"))
        text = str(f)
    argv.append(f"--{source}={text}")
    out, err = io.StringIO(), io.StringIO()
    # an empty source is refused, not read as none, so no case reads stdin; it is empty anyway
    with mock.patch.object(sys, "stdin", io.StringIO()), redirect_stdout(out), \
            redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:  # one error line, from main or from argparse
        assert err.getvalue().splitlines()[-1].startswith(("error:", "sweepmap")), argv


# batch stdin: the single-input fuzzer's inputs and JSON, members of small
# families, and raw bytes, which may not be UTF-8; a "\n" inside a line would
# start another one
_BATCH_LINES = st.lists(
    st.one_of(
        _INPUTS.map(lambda text: text.encode("utf-8", "surrogatepass")),
        st.sampled_from([b"1,-1", b"2,-1,-1", b"1,-1,2,-1,-1", b"3,-2,3,-2,-2",
                         b'{"steps": [2, -1, 1, -1, -1]}']),
        _JSON.map(str.encode),
        st.binary(max_size=12),
    ).map(lambda line: line.replace(b"\n", b" ")),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(["sweep", "invert", "fill", "rank", "walk"]),
    lines=_BATCH_LINES,
    family=_FAMILIES,
    fmt=st.sampled_from(["text", "json"]),
)
def test_batch_fuzz_answers_every_line(command, lines, family, fmt):
    if command == "invert" and not family:
        family = ["--family", "k"]  # invert needs one, or argparse answers no line
    argv = [command, *family, "--format", fmt]
    # as sys.stdin reads a UTF-8 pipe: strictly decoded, split at "\n" only
    stdin = io.TextIOWrapper(io.BytesIO(b"".join(line + b"\n" for line in lines)),
                             encoding="utf-8", newline="\n")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    answers = out.getvalue().split("\n")
    assert answers.pop() == "" and code in (0, 1), (argv, lines, err.getvalue())
    assert "Traceback" not in err.getvalue()
    decodable = 0
    with suppress(UnicodeDecodeError):
        for line in lines:
            line.decode("utf-8")
            decodable += 1
    if decodable == len(lines):  # one answer per line, and nothing on stderr
        assert len(answers) == len(lines) and err.getvalue() == "", (argv, lines)
        assert code == any(a.startswith("error:") for a in answers)
    else:  # the lines before the undecodable one at most, then one error line
        assert len(answers) <= decodable and code == 1, (argv, lines)
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error:")
