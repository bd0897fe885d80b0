"""CLI behavior: single-path calls, stdin batches, formats, and exit codes."""

import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepmap import FamilySpec, StepSequence, cli, enumerate_family, oracle
from sweepmap.cli import main
from conftest import counting

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
    def test_sweeps_the_closure_once(self, capsys, monkeypatch):
        # one search per ordering of the rises, one sweep per path
        calls = Counter()
        counting(monkeypatch, calls, (oracle, "_paths_for"), (oracle, "enumerate_family"),
                 (cli, "enumerate_family"), (oracle, "sweep"), (cli, "sweep"))
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "1,2,3")
        assert code == 0
        assert calls == {"_paths_for": 6, "sweep": json.loads(out)["count"]}

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

    def test_round_trip_mismatch_is_the_counterexample(self, capsys, monkeypatch):
        invert = cli.invert
        wrong = {(1, 2, -1, -1, -1): (2, 1, -1, -1, -1)}

        def fake_invert(image, family):
            p = invert(image, family)
            return StepSequence(wrong.get(p.steps, p.steps))

        monkeypatch.setattr(cli, "invert", fake_invert)
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "2,1")
        obj = json.loads(out)
        assert code == 2 and (obj["count"], obj["bijection"]) == (5, False)
        assert obj["counterexample"] == {
            "kind": "round-trip-mismatch", "path": "1,2,-1,-1,-1",
            "image": "1,-1,2,-1,-1", "preimage": "2,1,-1,-1,-1",
        }

    def test_failure_exits_two(self, capsys, monkeypatch):
        import sweepmap.cli as cli
        from sweepmap import BijectionReport

        def fake_certify(family, permute_k=True, max_n=5, max_k=4):
            return BijectionReport(
                family, permute_k, 0, False, {"kind": "collision"}
            )

        monkeypatch.setattr(cli, "certify_bijection", fake_certify)
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "1,1")
        assert code == 2
        assert json.loads(out)["bijection"] is False


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

    def test_text_report_lists_the_counterexample(self, capsys, monkeypatch):
        import sweepmap.cli as cli
        from sweepmap import BijectionReport

        def fake_certify(family, permute_k=True, max_n=5, max_k=4):
            found = {"kind": "collision", "first": "1,-1", "second": "1,-1", "image": "1,-1"}
            return BijectionReport(family, permute_k, 7, False, found)

        monkeypatch.setattr(cli, "certify_bijection", fake_certify)
        code, out, _ = run(capsys, "verify", "--family", "k", "--k", "1", "--format", "text")
        assert code == 2
        assert out.splitlines() == [
            "family: k k=1",
            "count: 7",
            "bijection: no",
            "kind: collision",
            "first: 1,-1",
            "second: 1,-1",
            "image: 1,-1",
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

    def test_out_flag_writes_the_file(self, capsys, tmp_path):
        target = tmp_path / "result.txt"
        code, out, _ = run(capsys, "sweep", "--steps", "1,-1", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "1,-1\n"

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


def test_console_script_round_trip(tmp_path):
    # the installed script if there is one; otherwise the same entry point
    # through `python -m sweepmap`, with the script declared in pyproject.toml
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert 'sweepmap = "sweepmap.cli:main"' in scripts.splitlines()
    script = shutil.which("sweepmap")
    if script is not None:
        command, env = [script], None
    else:
        command = [sys.executable, "-m", "sweepmap"]
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [*command, "sweep", "--steps", "2,-1,-1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "2,-1,-1"


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


@pytest.mark.parametrize("source", ["steps", "sw", "file"])
def test_huge_int_is_an_error(capsys, tmp_path, source):
    f = tmp_path / "p.json"
    f.write_text(f'{{"steps": [{HUGE}, -1]}}')
    value = {"steps": f"{HUGE},-1", "sw": f"S{HUGE} W", "file": str(f)}[source]
    code, out, err = run(capsys, "sweep", f"--{source}", value)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


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
    # an empty --steps or --sw falls through to batch mode, which reads no stdin here
    with mock.patch.object(sys, "stdin", io.StringIO()), redirect_stdout(out), \
            redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), (argv, err.getvalue())
    if code == 1:  # one error line, from main or from argparse
        assert err.getvalue().splitlines()[-1].startswith(("error:", "sweepmap")), argv
