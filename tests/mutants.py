"""Mutation check of src/sweepmap against the test files that should kill each mutant.

Each row of MUTANTS names a source file and its test files (or test ids), and
replaces one text of that file, which must occur there exactly once.  Every
mutant runs in a temporary copy of src/, tests/, pyproject.toml and README.md
with `pytest -x -q` on the row's tests only, so a row does not cost a full
tier-1 and the repository gains no cache or Hypothesis database.  A mutant is
killed when a test fails (pytest exit 1) or the run times out; any other
nonzero exit (a collection error, a test id that does not exist, no test
collected) marks the row "broken", since then no test ran against the mutant.
A row's status says what must happen: "killed", or "equivalent", for a
mutant that no input can tell from the code, with the argument in its
comment.  The script prints one line per mutant and exits 1 when a "killed"
row survives, an "equivalent" row is killed, or a row is broken or its text
is missing.

Run from anywhere, stdlib only:  python tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # a mutant that hangs the walk is killed by CI's time limit too



def _walking(*tests: str) -> tuple[str, tuple[str, ...]]:
    """walking.py with the test_walking.py ids that should kill its mutants."""
    return "src/sweepmap/walking.py", tuple(f"tests/test_walking.py::{t}" for t in tests)


# (source file, test files or test ids that should kill its mutants)
FLAT = _walking("TestWalk::test_running_example", "TestWalkMinus::test_two_columns")
UPWARD = _walking("TestWalkPlus::test_tiny")
WALKS = _walking("TestWalk::test_refuses_what_no_word_fills",
                 "TestWalkMinus::test_rejects_inadmissible")
GUARD = _walking("TestOnePassInvert::test_guard_refuses_a_short_answer",
                 "TestOnePassInvert::test_guard_refuses_what_the_pass_misspells",
                 "TestSigmaToPreimage::test_rational_spells_the_scaled_rises")
PATHS = ("src/sweepmap/paths.py", ("tests/test_paths.py",))
SWEEP = ("src/sweepmap/sweep.py", ("tests/test_sweep.py",))
ORACLE = ("src/sweepmap/oracle.py", ("tests/test_oracle.py",))
CLI = ("src/sweepmap/cli.py", ("tests/test_cli.py",))
# a fixed family's batch table, against its fallback and its call count
TABLE = ("tests/test_cli.py::test_batch_table_answers_as_its_fallback",
         "tests/test_cli.py::test_batch_table_line_calls_no_parse_or_emit")
TABLE_PATHS, TABLE_CLI = ("src/sweepmap/paths.py", TABLE), ("src/sweepmap/cli.py", TABLE)
# _gather's answer for one key, directly and as a one-token batch line
GATHER = ("src/sweepmap/paths.py",
          ("tests/test_paths.py::test_gather_is_a_tuple_for_any_key_count",))
ONE_TOKEN = ("src/sweepmap/paths.py", ("tests/test_cli.py::test_batch_table_one_token_line",))
# the passes' refusals of non-members, pinned with their texts
WALK_COUNT = _walking("TestOnePassInvert::test_pass_refuses_what_validate_refuses")
# refusals pinned with their texts in test_public's tables
REFUSALS = ("src/sweepmap/paths.py", ("tests/test_public.py::test_refusal_texts",
                                      "tests/test_public.py::test_bad_steps_raise_path_error"))
# every reader of Python ints, on values that are not ints
READERS = ("tests/test_public.py::test_readers_refuse_what_is_not_ints",)
READERS_PATHS, READERS_TABLEAU = ("src/sweepmap/paths.py", READERS), ("src/sweepmap/tableau.py",
                                                                      READERS)
# step text: each token stripped, and the first bad one named
PARSE = ("src/sweepmap/paths.py", (
    "tests/test_paths.py::TestTextForms::test_parse_reads_each_token_and_names_the_first_bad_one",))
FLAGS = ("src/sweepmap/cli.py", (
    "tests/test_cli.py::TestFilesAndUsage::test_integer_flags_follow_the_step_token_rule",))

# (name, old text, new text, status), under the file and tests they mutate
ROWS = {FLAT: [
    ("flat rank end", "e = hi + (a - tilt) // drop", "e = hi + (a - tilt) // drop + 1", "killed"),
    ("flat room tilt", "e = hi + (a - tilt) // drop", "e = hi + a // drop", "killed"),
    ("flat end count", "(a - tilt) // drop\n                add(e)\n                ends[e] += 1",
     "(a - tilt) // drop\n                add(e)\n                ends[e - 1] += 1", "killed"),
    ("flat run length", "hi + 1, j - floor[-1] - 1 - ends[hi]", "hi + 1, j - floor[-1] - ends[hi]",
     "killed"),
    ("flat run ends", "hi + 1, j - floor[-1] - 1 - ends[hi]", "hi + 1, j - floor[-1] - 1", "killed"),
    # each pass's counter step and stop list, as it hands them to the shared walk
    ("flat counter", "floor, -1, hi)", "floor, 1, hi)", "killed"),
    ("skeleton heights", "ints[col[0] - 1] = len(col) - 1", "ints[col[0] - 1] = len(col)",
     "killed"),
    ("minus drop 1", "_lift_ints(ints, 2, -1), 2, -1)", "_lift_ints(ints, 1, -1), 1, -1)",
     "killed"),
    ("order branches", "_upward_order(s, drop) if tilt else _flat_order(s, drop, 0)",
     "_flat_order(s, drop, 0) if tilt else _upward_order(s, drop)", "killed"),
    # the restored drop appended at the end, and the route's order keeping its write
    ("minus drop at end", "s = (*s[:1], -drop, *s[1:])", "s = (*s, -drop)", "killed"),
    ("minus drop written", "    out.pop()  # entry 1\n", "", "killed"),
], UPWARD: [
    ("up room", "e = hi + (a - 1) // drop", "e = hi + a // drop", "killed"),
    ("up rank-0 drops", "lo, hi, left = -1, 0, 1", "lo, hi, left = -1, 0, 2", "killed"),
    ("up first step", "ends[0] = 1", "ends[0] = 0", "killed"),
    ("up run length", "j + 1 - start[-1] - ends[hi]", "j - start[-1] - ends[hi]", "killed"),
    ("up counter", "size], 1, lo)", "size], -1, lo)", "killed"),
    # the upward fill has each rank r >= 0 read as often as it has entries, so
    # only the stop of rank -1, read after the extra drop, ends a member's walk
    ("up stop", "[*start[1:], size], 1", "[*start[1:], size + 1], 1", "killed"),
], WALKS: [
    ("fill comparison", "if fill(SWWord.from_steps(ints)) == t:",
     "if fill(SWWord.from_steps(ints)) is not None:", "killed"),
    ("minus admissibility", "if not is_minus_admissible(t):", "if False:", "killed"),
], GUARD: [
    ("guard length", "if len(out) == len(s) and min(accumulate(out)) >= 0:",
     "if min(accumulate(out)) >= 0:", "killed"),
    ("invert spelling", "_gather(read, order)", "_gather(read, order[::-1])", "killed"),
    ("preimage refusal", "    if not d:\n", "    if False:\n", "killed"),
], PATHS: [
    ("n_down", "sum(rises) // drop", "sum(rises)", "killed"),
    ("sorted rises", "tuple(sorted(rises))", "rises", "killed"),
    ("scale", "drop if k else 1", "drop", "killed"),
    ("lift end", "out + [-n] if t > 0 else out[:-1]", "out[:-1] if t > 0 else out + [-n]",
     "killed"),
    ("zero step", "    if 0 in s:\n", "    if False:\n", "killed"),
    ("negative prefix", "if min(levels) < 0:", "if min(levels) < -1:", "killed"),
    ("drop size", "if len(ups) + s.count(-drop) != len(s):", "if False:", "killed"),
    ("up count", "if len(ups) != len(expected):", "if False:", "killed"),
    ("permuted rises", "if tuple(sorted(ups)) != family.sorted_rises:", "if False:", "killed"),
    ("family tilt", "tilt = _TILT.get(kind, 0)", "tilt = _TILT.get(kind)", "killed"),
], GATHER: [
    # itemgetter's answer for one key is the bare value, not a 1-tuple
    ("gather one key", "if len(keys) > 1:", "if len(keys) > 0:", "killed"),
], ONE_TOKEN: [
    ("gather one key", "if len(keys) > 1:", "if len(keys) > 0:", "killed"),
], REFUSALS: [
    ("stray m n", "if (m, n) != (0, 0):", "if False:", "killed"),
], READERS_PATHS: [
    ("reader index", "read=operator.index) -> tuple:", "read=int) -> tuple:", "killed"),
    # the classmethods hand k to __init__'s reader, a non-iterable too
    ("vector k", "cls(KIND_K, k=k)", "cls(KIND_K, k=tuple(k))", "killed"),
    ("plus k", "cls(KIND_KPLUS, k=k)", "cls(KIND_KPLUS, k=tuple(k))", "killed"),
    ("minus k", "cls(KIND_KMINUS, k=k)", "cls(KIND_KMINUS, k=tuple(k))", "killed"),
], READERS_TABLEAU: [
    # a reader call per column would raise TypeError on Tableau(5), outside the reader
    ("tableau columns", "_index(columns, why, TableauError, lambda col: _index(col, why, "
     "TableauError))", "tuple(_index(col, why, TableauError) for col in columns)", "killed"),
], PARSE: [
    ("parse strip", 'enumerate(map(str.strip, text.split(",")), start=1)',
     'enumerate(text.split(","), start=1)', "killed"),
    ("parse zero", 'if not (a := _int_token(tok, "step token", j)):',
     'if (a := _int_token(tok, "step token", j)) is None:', "killed"),
], SWEEP: [
    ("tie order", "range(len(s) - 1, -1, -1)", "range(len(s))", "killed"),
], ORACLE: [
    ("first preimage", "index[q][0]", "index[q][-1]", "killed"),
    ("count", "count=len(paths)", "count=len(counts)", "killed"),
    ("down branch", "if left and h >= drop:", "if left and h > drop:", "killed"),
], FLAGS: [
    ("flag one token", "if len(values) != 1:", "if not values:", "killed"),
], CLI: [
    ("digit limit", "except ValueError:  # int's digit limit",
     "except OverflowError:  # int's digit limit", "killed"),
    ("option value --", 'if getattr(namespace, action.dest, None) in ([], "--"):', "if False:",
     "killed"),
    ("verify round trip", "if back == p:", "if True:", "killed"),
    ("verify outside", "except PathError:  # invert's", "except TableauError:  # invert's",
     "killed"),
    ("verify early tilt", "    _walk_tilt(family)  # a family no walk", "    # a family no walk",
     "killed"),
], TABLE_PATHS: [
    # every member line misses the table and takes parse_steps: same output, more calls
    ("table drop", "{*family.up_rises, -family.down_drop}", "{*family.up_rises}", "killed"),
    ("write spelling", "{a: text for text, a in read.items()}",
     '{a: text.lstrip("-") for text, a in read.items()}', "killed"),
], TABLE_CLI: [
    ("read fallback", "except KeyError:  # a token outside the table",
     "except OverflowError:  # a token outside the table", "killed"),
    ("write json", 'c.view is _view_path and args.format == "text"', "c.view is _view_path",
     "killed"),
], WALK_COUNT: [
    ("flat stop", "size - 1], floor, -1", "size - 1], [-1] * len(floor), -1", "killed"),
    # the one refusal of the lists whose drops find no bottom or whose last run stays open
    ("walk stopped short", "if len(out) < len(after):", "if False:", "killed"),
]}
MUTANTS = [(name, target, tests, old, new, status)
           for (target, tests), rows in ROWS.items() for name, old, new, status in rows]


def run(target: str, tests: tuple[str, ...], old: str, new: str) -> tuple[str, str]:
    """("killed", the first failing test), ("survived", ""), ("broken", the
    exit status) when pytest ran no test to the end, or ("missing", the count)
    when old does not occur exactly once in the target."""
    text = (ROOT / target).read_text(encoding="utf-8")
    if text.count(old) != 1:
        return "missing", f"{text.count(old)} occurrences"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):  # test_public reads the README
            shutil.copy(ROOT / name, tmp)
        (Path(tmp) / target).write_text(text.replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", *tests]
        try:
            done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived", ""
    if done.returncode != 1:  # 2 to 5: interrupted, internal error, usage error, no tests
        return "broken", f"pytest exit {done.returncode}"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return "killed", failed.group(1) if failed else "pytest exit 1"


def main() -> int:
    bad = 0
    for name, target, tests, old, new, status in MUTANTS:
        start = time.perf_counter()
        result, detail = run(target, tests, old, new)
        ok = result == ("survived" if status == "equivalent" else "killed")
        bad += not ok
        mark = "ok " if ok else "BAD"
        seconds = time.perf_counter() - start
        print(f"{mark} {Path(target).name:11} {name:20} {status:10} {result:8} {seconds:5.1f} s  "
              f"{detail}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} not as marked")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
