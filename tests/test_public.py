"""What a user sees first: the public names and the README's examples."""

import ast
import importlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sweepmap
from sweepmap import FamilySpec, PathError, StepSequence, SWWord, Tableau, TableauError
from sweepmap.cli import main

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

PUBLIC_NAMES = [
    "BijectionReport", "Diagnostic", "FamilyEnumeration", "FamilySpec", "OracleError",
    "PathError", "StepSequence", "SWWord", "Tableau",
    "TableauError", "WalkError", "brute_invert", "certify_bijection",
    "dyck_diagnostic", "emit_steps", "enumerate_family", "extend_plus", "fill", "from_minus",
    "from_plus", "infer_family", "invert", "is_minus_admissible",
    "parse_steps", "path_ascii", "path_from_json", "path_svg", "path_to_json", "rank_ascii",
    "rank_tableau", "ranks", "sigma_to_preimage", "sweep", "sweep_order",
    "tableau_ascii", "tableau_svg", "to_minus", "to_plus", "validate",
    "walk", "walk_minus", "walk_plus",
]


def test_public_api_is_pinned():
    assert sweepmap.__all__ == PUBLIC_NAMES
    assert all(hasattr(sweepmap, name) for name in PUBLIC_NAMES)


K21 = FamilySpec.vector((2, 1))
PLAIN = (2, -1, 1, -1, -1)  # a member of K21
# every public name that takes steps: a call on them alone, and a valid input
STEP_TAKERS = {
    "StepSequence": (StepSequence, PLAIN),
    "brute_invert": (lambda s: sweepmap.brute_invert(s, K21), PLAIN),
    "dyck_diagnostic": (sweepmap.dyck_diagnostic, PLAIN),
    "emit_steps": (sweepmap.emit_steps, PLAIN),
    "from_minus": (sweepmap.from_minus, (3, 1, -2, -2)),
    "from_plus": (sweepmap.from_plus, (5, -2, 3, -2, -2, -2)),
    "infer_family": (lambda s: sweepmap.infer_family(s, "k"), PLAIN),
    "invert": (lambda s: sweepmap.invert(s, K21), PLAIN),
    "path_ascii": (sweepmap.path_ascii, PLAIN),
    "path_svg": (sweepmap.path_svg, PLAIN),
    "path_to_json": (lambda s: sweepmap.path_to_json(s, K21), PLAIN),
    "ranks": (sweepmap.ranks, PLAIN),
    "sweep": (sweepmap.sweep, PLAIN),
    "sweep_order": (sweepmap.sweep_order, PLAIN),
    "to_minus": (lambda s: sweepmap.to_minus(s, (2, 1)), (2, 1, -1, -1, -1)),
    "to_plus": (lambda s: sweepmap.to_plus(s, (2, 1)), PLAIN),
    "validate": (lambda s: sweepmap.validate(s, K21), PLAIN),
}
# the public callables that take no steps: tableaux, words, text, JSON, families
TAKES_NO_STEPS = {
    "BijectionReport", "Diagnostic", "FamilyEnumeration", "FamilySpec", "OracleError",
    "PathError", "SWWord", "Tableau", "TableauError", "WalkError", "certify_bijection",
    "enumerate_family", "extend_plus", "fill", "is_minus_admissible", "parse_steps",
    "path_from_json", "rank_ascii", "rank_tableau", "sigma_to_preimage", "tableau_ascii",
    "tableau_svg", "walk", "walk_minus", "walk_plus",
}
# with the public method that takes steps, which the declaration check cannot see
STEP_READERS = {**STEP_TAKERS, "SWWord.from_steps": (SWWord.from_steps, PLAIN)}
RAW = {"list": list, "tuple": tuple, "iterator": iter, "generator": lambda s: (a for a in s)}
# bad steps, and the one refusal every step taker gives them
NOT_INTS = "^path steps must be integers$"
BAD = {"floats": (lambda s: [float(a) for a in s], NOT_INTS),
       "none": (lambda s: None, NOT_INTS),
       "str": (lambda s: ",".join(map(str, s)), NOT_INTS),
       "nested": (lambda s: [[a] for a in s], NOT_INTS),
       "int": (lambda s: s[0], NOT_INTS),
       # one bad entry among ints: int() would truncate 1.5 and read "2"
       "half": (lambda s: (s[0] + 0.5, *s[1:]), NOT_INTS),
       "digit": (lambda s: (str(s[0]), *s[1:]), NOT_INTS),
       "none_entry": (lambda s: (None, *s[1:]), NOT_INTS),
       "zero": (lambda s: (s[0], 0, *s[1:]), "^zero rise at index 2$")}


def test_every_public_callable_declares_whether_it_takes_steps():
    public = {name for name in sweepmap.__all__ if callable(getattr(sweepmap, name))}
    assert public == set(STEP_TAKERS) | TAKES_NO_STEPS
    assert not set(STEP_TAKERS) & TAKES_NO_STEPS


@pytest.mark.parametrize("form", RAW)
@pytest.mark.parametrize("name", STEP_READERS)
def test_raw_steps_read_as_a_step_sequence(name, form):
    call, steps = STEP_READERS[name]
    assert call(RAW[form](steps)) == call(StepSequence(steps))


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("name", STEP_READERS)
def test_bad_steps_raise_path_error(name, bad):
    call, steps = STEP_READERS[name]
    make, error = BAD[bad]
    with pytest.raises(PathError, match=error):
        call(make(steps))


# refusals of families, words, inference and tableaux, each with its error and text
REFUSALS = {
    "family-empty-k": (lambda: FamilySpec("k", k=()), PathError,
                       "family needs a nonempty rise vector"),
    "family-zero-k": (lambda: FamilySpec.vector((2, 0)), PathError,
                      "rise vector entries must be positive"),
    "family-kind": (lambda: FamilySpec("x"), PathError, "unknown family kind 'x'"),
    "family-rational-k": (lambda: FamilySpec("rational", k=(1,), m=3, n=2), PathError,
                          r"rational families take \(m, n\), not a rise vector"),
    # a stray m or n would be a compared field: unequal to the plain family, and lost in JSON
    "family-k-mn": (lambda: FamilySpec("k", k=(2, 1), m=5, n=3), PathError,
                    r"k families take a rise vector, not \(m, n\)"),
    "family-kplus-m": (lambda: FamilySpec("kplus", k=(1,), m=1.5), PathError,
                       r"kplus families take a rise vector, not \(m, n\)"),
    "family-kminus-n": (lambda: FamilySpec("kminus", k=(2,), n=1), PathError,
                        r"kminus families take a rise vector, not \(m, n\)"),
    "family-json": (lambda: FamilySpec.from_json({}), PathError,
                    "family object needs a 'kind' key"),
    "word-kind": (lambda: SWWord((("X", 1),)), PathError, "bad letter kind 'X' at index 1"),
    "word-down": (lambda: SWWord.from_text("S1 W", down=0), PathError,
                  "down drop must be positive, got 0"),
    "word-empty": (lambda: SWWord.from_text("  "), PathError, "empty word"),
    "infer-no-ups": (lambda: sweepmap.infer_family((-1,), "k"), PathError,
                     "path has no up steps"),
    "infer-rational": (lambda: sweepmap.infer_family((2, -1, 3, -1, -1, -1, -1), "rational"),
                       PathError, "rational paths need constant rises and drops"),
    "infer-kind": (lambda: sweepmap.infer_family((1, -1), "x"), PathError,
                   "unknown family kind 'x'"),
    "tableau-empty": (lambda: Tableau(()), TableauError, "tableau needs at least one column"),
    "tableau-int-column": (lambda: Tableau(((1, 2), 5)), TableauError,
                           "tableau columns must hold integers"),
    "tableau-json": (lambda: Tableau.from_json({}), TableauError,
                     "tableau object needs a 'columns' key"),
    "fill-empty": (lambda: sweepmap.fill(SWWord(())), TableauError,
                   "tableau needs at least one column"),
    "rank-first-top": (lambda: sweepmap.rank_tableau(Tableau(((2, 3), (1, 4)))), TableauError,
                       "top index 1 of column 2 has no predecessor"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_texts(case):
    call, error, text = REFUSALS[case]
    with pytest.raises(error, match=f"^{text}$"):
        call()


NOT_K = "rise vector entries must be integers"
# every reader of Python ints: a call on one value, put(x) a valid value with x
# as an entry when x is 1, and the one refusal of a value it cannot read
READERS = {
    "StepSequence": (StepSequence, lambda x: (x, -1), PathError, "path steps must be integers"),
    "FamilySpec-k": (lambda k: FamilySpec("k", k=k), lambda x: (x, 2), PathError, NOT_K),
    "FamilySpec-kplus": (lambda k: FamilySpec("kplus", k=k), lambda x: (x, 2), PathError, NOT_K),
    "FamilySpec-kminus": (lambda k: FamilySpec("kminus", k=k), lambda x: (x, 2), PathError,
                          NOT_K),
    "FamilySpec.vector": (FamilySpec.vector, lambda x: (x, 2), PathError, NOT_K),
    "FamilySpec.plus": (FamilySpec.plus, lambda x: (x, 2), PathError, NOT_K),
    "FamilySpec.minus": (FamilySpec.minus, lambda x: (x, 2), PathError, NOT_K),
    "to_plus": (lambda k: sweepmap.to_plus(PLAIN, k), lambda x: (2, x), PathError, NOT_K),
    "to_minus": (lambda k: sweepmap.to_minus((2, 1, -1, -1, -1), k), lambda x: (2, x),
                 PathError, NOT_K),
    "FamilySpec.rational": (lambda mn: FamilySpec.rational(*mn), lambda x: (x, 2), PathError,
                            "rational family needs integer m and n"),
    "Tableau": (Tableau, lambda x: ((x, 2), (3, 4)), TableauError,
                "tableau columns must hold integers"),
    "SWWord": (SWWord, lambda x: (("S", x), ("W", 1)), PathError,
               "letter sizes must be integers"),
}
# bad values, each a function of a reader's put: not iterable, or a bad entry
NOT_READ = {"int": lambda put: 5, "none": lambda put: None,
            "float-entry": lambda put: put(1.5), "str-entry": lambda put: put("1"),
            "none-entry": lambda put: put(None)}
# m and n are read as a pair of scalars: a whole value that is not iterable is no case
NOT_ITERABLE = {"int", "none"}


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in READERS for bad in NOT_READ
    if not (name == "FamilySpec.rational" and bad in NOT_ITERABLE)])
def test_readers_refuse_what_is_not_ints(name, bad):
    call, put, error, text = READERS[name]
    with pytest.raises(error, match=f"^{text}$"):
        call(NOT_READ[bad](put))


@pytest.mark.parametrize("name", READERS)
def test_readers_read_true_as_one(name):
    call, put, _, _ = READERS[name]
    assert call(put(True)) == call(put(1))


@pytest.mark.parametrize("form", RAW)
@pytest.mark.parametrize("make", [FamilySpec.vector, FamilySpec.plus, FamilySpec.minus])
def test_family_classmethods_read_any_iterable(make, form):
    assert make(RAW[form]((2, 1))) == make((2, 1))


def test_traced_names_resolve():
    # the benchmark's tracer wraps each LAYER_OF name ("module.function" or
    # "module.Class.method"); read without importing, so nothing is written there
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    layer_of = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "LAYER_OF")
    assert layer_of
    for name in layer_of:
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"sweepmap.{module}")
        if len(attrs) == 2:  # a method, looked up on its class
            owner = getattr(owner, attrs[0])
        assert attrs[-1] in vars(owner), name


def test_import_loads_no_heavy_modules():
    # every `sweepmap` command pays for its imports, and dataclasses, with the
    # inspect, ast and dis it pulls in, was most of the time `import sweepmap` took
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
            "import sweepmap, sweepmap.cli; print(*sorted(set(sys.modules) - before))")
    for flags in (["-I"], ["-I", "-S"]):
        done = subprocess.run([sys.executable, *flags, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=60)
        new = set(done.stdout.split())
        assert "sweepmap.cli" in new, done.stderr
        assert not {"dataclasses", "inspect"} & new
    # site may import typing before sweepmap does; without site (-S) nothing has
    assert "typing" not in new


def _block(section, lang):
    """The first fenced block of the given language in a README section."""
    body = README.split(f"\n## {section}\n")[1].split("\n## ")[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_readme_library_snippet_runs():
    exec(_block("Library", "python"), {})


def test_readme_command_lines_exit_zero(capsys, monkeypatch):
    # backslash continuations joined; an `echo "..." |` prefix becomes stdin
    text = _block("Command line", "sh").replace("\\\n", " ")
    commands = re.findall(r'^(?:echo "([^"]*)" \| )?sweepmap (.+)$', text, re.M)
    assert len(commands) == text.count("sweepmap ") > 0
    for stdin, args in commands:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin + "\n" if stdin else ""))
        assert main(shlex.split(args)) == 0, (args, capsys.readouterr().err)
