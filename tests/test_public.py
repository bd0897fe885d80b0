"""What a user sees first: the public names and the README's examples."""

import ast
import importlib
import io
import re
import shlex
import subprocess
import sys
from pathlib import Path

import sweepmap
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
