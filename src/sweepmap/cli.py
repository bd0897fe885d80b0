"""Command-line interface: transform, inspect, verify, and render paths.

One path per invocation via --steps/--sw/--file, or a batch of paths on
stdin (one per line) for the transforming subcommands.  Exit codes: 0 on
success, 1 on invalid input or usage, 2 on verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import namedtuple
from contextlib import nullcontext

from .oracle import (
    DEFAULT_MAX_K,
    DEFAULT_MAX_N,
    OracleError,
    _closure,
    certify_bijection,
    enumerate_family,
)
from .paths import (
    KIND_RATIONAL,
    FamilySpec,
    PathError,
    StepSequence,
    SWWord,
    _step_ints,
    _walk_tilt,
    emit_steps,
    infer_family,
    parse_steps,
    path_from_json,
    path_to_json,
    skeleton,
    validate,
)
from .ranking import rank_tableau
from .render import path_ascii, path_svg, rank_ascii, tableau_ascii, tableau_svg
from .sweep import sweep
from .tableau import Tableau, TableauError, fill
from .walking import WalkError, invert, run_walk

_ERRORS = (PathError, TableauError, WalkError, OracleError)
# bad input that raises no ValueError: no such file, JSON nested too deep
_INPUT_ERRORS = (OSError, RecursionError)


class _Parser(argparse.ArgumentParser):
    """Argparse that reserves exit code 2 for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sweep(steps, _family):
    return sweep(steps)


def _fill(steps, family):
    return fill(SWWord.from_steps(skeleton(steps, family)))


def _rank(steps, family):
    t = _fill(steps, family)
    return t, rank_tableau(t)


def _walk(steps, family):
    return run_walk(_fill(steps, family), family.tilt if family else 0)


def _view_path(steps, family, fmt: str):
    return path_to_json(steps, family) if fmt == "json" else emit_steps(steps)


def _view_fill(t, _family, fmt: str):
    if fmt in ("ascii", "svg"):
        return tableau_ascii(t) if fmt == "ascii" else tableau_svg(t)
    return t.to_json() if fmt == "json" else t.to_text()


def _view_rank(t_and_ranks, _family, fmt: str):
    t, ranks = t_and_ranks
    if fmt in ("ascii", "svg"):
        return rank_ascii(t, ranks) if fmt == "ascii" else tableau_svg(t, ranks)
    cols = [[ranks[v - 1] for v in col] for col in t.columns]
    if fmt == "json":
        return {"k": list(t.k), "ranks": cols, "by_index": list(ranks)}
    by = ",".join(map(str, ranks))
    return "|".join(",".join(map(str, col)) for col in cols) + f";by_index={by}"


def _view_walk(sigma, _family, fmt: str):
    return sigma if fmt == "json" else ",".join(map(str, sigma))


# One subcommand: its parser and, for a path subcommand, its run and view.
# formats: the --format choices, the first the default unless default_format
# names another; run(steps, family) -> result; view(result, family, format) ->
# text, or a JSON object; reads_path: takes --steps, --sw and --file; options:
# (flag, argparse keywords) pairs placed after the family flags; checks_member:
# run refuses a path outside the family itself.
_Command = namedtuple(
    "_Command",
    "help family_required formats run view reads_path options default_format checks_member",
    defaults=(None, None, True, (), None, False),
)


_TEXT = ("text", "json")
_PICTURES = ("text", "json", "ascii", "svg")
_BOUNDS = (
    ("--max-n", {"type": int, "default": DEFAULT_MAX_N}),
    ("--max-k", {"type": int, "default": DEFAULT_MAX_K}),
)
_RANKS = (("--ranks", {"action": "store_true", "help": "overlay ranks on a tableau"}),)
_PERMUTE = (("--permute", {"action": "store_true",
                           "help": "list every ordering of the rise vector"}),)
_TABLE = {
    "sweep": _Command("apply the sweep map to a path", False, _TEXT, _sweep, _view_path),
    "invert": _Command("recover the unique sweep preimage", True, _TEXT, invert, _view_path,
                       checks_member=True),
    "fill": _Command("fill a path's word into its tableau", False, _PICTURES, _fill,
                     _view_fill),
    "rank": _Command("rank the tableau of a path", False, _PICTURES, _rank, _view_rank),
    "walk": _Command("walk the ranked tableau of a path", False, _TEXT, _walk, _view_walk),
    "enumerate": _Command("list every path of a family", True, _TEXT, reads_path=False,
                          options=_PERMUTE + _BOUNDS),
    "verify": _Command("certify the sweep bijection on a family", True, _TEXT,
                       reads_path=False, options=_BOUNDS, default_format="json"),
    "render": _Command("draw a path or a tableau", False, ("ascii", "svg"), options=_RANKS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built at the first call and shared after it."""
    parser = _Parser(prog="sweepmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, c in _TABLE.items():
        p = sub.add_parser(name, help=c.help)
        if c.reads_path:
            p.add_argument("--steps", help='path as comma-separated rises, e.g. "2,-1,-1"')
            p.add_argument("--sw", help='path as an SW word, e.g. "S2 W W"')
            p.add_argument("--file", help="read the path (JSON or step text) from a file")
        p.add_argument("--family", choices=["k", "kplus", "kminus", "rational"],
                       required=c.family_required, help="family the path belongs to")
        p.add_argument("--k", help='rise vector, e.g. "2,1,3"', dest="kvec")
        p.add_argument("--m", type=int, help="rational families: rise of every up step")
        p.add_argument("--n", type=int, help="rational families: drop of every down step")
        for flag, keywords in c.options:
            p.add_argument(flag, **keywords)
        p.add_argument(
            "--format", choices=c.formats, default=c.default_format or c.formats[0]
        )
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def _parse_kvec(text: str) -> tuple[int, ...]:
    k = _step_ints(text)  # each entry a step token; FamilySpec refuses one that is not positive
    if k is None:
        raise PathError(f"malformed rise vector {text!r}")
    return k


def _check_family_flags(args) -> None:
    """Refuse family flags that the chosen kind would not read."""
    rational = args.family == KIND_RATIONAL
    if (args.m is None) != (args.n is None):
        raise PathError("--m and --n go together")
    if args.m is not None and not rational:
        raise PathError("--m and --n need --family rational")
    if args.kvec is not None and (rational or args.family is None):
        raise PathError("--k needs --family k, kplus or kminus")


def _family_from_args(args, steps: StepSequence | None = None) -> FamilySpec | None:
    kind = args.family  # _check_family_flags has matched --m/--n or --k to it
    if kind is None:
        return None
    if args.m is not None:
        return FamilySpec.rational(args.m, args.n)
    if args.kvec is not None:
        return FamilySpec(kind, k=_parse_kvec(args.kvec))
    if steps is not None:
        return infer_family(steps, kind)
    if kind == KIND_RATIONAL:
        raise PathError("rational family needs --m and --n")
    raise PathError(f"family {kind!r} needs --k")


def _family_of(args):
    """A function from an input path to the family --family gives it, or to
    None without the flag.

    --k or --m/--n name one family for every path of a batch, so it is built
    once; if that fails, each path raises the same error, after its own.
    """
    if args.kvec is None and args.m is None:  # read off each path's rises
        return lambda steps: _family_from_args(args, steps)
    try:
        family = _family_from_args(args)
    except PathError as exc:
        error = str(exc)

        def refuse(steps):
            raise PathError(error)

        return refuse
    return lambda steps: family


def _sw_down(args, text: str) -> int:
    """The drop of a W letter: 1 for the k kind, else the number of up steps."""
    if args.family in ("kplus", "kminus", KIND_RATIONAL):
        return sum(1 for tok in text.split() if tok != "W") or 1
    return 1


def _load(text: str):
    """Step text as a path; JSON text (it starts with "{") as its object."""
    return json.loads(text) if text.startswith("{") else parse_steps(text)


def _read(args):
    """The single input: a path from --steps or --sw, or what --file holds."""
    if args.steps:
        return parse_steps(args.steps)
    if args.sw:
        return SWWord.from_text(args.sw, down=_sw_down(args, args.sw)).steps()
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            return _load(fh.read().strip())
    raise PathError("no input: pass --steps, --sw, or --file")


def _path(source) -> tuple[StepSequence, FamilySpec | None]:
    """The path in a loaded input, with the family its JSON object names."""
    return (source, None) if isinstance(source, StepSequence) else path_from_json(source)


def _member(family_of, steps: StepSequence, family: FamilySpec | None, check: bool = True):
    """The path's family, --family's (from family_of) winning over the input's;
    the path must belong, which check=False leaves to the caller."""
    family = family_of(steps) or family
    if check and family is not None:
        d = validate(steps, family, permute_k=True)
        if not d:
            raise PathError(f"not a member of the family: {d}")
    return steps, family


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_path(args) -> int:
    """Run a path subcommand on the input path, or on every stdin line."""
    c = _TABLE[args.command]
    family_of = _family_of(args)

    def show(source, indent=None) -> str:
        steps, family = _member(family_of, *_path(source), not c.checks_member)
        out = c.view(c.run(steps, family), family, args.format)
        return json.dumps(out, indent=indent) if args.format == "json" else out

    if args.steps or args.sw or args.file:
        _write(show(_read(args), indent=2), args)
        return 0
    if args.format in ("ascii", "svg"):
        raise PathError(f"batch mode does not support --format {args.format}")
    failed = False
    # one line out per stdin line, written as it is read, so a reader in a pipe
    # sees each answer before the next line is sent and memory stays flat
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for line in sys.stdin:  # split at "\n" only, as `wc -l` counts lines
            try:
                text = line.strip()
                if not text:
                    raise PathError("empty line")
                text = show(_load(text))
            except (ValueError, RecursionError) as exc:  # each error above is a ValueError
                text = f"error: {exc}"
                failed = True
            out.write(text + "\n")
            out.flush()
    return 1 if failed else 0


def _bounds(args) -> dict:
    """The oracle's bound keywords, from --max-n and --max-k."""
    return {"max_n": args.max_n, "max_k": args.max_k}


def _cmd_enumerate(args) -> int:
    enum = enumerate_family(_family_from_args(args), args.permute, **_bounds(args))
    if args.format == "json":
        _write(json.dumps(enum.to_json(), indent=2), args)
    else:
        _write("\n".join(emit_steps(p) for p in enum.paths), args)
    return 0


def _cmd_verify(args) -> int:
    """Certify the sweep on the family's permutation closure, then round-trip each path."""
    family = _family_from_args(args)
    _walk_tilt(family)  # a family no walk inverts fails here, not in the round trips
    report = certify_bijection(family, permute_k=True, **_bounds(args))
    out = report.to_json()
    _, images, _ = _closure(family, **_bounds(args))  # step tuples, in enumeration order
    for p, image in images.items() if report.bijection else ():
        try:
            back = invert(image, family)
        except _ERRORS as exc:
            kind, found = "round-trip-error", {"error": str(exc)}
        else:
            if back.steps == p:
                continue
            kind, found = "round-trip-mismatch", {"preimage": emit_steps(back)}
        out.update(bijection=False, counterexample={
            "kind": kind, "path": emit_steps(p), "image": emit_steps(image), **found})
        break
    text = json.dumps(out, indent=2) if args.format == "json" else _verify_text(family, out)
    _write(text, args)
    return 0 if out["bijection"] else 2


def _verify_text(family: FamilySpec, report: dict) -> str:
    """verify's report as lines: family, count, bijection, then each counterexample field."""
    named = f"k={emit_steps(family.k)}" if family.k else f"m={family.m} n={family.n}"
    lines = [
        f"family: {family.kind} {named}",
        f"count: {report['count']}",
        f"bijection: {'yes' if report['bijection'] else 'no'}",
    ]
    lines += [f"{key}: {value}" for key, value in (report["counterexample"] or {}).items()]
    return "\n".join(lines)


def _cmd_render(args) -> int:
    source = _read(args)
    if isinstance(source, dict) and "columns" in source:
        t = Tableau.from_json(source)
        r = rank_tableau(t) if args.ranks else None
        _write(tableau_ascii(t, r) if args.format == "ascii" else tableau_svg(t, r), args)
        return 0
    steps, family = _path(source)
    if args.ranks:
        raise PathError("--ranks overlays apply to tableaux, not paths")
    _member(_family_of(args), steps, family)
    _write(path_ascii(steps) if args.format == "ascii" else path_svg(steps), args)
    return 0


_COMMANDS = {"enumerate": _cmd_enumerate, "verify": _cmd_verify, "render": _cmd_render}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        _check_family_flags(args)
        code = _COMMANDS.get(args.command, _cmd_path)(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:  # stdout's reader has gone (`| head -1`): no input error
        # point stdout at devnull, so the flush at interpreter exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
