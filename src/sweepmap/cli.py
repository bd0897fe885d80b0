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

from .oracle import DEFAULT_MAX_K, DEFAULT_MAX_N, BijectionReport, OracleError, enumerate_family
from .paths import (
    KIND_K,
    KIND_RATIONAL,
    FamilySpec,
    PathError,
    StepSequence,
    SWWord,
    _gather,
    _member,
    _spellings,
    _step_ints,
    _unchecked,
    _walk_tilt,
    emit_steps,
    infer_family,
    parse_steps,
    path_from_json,
    path_to_json,
    skeleton,
)
from .ranking import rank_tableau
from .render import path_ascii, path_svg, rank_ascii, tableau_ascii, tableau_svg
from .sweep import sweep
from .tableau import Tableau, TableauError, fill
from .walking import WalkError, _order, invert

_ERRORS = (PathError, TableauError, WalkError, OracleError)
# bad input that raises no ValueError: no such file, JSON nested too deep
_INPUT_ERRORS = (OSError, RecursionError)


class _Parser(argparse.ArgumentParser):
    """Argparse that reserves exit code 2 for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        """As argparse's, but an option value of exactly "--" is a usage error:
        Python 3.10 and 3.11 read --opt=-- as [], past the option's type and
        choices, and a version that passes "--" through gets the same error."""
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self._actions:
            if getattr(namespace, action.dest, None) in ([], "--"):
                self.error(f"argument {action.option_strings[0]}: expected one argument")
        return namespace, extras


def _sweep(steps, family):
    return sweep(steps if family is None else _member(steps, family))


def _fill(steps, family):
    return fill(SWWord.from_steps(skeleton(steps, family or infer_family(steps, KIND_K))))


def _rank(steps, family):
    t = _fill(steps, family)
    return t, rank_tableau(t)


def _walk(steps, family):
    family = family or infer_family(steps, KIND_K)
    s = _member(steps, family).steps  # before the refusal of a residue with no walk
    return [v + 1 for v in _order(s, family.down_drop, _walk_tilt(family))]


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
# (flag, argparse keywords) pairs placed after the family flags.  Every run
# refuses a path outside its family through paths._member: sweep and walk
# directly, invert itself, fill and rank in skeleton; with no family given,
# fill, rank and walk check the plain family of the path's own rises.
_Command = namedtuple(
    "_Command",
    "help family_required formats run view reads_path options default_format",
    defaults=(None, None, True, (), None),
)


def _flag_int(text: str) -> int:
    """An integer flag's value, read as one step token as --k reads its entries."""
    values = _step_ints(text) or ()
    if len(values) != 1:  # the text argparse gives a bad int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return values[0]


_TEXT = ("text", "json")
_PICTURES = ("text", "json", "ascii", "svg")
_BOUNDS = (
    ("--max-n", {"type": _flag_int, "default": DEFAULT_MAX_N}),
    ("--max-k", {"type": _flag_int, "default": DEFAULT_MAX_K}),
)
_RANKS = (("--ranks", {"action": "store_true", "help": "overlay ranks on a tableau"}),)
_PERMUTE = (("--permute", {"action": "store_true",
                           "help": "list every ordering of the rise vector"}),)
_TABLE = {
    "sweep": _Command("apply the sweep map to a path", False, _TEXT, _sweep, _view_path),
    "invert": _Command("recover the unique sweep preimage", True, _TEXT, invert, _view_path),
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
        p.add_argument("--m", type=_flag_int, help="rational families: rise of every up step")
        p.add_argument("--n", type=_flag_int, help="rational families: drop of every down step")
        for flag, keywords in c.options:
            p.add_argument(flag, **keywords)
        p.add_argument(
            "--format", choices=c.formats, default=c.default_format or c.formats[0]
        )
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser


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
    if args.kvec is not None:  # each entry a step token; FamilySpec refuses one not positive
        if (k := _step_ints(args.kvec)) is None:
            raise PathError(f"malformed rise vector {args.kvec!r}")
        return FamilySpec(kind, k=k)
    if steps is not None:
        return infer_family(steps, kind)
    if kind == KIND_RATIONAL:
        raise PathError("rational family needs --m and --n")
    raise PathError(f"family {kind!r} needs --k")


def _family_of(args):
    """The family --k or --m/--n fix for every path, or None, and a function
    from an input path to the family --family gives it, or to None without it.

    --k or --m/--n name one family for every path of a batch, so it is built
    once; if that fails, each path raises the same error, after its own.
    """
    if args.kvec is None and args.m is None:  # read off each path's rises
        return None, lambda steps: _family_from_args(args, steps)
    try:
        family = _family_from_args(args)
    except PathError as exc:
        error = str(exc)

        def refuse(steps):
            raise PathError(error)

        return None, refuse
    return family, lambda steps: family


def _sw_down(args, text: str) -> int:
    """The drop of a W letter: 1 for the k kind, else the number of up steps."""
    if args.family in ("kplus", "kminus", KIND_RATIONAL):
        return sum(1 for tok in text.split() if tok != "W") or 1
    return 1


def _load(text: str):
    """Step text as a path; JSON text (it starts with "{") as its object."""
    if not text.startswith("{"):
        return parse_steps(text)
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # int's digit limit, whose advice is about the interpreter
        raise PathError("a JSON integer has too many digits") from None


def _read(args):
    """The single input: a path from --steps or --sw, or what --file holds."""
    if args.steps is not None:
        return parse_steps(args.steps)
    if args.sw is not None:
        return SWWord.from_text(args.sw, down=_sw_down(args, args.sw)).steps()
    if args.file is not None:
        with open(args.file, encoding="utf-8-sig") as fh:  # a leading byte-order mark goes
            return _load(fh.read().strip())
    raise PathError("no input: pass --steps, --sw, or --file")


def _path(source) -> tuple[StepSequence, FamilySpec | None]:
    """The path in a loaded input, with the family its JSON object names."""
    return (source, None) if isinstance(source, StepSequence) else path_from_json(source)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _stdin_lines():
    """stdin's lines, split at "\n" only (as `wc -l` counts), less one leading BOM."""
    for line in sys.stdin:
        yield line.removeprefix("\ufeff")
        yield from sys.stdin


def _cmd_path(args) -> int:
    """Run a path subcommand on the input path, or on every stdin line."""
    c = _TABLE[args.command]
    fixed, family_of = _family_of(args)

    def show(source, indent=None, view=c.view) -> str:
        steps, family = _path(source)
        family = family_of(steps) or family  # --family wins over the input's
        out = view(c.run(steps, family), family, args.format)
        return json.dumps(out, indent=indent) if args.format == "json" else out

    if (args.steps, args.sw, args.file) != (None, None, None):  # an empty one is refused
        _write(show(_read(args), indent=2), args)
        return 0
    if args.format in ("ascii", "svg"):
        raise PathError(f"batch mode does not support --format {args.format}")
    # a fixed family's table reads a line of its spellings, and spells sweep's and invert's
    # text answers, which permute a member; other lines take parse_steps and emit_steps
    read, spell = _spellings(fixed) if fixed else ({}, {})

    def spelled(steps, _family, _fmt) -> str:
        return ",".join(_gather(spell, steps.steps))

    view = spelled if c.view is _view_path and args.format == "text" else c.view
    failed = False
    # one line out per stdin line, written as it is read, so a reader in a pipe
    # sees each answer before the next line is sent and memory stays flat
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        for line in _stdin_lines():
            try:
                text = line.strip()
                if not text:
                    raise PathError("empty line")
                try:
                    steps = _gather(read, text.split(","))
                except KeyError:  # a token outside the table, or a JSON object
                    text = show(_load(text))
                else:  # nonempty tokens of nonzero steps: parse_steps' answer
                    text = show(_unchecked(StepSequence, steps), view=view)
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
    """Sweep each path p of the family's permutation closure, then invert its image q;
    the first failure is the counterexample.  If every q is a member that inverts back to
    its p, the sweep is injective on a finite set it maps into itself: a bijection.  invert
    is used only as a function, not assumed correct, and the run shows it inverts them all."""
    family = _family_from_args(args)
    _walk_tilt(family)  # a family no walk inverts fails here, not in the round trips
    paths = enumerate_family(family, True, **_bounds(args)).paths
    counterexample = None
    for p in paths:
        q = sweep(p)
        try:
            back = invert(q, family)
        except PathError:  # invert's membership check: q is outside the closure
            kind, found = "image-outside-family", {}
        except _ERRORS as exc:
            kind, found = "round-trip-error", {"error": str(exc)}
        else:
            if back == p:
                continue
            kind, found = "round-trip-mismatch", {"preimage": emit_steps(back)}
        counterexample = {"kind": kind, "path": emit_steps(p), "image": emit_steps(q), **found}
        break
    out = BijectionReport(family, len(paths), counterexample is None, counterexample).to_json()
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
    if family := _family_of(args)[1](steps) or family:
        _member(steps, family)
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
