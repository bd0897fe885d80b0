"""Command-line interface: transform, inspect, verify, and render paths.

One path per invocation via --steps/--sw/--file, or a batch of paths on
stdin (one per line) for the transforming subcommands.  Exit codes: 0 on
success, 1 on invalid input or usage, 2 on verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

from .oracle import (
    DEFAULT_MAX_K,
    DEFAULT_MAX_N,
    OracleError,
    certify_bijection,
    enumerate_family,
)
from .paths import (
    KIND_K,
    KIND_RATIONAL,
    FamilySpec,
    PathError,
    StepSequence,
    SWWord,
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
from .walking import VARIANTS, WalkError, invert, run_walk, variant_for

_ERRORS = (PathError, TableauError, WalkError, OracleError)
# unreadable input: no such file, bytes not UTF-8, bad JSON, JSON nested too deep
_INPUT_ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError)


class _Parser(argparse.ArgumentParser):
    """Argparse that reserves exit code 2 for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _sweep(args, steps, family):
    return sweep(steps)


def _invert(args, steps, family):
    return invert(steps, family)


def _fill(args, steps, family):
    return fill(SWWord.from_steps(skeleton(steps, family)))


def _rank(args, steps, family):
    t = _fill(args, steps, family)
    return t, rank_tableau(t)


def _walk(args, steps, family):
    variant = variant_for(family.kind if family else KIND_K, args.variant)
    return run_walk(_fill(args, steps, family), variant)


def _view_path(steps, family, fmt: str):
    return path_to_json(steps, family) if fmt == "json" else emit_steps(steps)


def _view_fill(t, _family, fmt: str):
    if fmt in ("ascii", "svg"):
        return tableau_ascii(t) if fmt == "ascii" else tableau_svg(t)
    return t.to_json() if fmt == "json" else t.to_text()


def _view_rank(t_and_r, _family, fmt: str):
    t, r = t_and_r
    if fmt in ("ascii", "svg"):
        return rank_ascii(r) if fmt == "ascii" else tableau_svg(t, r)
    return r.to_json() if fmt == "json" else r.to_text()


def _view_walk(sigma, _family, fmt: str):
    return sigma.to_json() if fmt == "json" else ",".join(map(str, sigma))


class _Command(NamedTuple):
    """One subcommand: its parser and, for a path subcommand, its run and view."""

    help: str
    family_required: bool
    formats: tuple[str, ...]  # --format choices; the first is the default
    run: Callable | None = None  # run(args, steps, family) -> result
    view: Callable | None = None  # view(result, family, format) -> text, or a JSON object
    reads_path: bool = True  # takes --steps, --sw and --file
    options: tuple = ()  # (flag, argparse keywords) pairs placed after the family flags
    default_format: str | None = None  # when it is not the first choice


_TEXT = ("text", "json")
_PICTURES = ("text", "json", "ascii", "svg")
_BOUNDS = (
    ("--max-n", {"type": int, "default": DEFAULT_MAX_N}),
    ("--max-k", {"type": int, "default": DEFAULT_MAX_K}),
)
_RANKS = (("--ranks", {"action": "store_true", "help": "overlay ranks on a tableau"}),)
_TABLE = {
    "sweep": _Command("apply the sweep map to a path", False, _TEXT, _sweep, _view_path),
    "invert": _Command("recover the unique sweep preimage", True, _TEXT, _invert, _view_path),
    "fill": _Command("fill a path's word into its tableau", False, _PICTURES, _fill,
                     _view_fill),
    "rank": _Command("rank the tableau of a path", False, _PICTURES, _rank, _view_rank),
    "walk": _Command("walk the ranked tableau of a path", False, _TEXT, _walk, _view_walk,
                     options=(("--variant", {"choices": VARIANTS}),)),
    "enumerate": _Command("list every path of a family", True, _TEXT, reads_path=False,
                          options=_BOUNDS),
    "verify": _Command("certify the sweep bijection on a family", True, _TEXT,
                       reads_path=False, options=_BOUNDS, default_format="json"),
    "render": _Command("draw a path or a tableau", False, ("ascii", "svg"), options=_RANKS),
}


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--permute", action="store_true",
                       help="accept/emit every ordering of the rise vector")
        for flag, keywords in c.options:
            p.add_argument(flag, **keywords)
        p.add_argument(
            "--format", choices=c.formats, default=c.default_format or c.formats[0]
        )
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def _parse_kvec(text: str) -> tuple[int, ...]:
    try:
        k = tuple(int(v.strip()) for v in text.split(","))
    except ValueError:
        raise PathError(f"malformed rise vector {text!r}") from None
    if not k or any(v <= 0 for v in k):
        raise PathError("rise vector entries must be positive")
    return k


def _family_from_args(args, steps: StepSequence | None = None) -> FamilySpec | None:
    kind = args.family
    if kind is None:
        return None
    if kind == KIND_RATIONAL:
        if args.m is not None and args.n is not None:
            return FamilySpec.rational(args.m, args.n)
        if steps is not None:
            return infer_family(steps, kind)
        raise PathError("rational family needs --m and --n")
    if args.kvec:
        return FamilySpec(kind, k=_parse_kvec(args.kvec))
    if steps is not None:
        return infer_family(steps, kind)
    raise PathError(f"family {kind!r} needs --k")


def _sw_down(args, text: str) -> int:
    if args.family in ("kplus", "kminus"):
        return sum(1 for tok in text.split() if tok != "W") or 1
    if args.family == KIND_RATIONAL:
        if args.n is None:
            raise PathError("parsing a rational SW word needs --n")
        return args.n
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


def _member(args, steps: StepSequence, family: FamilySpec | None):
    """The path's family, --family winning over the input's; the path must belong."""
    if args.family is not None:
        family = _family_from_args(args, steps)
    if family is not None:
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

    def show(steps, family, indent=None) -> str:
        out = c.view(c.run(args, steps, family), family, args.format)
        return json.dumps(out, indent=indent) if args.format == "json" else out

    if args.steps or args.sw or args.file:
        _write(show(*_member(args, *_path(_read(args))), indent=2), args)
        return 0
    if args.format in ("ascii", "svg"):
        raise PathError(f"batch mode does not support --format {args.format}")
    out_lines = []  # one per stdin line, so line counts always match
    failed = False
    for line in sys.stdin.read().splitlines():
        try:
            text = line.strip()
            if not text:
                raise PathError("empty line")
            out_lines.append(show(*_member(args, *_path(_load(text)))))
        except (ValueError, RecursionError) as exc:  # each error above is a ValueError
            out_lines.append(f"error: {exc}")
            failed = True
    _write("\n".join(out_lines), args)
    return 1 if failed else 0


def _bounds(args) -> dict:
    """The enumeration keywords of the oracle, from --permute, --max-n and --max-k."""
    return {"permute_k": args.permute, "max_n": args.max_n, "max_k": args.max_k}


def _cmd_enumerate(args) -> int:
    enum = enumerate_family(_family_from_args(args), **_bounds(args))
    if args.format == "json":
        _write(json.dumps(enum.to_json(), indent=2), args)
    else:
        _write("\n".join(emit_steps(p) for p in enum.paths), args)
    return 0


def _cmd_verify(args) -> int:
    family = _family_from_args(args)
    if not args.permute and len(set(family.k)) > 1:
        raise PathError(
            f"the sweep map reorders rises, so the family with rises "
            f"{emit_steps(family.k)} in this fixed order is not closed under it; "
            "pass --permute to verify every ordering"
        )
    report = certify_bijection(family, **_bounds(args))
    ok, counterexample = report.bijection, report.counterexample
    for p in enumerate_family(family, **_bounds(args)).paths if ok else ():
        image = sweep(p)
        try:
            back = invert(image, family)
        except _ERRORS as exc:
            kind, found = "round-trip-error", {"error": str(exc)}
        else:
            if back == p:
                continue
            kind, found = "round-trip-mismatch", {"preimage": emit_steps(back)}
        ok = False
        counterexample = {"kind": kind, "path": emit_steps(p), "image": emit_steps(image)}
        counterexample.update(found)
        break
    out = {
        "family": family.to_json(),
        "count": report.count,
        "bijection": ok,
        "counterexample": counterexample,
    }
    text = json.dumps(out, indent=2) if args.format == "json" else _verify_text(family, out)
    _write(text, args)
    return 0 if ok else 2


def _verify_text(family: FamilySpec, report: dict) -> str:
    """verify's report as lines: family, count, bijection, then each counterexample field."""
    lines = [  # the oracle enumerates the k-vector kinds only
        f"family: {family.kind} k={emit_steps(family.k)}",
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
    _member(args, steps, family)
    _write(path_ascii(steps) if args.format == "ascii" else path_svg(steps), args)
    return 0


_COMMANDS = {"enumerate": _cmd_enumerate, "verify": _cmd_verify, "render": _cmd_render}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS.get(args.command, _cmd_path)(args)
    except (*_ERRORS, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
