"""Command-line interface: transform, inspect, verify, and render paths.

One path per invocation via --steps/--sw/--file, or a batch of paths on
stdin (one per line) for the transforming subcommands.  Exit codes: 0 on
success, 1 on invalid input or usage, 2 on verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

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


class _Parser(argparse.ArgumentParser):
    """Argparse that reserves exit code 2 for verification failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steps", help='path as comma-separated rises, e.g. "2,-1,-1"')
    p.add_argument("--sw", help='path as an SW word, e.g. "S2 W W"')
    p.add_argument("--file", help="read the path (JSON or step text) from a file")


def _add_family_flags(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument(
        "--family",
        choices=["k", "kplus", "kminus", "rational"],
        required=required,
        help="family the path belongs to",
    )
    p.add_argument("--k", help='rise vector, e.g. "2,1,3"', dest="kvec")
    p.add_argument("--m", type=int, help="rational families: rise of every up step")
    p.add_argument("--n", type=int, help="rational families: drop of every down step")
    p.add_argument(
        "--permute",
        action="store_true",
        help="accept/emit every ordering of the rise vector",
    )


def _add_output_flags(p: argparse.ArgumentParser, formats, default) -> None:
    p.add_argument("--format", choices=formats, default=default)
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sweepmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="apply the sweep map to a path")
    _add_input_flags(p)
    _add_family_flags(p)
    _add_output_flags(p, ["text", "json"], "text")

    p = sub.add_parser("invert", help="recover the unique sweep preimage")
    _add_input_flags(p)
    _add_family_flags(p, required=True)
    _add_output_flags(p, ["text", "json"], "text")

    p = sub.add_parser("fill", help="fill a path's word into its tableau")
    _add_input_flags(p)
    _add_family_flags(p)
    _add_output_flags(p, ["text", "json", "ascii", "svg"], "text")

    p = sub.add_parser("rank", help="rank the tableau of a path")
    _add_input_flags(p)
    _add_family_flags(p)
    _add_output_flags(p, ["text", "json", "ascii", "svg"], "text")

    p = sub.add_parser("walk", help="walk the ranked tableau of a path")
    _add_input_flags(p)
    _add_family_flags(p)
    p.add_argument("--variant", choices=VARIANTS)
    _add_output_flags(p, ["text", "json"], "text")

    p = sub.add_parser("enumerate", help="list every path of a family")
    _add_family_flags(p, required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K)
    _add_output_flags(p, ["text", "json"], "text")

    p = sub.add_parser("verify", help="certify the sweep bijection on a family")
    _add_family_flags(p, required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K)
    _add_output_flags(p, ["text", "json"], "json")

    p = sub.add_parser("render", help="draw a path or a tableau")
    _add_input_flags(p)
    _add_family_flags(p)
    p.add_argument(
        "--ranks", action="store_true", help="overlay ranks on a tableau"
    )
    _add_output_flags(p, ["ascii", "svg"], "ascii")

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


def _read_path(args) -> tuple[StepSequence, FamilySpec | None]:
    """Read the single-path input; the family comes along if the file has one."""
    if args.steps:
        return parse_steps(args.steps), None
    if args.sw:
        return SWWord.from_text(args.sw, down=_sw_down(args, args.sw)).steps(), None
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            content = fh.read().strip()
        if content.startswith("{"):
            return path_from_json(json.loads(content))
        return parse_steps(content), None
    raise PathError("no input: pass --steps, --sw, or --file")


def _resolve(args) -> tuple[StepSequence, FamilySpec | None]:
    steps, file_family = _read_path(args)
    family = _family_from_args(args, steps)
    if family is None:
        family = file_family
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


def _dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2)


def _batch(args, line_fn) -> int:
    """Apply line_fn to every stdin line; line counts always match."""
    out_lines = []
    failed = False
    for line in sys.stdin.read().splitlines():
        try:
            text = line.strip()
            if not text:
                raise PathError("empty line")
            if text.startswith("{"):
                steps, family = path_from_json(json.loads(text))
                if args.family is not None:
                    family = _family_from_args(args, steps)
            else:
                steps = parse_steps(text)
                family = _family_from_args(args, steps)
            if family is not None:
                d = validate(steps, family, permute_k=True)
                if not d:
                    raise PathError(f"not a member of the family: {d}")
            out_lines.append(line_fn(steps, family))
        except (*_ERRORS, json.JSONDecodeError, ValueError) as exc:
            out_lines.append(f"error: {exc}")
            failed = True
    _write("\n".join(out_lines), args)
    return 1 if failed else 0


def _walk(args, steps: StepSequence, family: FamilySpec | None):
    variant = variant_for(family.kind if family else KIND_K, args.variant)
    return run_walk(fill(SWWord.from_steps(skeleton(steps, family))), variant)


def _each_path(args, fn, to_json, to_text) -> int:
    """Apply fn(steps, family) to the input path, or to every stdin line."""
    def line(steps, family, indent=None):
        result = fn(steps, family)
        if args.format == "json":
            return json.dumps(to_json(result, family), indent=indent)
        return to_text(result)

    if not (args.steps or args.sw or args.file):
        return _batch(args, line)
    _write(line(*_resolve(args), indent=2), args)
    return 0


def _cmd_sweep(args) -> int:
    return _each_path(args, lambda steps, _: sweep(steps), path_to_json, emit_steps)


def _cmd_invert(args) -> int:
    return _each_path(args, invert, path_to_json, emit_steps)


def _cmd_fill(args) -> int:
    def one(steps, family) -> Tableau:
        return fill(SWWord.from_steps(skeleton(steps, family)))

    def line(steps, family):
        t = one(steps, family)
        return json.dumps(t.to_json()) if args.format == "json" else t.to_text()

    if not (args.steps or args.sw or args.file):
        if args.format in ("ascii", "svg"):
            raise PathError(f"batch mode does not support --format {args.format}")
        return _batch(args, line)
    steps, family = _resolve(args)
    t = one(steps, family)
    if args.format == "json":
        _write(_dumps(t.to_json()), args)
    elif args.format == "ascii":
        _write(tableau_ascii(t), args)
    elif args.format == "svg":
        _write(tableau_svg(t), args)
    else:
        _write(t.to_text(), args)
    return 0


def _cmd_rank(args) -> int:
    def one(steps, family):
        t = fill(SWWord.from_steps(skeleton(steps, family)))
        return t, rank_tableau(t)

    def line(steps, family):
        _, r = one(steps, family)
        return json.dumps(r.to_json()) if args.format == "json" else r.to_text()

    if not (args.steps or args.sw or args.file):
        if args.format in ("ascii", "svg"):
            raise PathError(f"batch mode does not support --format {args.format}")
        return _batch(args, line)
    steps, family = _resolve(args)
    t, r = one(steps, family)
    if args.format == "json":
        _write(_dumps(r.to_json()), args)
    elif args.format == "ascii":
        _write(rank_ascii(r), args)
    elif args.format == "svg":
        _write(tableau_svg(t, r), args)
    else:
        _write(r.to_text(), args)
    return 0


def _cmd_walk(args) -> int:
    return _each_path(
        args,
        lambda steps, family: _walk(args, steps, family),
        lambda sigma, _: sigma.to_json(),
        lambda sigma: ",".join(map(str, sigma)),
    )


def _cmd_enumerate(args) -> int:
    family = _family_from_args(args)
    if family is None:
        raise PathError("enumerate needs --family")
    enum = enumerate_family(
        family, permute_k=args.permute, max_n=args.max_n, max_k=args.max_k
    )
    if args.format == "json":
        _write(_dumps(enum.to_json()), args)
    else:
        _write("\n".join(emit_steps(p) for p in enum.paths), args)
    return 0


def _cmd_verify(args) -> int:
    family = _family_from_args(args)
    if family is None:
        raise PathError("verify needs --family")
    report = certify_bijection(
        family, permute_k=args.permute, max_n=args.max_n, max_k=args.max_k
    )
    ok = report.bijection
    counterexample = report.counterexample
    if ok:
        enum = enumerate_family(
            family, permute_k=args.permute, max_n=args.max_n, max_k=args.max_k
        )
        for p in enum.paths:
            image = sweep(p)
            try:
                back = invert(image, family)
            except _ERRORS as exc:
                ok = False
                counterexample = {
                    "kind": "round-trip-error",
                    "path": emit_steps(p),
                    "image": emit_steps(image),
                    "error": str(exc),
                }
                break
            if back != p:
                ok = False
                counterexample = {
                    "kind": "round-trip-mismatch",
                    "path": emit_steps(p),
                    "image": emit_steps(image),
                    "preimage": emit_steps(back),
                }
                break
    out = {
        "family": family.to_json(),
        "count": report.count,
        "bijection": ok,
        "counterexample": counterexample,
    }
    _write(_dumps(out), args)
    return 0 if ok else 2


def _cmd_render(args) -> int:
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            content = fh.read().strip()
        if content.startswith("{"):
            obj = json.loads(content)
            if "columns" in obj:
                t = Tableau.from_json(obj)
                r = rank_tableau(t) if args.ranks else None
                out = tableau_ascii(t, r) if args.format == "ascii" else tableau_svg(t, r)
                _write(out, args)
                return 0
            steps, family = path_from_json(obj)
        else:
            steps, family = parse_steps(content), None
    else:
        steps, family = _read_path(args)
    if args.ranks:
        raise PathError("--ranks overlays apply to tableaux, not paths")
    fam = _family_from_args(args, steps)
    if fam is not None:
        d = validate(steps, fam, permute_k=True)
        if not d:
            raise PathError(f"not a member of the family: {d}")
    out = path_ascii(steps) if args.format == "ascii" else path_svg(steps)
    _write(out, args)
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "invert": _cmd_invert,
    "fill": _cmd_fill,
    "rank": _cmd_rank,
    "walk": _cmd_walk,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
