"""Path data model: step sequences, SW-words, and families.

A generalized Dyck path is stored as the sequence of its signed rises:
positive entries are up steps, negative entries are down steps, every prefix
sum stays nonnegative, and the total is zero.  Fractional rises of the
plus/minus families are kept exact by scaling everything by the number of
up steps, so all arithmetic stays integral; skeleton inverts _lift_ints.
Indices in public data are 1-based throughout.

Two private helpers decide every input: _ints reads raw steps once, as ints
with no 0 step, and _member refuses a path outside a family's permutation
closure with one text, for invert, skeleton and the command line alike.
"""

from __future__ import annotations

import operator
import re
from contextlib import suppress
from itertools import accumulate, permutations

KIND_K = "k"
KIND_KPLUS = "kplus"
KIND_KMINUS = "kminus"
KIND_RATIONAL = "rational"

_K_KINDS = (KIND_K, KIND_KPLUS, KIND_KMINUS)
_ALL_KINDS = _K_KINDS + (KIND_RATIONAL,)
# the plus/minus kinds are the k kind with every up step tilted by +/-1/n
_TILT = {KIND_KPLUS: 1, KIND_KMINUS: -1}

_STEP_TOKEN = re.compile(r"[+-]?\d+")
# a step token with the whitespace str.strip() would take off
_SPACED_TOKEN = re.compile(r"\s*[+-]?\d+\s*")
_S_TOKEN = re.compile(r"S(\d+)")


class PathError(ValueError):
    """Raised for structurally invalid paths, words, families, or text."""


class _Record:
    """Base of the frozen value classes: equality (same class only), hash and
    repr read the fields in ``__match_args__``, set once by ``__init__``; records
    made or read in bulk set them with object.__setattr__, outside a larger and
    slower ``__dict__``, so the fields are read with getattr."""

    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Diagnostic(_Record):
    """Outcome of a validation check; truthy exactly when the input is valid."""

    __match_args__ = ("ok", "reason", "index")  # index: 1-based position of the first offense

    def __init__(self, ok: bool, reason: str = "", index: int | None = None) -> None:
        self.__dict__.update(ok=ok, reason=reason, index=index)

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        if self.index is None:
            return self.reason
        return f"{self.reason} (index {self.index})"


VALID = Diagnostic(True)


class StepSequence(_Record):
    """A path as the tuple of its signed rises, in path order."""

    __match_args__ = ("steps",)

    def __init__(self, steps: tuple[int, ...]) -> None:
        steps = _ints(steps)
        if not steps:
            raise PathError("empty path")
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, i):
        return self.steps[i]

    @property
    def rises(self) -> tuple[int, ...]:
        """The up-step rises, in path order."""
        return tuple(a for a in self.steps if a > 0)


def _ints(steps) -> tuple[int, ...]:
    """A StepSequence's steps, or a raw sequence's read once as ints; PathError
    on any other entry (1.5 would be truncated, and True becomes 1) and on a 0
    step, which text could not read back."""
    if isinstance(steps, StepSequence):
        return steps.steps
    try:
        s = tuple(map(operator.index, steps))
    except TypeError:
        raise PathError("path steps must be integers") from None
    if 0 in s:
        raise PathError(f"zero rise at index {s.index(0) + 1}")
    return s


def _unchecked(cls, value):
    """A one-field record holding a value its checks would pass, skipping its __init__."""
    obj = object.__new__(cls)
    object.__setattr__(obj, cls.__match_args__[0], value)
    return obj


class SWWord(_Record):
    """Letter view of a path: ("S", rise) for up steps, ("W", drop) for down.

    The textual form spells S letters with a mandatory exponent ("S2", "S1")
    and W letters bare; the drop carried by W is context the text does not
    record, so parsing takes it as an argument.
    """

    __match_args__ = ("letters",)

    def __init__(self, letters: tuple[tuple[str, int], ...]) -> None:
        try:  # ints only: 2.5 would be truncated, and True becomes 1
            letters = tuple((kind, operator.index(size)) for kind, size in letters)
        except TypeError:
            raise PathError("letter sizes must be integers") from None
        for j, (kind, size) in enumerate(letters, start=1):
            if kind not in ("S", "W"):
                raise PathError(f"bad letter kind {kind!r} at index {j}")
            if size <= 0:
                raise PathError(f"zero rise at index {j}")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_steps(cls, steps: StepSequence) -> "SWWord":
        # a StepSequence holds only nonzero ints, so no letter needs a re-check
        if not isinstance(steps, StepSequence):
            steps = StepSequence(steps)
        return _unchecked(cls, tuple(("S", a) if a > 0 else ("W", -a) for a in steps.steps))

    def steps(self) -> StepSequence:
        return StepSequence(
            tuple(size if kind == "S" else -size for kind, size in self.letters)
        )

    @classmethod
    def from_text(cls, text: str, down: int = 1) -> "SWWord":
        """Parse "S2 W W" style text; every W letter gets the given drop."""
        if down <= 0:
            raise PathError(f"down drop must be positive, got {down}")
        tokens = text.split()
        if not tokens:
            raise PathError("empty word")
        letters: list[tuple[str, int]] = []
        for j, tok in enumerate(tokens, start=1):
            if tok == "W":
                letters.append(("W", down))
                continue
            m = _S_TOKEN.fullmatch(tok)
            if m is None:
                raise PathError(f"malformed token {tok!r} at index {j}")
            letters.append(("S", _int_token(m.group(1), f"token at index {j}")))
        return cls(tuple(letters))  # raises on a zero exponent


def _int_token(digits: str, where: str) -> int:
    """int(digits), or PathError naming where the token is when it is past
    int's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise PathError(f"{where} has too many digits") from None


def _tilt(steps, n: int, t: int) -> list[int]:
    """Scale a plain path by n and tilt its rises by t: a -> n*a + t, -1 -> -n."""
    return [n * a + t if a > 0 else -n for a in steps]


def _lift_ints(steps, n: int, t: int) -> list[int]:
    """The lift rule, which skeleton inverts: scale by n and tilt the rises by t;
    the path then ends at t, so t > 0 appends a drop and t < 0 removes the last."""
    out = _tilt(steps, n, t)
    return out + [-n] if t > 0 else out[:-1]


def _untilt(steps, n: int, t: int) -> list[int]:
    """Inverse of _tilt: a -> (a - t) / n for rises, every drop -> -1."""
    return [(a - t) // n if a > 0 else -1 for a in steps]


def _is_ints(value) -> bool:
    """Whether a JSON value is a list of integers; bools, floats and the like are not."""
    return isinstance(value, list) and all(type(v) is int for v in value)


def _json_ints(obj: dict, key: str, error: type = PathError) -> tuple[int, ...]:
    """A JSON list of integers, or the given error."""
    value = obj.get(key, [])
    if not _is_ints(value):
        raise error(f"{key!r} must be a list of integers")
    return tuple(value)


class FamilySpec(_Record):
    """Which family a path belongs to.

    For the three k-vector kinds, ``k`` lists the defining positive rises;
    the plus/minus kinds store their fractional rises scaled by ``n`` so
    that everything stays an integer.  The rational kind is a pair (m, n):
    n up steps of rise m, m down steps of drop n.  All else reads the fields
    derived here once: ``up_rises``, ``down_drop`` and ``tilt`` (rise =
    drop*k_i + tilt, which picks the walk; a rational (kn + t, n) has tilt t,
    other residues None), ``sorted_rises`` (one key for all orderings of the
    rises), ``n_up``, ``n_down``, ``size`` and ``scale``, the denominator the
    fractional rises were multiplied by (1 if none).
    """

    __match_args__ = ("kind", "k", "m", "n")

    def __init__(self, kind: str, k: tuple[int, ...] = (), m: int = 0, n: int = 0) -> None:
        if kind not in _ALL_KINDS:
            raise PathError(f"unknown family kind {kind!r}")
        if kind == KIND_RATIONAL:
            if k:
                raise PathError("rational families take (m, n), not a rise vector")
            try:  # ints only: 7.5 would make float rises, and True becomes 1
                m, n = operator.index(m), operator.index(n)
            except TypeError:
                raise PathError("rational family needs integer m and n") from None
            if m <= 0 or n <= 0:
                raise PathError("rational family needs positive m and n")
            # at n = 2 the residues +1 and -1 agree: plus, unless its k would be 0
            r = m % n
            tilt = 0 if r == 0 else 1 if r == 1 and m > n else -1 if r == n - 1 else None
            rises, drop = (m,) * n, n
        else:
            if (m, n) != (0, 0):  # a stray m or n would be a compared field
                raise PathError(f"{kind} families take a rise vector, not (m, n)")
            try:  # ints only: 2.5 would be truncated, and True becomes 1
                k = tuple(map(operator.index, k))
            except TypeError:
                raise PathError("rise vector entries must be integers") from None
            if not k:
                raise PathError("family needs a nonempty rise vector")
            if any(v <= 0 for v in k):
                raise PathError("rise vector entries must be positive")
            if kind == KIND_KMINUS and any(len(k) * v < 2 for v in k):
                # a scaled rise of n*k_i - 1 = 0 would be a zero-length step
                raise PathError(
                    "minus family needs n*k_i >= 2 for every entry"
                )
            tilt = _TILT.get(kind, 0)
            drop = len(k) if tilt else 1
            rises = tuple(_tilt(k, drop, tilt)) if tilt else k
        n_down = sum(rises) // drop
        for name, value in zip(
            ("kind", "k", "m", "n", "up_rises", "down_drop", "tilt",
             "sorted_rises", "n_up", "n_down", "size", "scale"),
            (kind, k, m, n, rises, drop, tilt,
             tuple(sorted(rises)), len(rises), n_down, len(rises) + n_down, drop if k else 1),
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def vector(cls, k) -> "FamilySpec":
        return cls(KIND_K, k=tuple(k))

    @classmethod
    def plus(cls, k) -> "FamilySpec":
        return cls(KIND_KPLUS, k=tuple(k))

    @classmethod
    def minus(cls, k) -> "FamilySpec":
        return cls(KIND_KMINUS, k=tuple(k))

    @classmethod
    def rational(cls, m: int, n: int) -> "FamilySpec":
        return cls(KIND_RATIONAL, m=m, n=n)

    def orderings(self) -> tuple[tuple[int, ...], ...]:
        """All distinct orderings of the rise vector, sorted."""
        return tuple(sorted(set(permutations(self.k))))

    def to_json(self) -> dict:
        if self.kind == KIND_RATIONAL:
            return {"kind": self.kind, "m": self.m, "n": self.n, "scale": 1}
        return {"kind": self.kind, "k": list(self.k), "scale": self.scale}

    @classmethod
    def from_json(cls, obj: dict) -> "FamilySpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise PathError("family object needs a 'kind' key")
        kind = obj["kind"]
        if kind == KIND_RATIONAL:
            m, n = obj.get("m", 0), obj.get("n", 0)
            if type(m) is not int or type(n) is not int:
                raise PathError("'m' and 'n' must be integers")
            fam = cls.rational(m, n)
        else:  # the constructor refuses an unknown kind
            fam = cls(kind, k=_json_ints(obj, "k"))
        if "scale" in obj:
            if type(obj["scale"]) is not int:  # as in _json_ints: not 1.0, True or "1"
                raise PathError("'scale' must be an integer")
            if obj["scale"] != fam.scale:
                raise PathError(
                    f"scale {obj['scale']} does not match the family (expected {fam.scale})"
                )
        return fam


def _levels(steps) -> tuple[list[int], Diagnostic]:
    """The levels 0, s_1, s_1+s_2, ... of a path, in one running sum, and the
    Dyck condition read off them: nonnegative prefix sums, a zero total."""
    levels = list(accumulate(steps, initial=0))
    if min(levels) < 0:
        j = next(j for j, h in enumerate(levels) if h < 0)
        return levels, Diagnostic(False, f"prefix sum {levels[j]} is negative", j)
    if levels[-1]:
        return levels, Diagnostic(False, f"total rise is {levels[-1]}, not 0")
    return levels, VALID


def dyck_diagnostic(steps: StepSequence) -> Diagnostic:
    """Check the nonnegative-prefix and zero-total conditions."""
    return _levels(_ints(steps))[1]


def validate(steps: StepSequence, family: FamilySpec, permute_k: bool = False) -> Diagnostic:
    """Check a path against the Dyck condition and the family's rise pattern.

    With ``permute_k`` the up rises may realize any permutation of the
    family's rise vector (the closure check); otherwise they must appear
    exactly in family order.  Each check is a whole-sequence pass; a step
    scan runs only to find the index of a failure.
    """
    s = _ints(steps)
    d = _levels(s)[1]
    if not d:
        return d
    if len(s) != family.size:
        return Diagnostic(False, f"expected {family.size} steps, got {len(s)}")
    drop = family.down_drop
    ups = [a for a in s if a >= 0]
    if len(ups) + s.count(-drop) != len(s):
        j = next(j for j, a in enumerate(s, start=1) if a < 0 and a != -drop)
        return Diagnostic(False, f"down step drops {-s[j - 1]}, expected {drop}", j)
    expected = family.up_rises
    if len(ups) != len(expected):
        return Diagnostic(False, f"expected {len(expected)} up steps, got {len(ups)}")
    if permute_k:
        if tuple(sorted(ups)) != family.sorted_rises:
            return Diagnostic(False, "up rises do not permute the family's rises")
    elif ups != list(expected):
        at = [j for j, a in enumerate(s, start=1) if a >= 0]
        j, a, want = next(t for t in zip(at, ups, expected) if t[1] != t[2])
        return Diagnostic(False, f"up rise {a}, expected {want}", j)
    return VALID


def _member(steps, family: FamilySpec) -> StepSequence:
    """The steps as a StepSequence, refused unless they are a member of the
    family's permutation closure; validate gets the StepSequence, so its
    steps are not read again."""
    if not isinstance(steps, StepSequence):
        steps = StepSequence(steps)
    if not (d := validate(steps, family, permute_k=True)):
        raise PathError(f"not a member of the family: {d}")
    return steps


def _heights(s: tuple[int, ...]) -> list[int]:
    """The levels 0, s_1, s_1+s_2, ... of steps that never go below level 0;
    PathError at a negative prefix sum (the total may be nonzero)."""
    levels, d = _levels(s)
    if d.index is not None:
        raise PathError(str(d))
    return levels


def ranks(steps: StepSequence) -> tuple[int, ...]:
    """Starting level of each step (the partial sums of the rises)."""
    return tuple(_heights(_ints(steps))[:-1])


def _lift(steps: StepSequence, family: FamilySpec) -> StepSequence:
    """Tilt a plain path with the family's rises into the plus or minus family,
    by the lift rule: a member by skeleton's argument read backwards, with no
    0 step (FamilySpec refuses n*k_i < 2), so it needs no check."""
    k, n, t = family.k, family.down_drop, family.tilt
    s = _ints(steps)  # read once: validate takes the StepSequence as it is
    d = validate(_unchecked(StepSequence, s), FamilySpec.vector(k))
    if not d:
        raise PathError(f"not a valid path for rises {k}: {d}")
    if t < 0:  # the minus kind needs a single zero among the starting levels
        starts = _levels(s)[0][:-1]
        if starts.count(0) > 1:
            j = starts.index(0, 1) + 1
            raise PathError(f"rank 0 reappears at index {j}; need a single zero rank")
    return _unchecked(StepSequence, tuple(_lift_ints(s, n, t)))


def to_plus(steps: StepSequence, k) -> StepSequence:
    """Lift a path of the plain family into the plus family, scaled by n: each
    rise a becomes n*a + 1, each drop -n, and one more drop is appended."""
    return _lift(steps, FamilySpec.plus(k))


def from_plus(steps: StepSequence) -> StepSequence:
    """Inverse of to_plus: the skeleton of the path in the plus family of its rises."""
    steps = _unchecked(StepSequence, _ints(steps))  # read once, for both
    return skeleton(steps, infer_family(steps, KIND_KPLUS))


def to_minus(steps: StepSequence, k) -> StepSequence:
    """Lower a path of the plain family whose rank 0 occurs only at its start
    into the minus family, scaled by n: each rise a becomes n*a - 1, each drop
    -n, and the final drop is removed."""
    return _lift(steps, FamilySpec.minus(k))  # raises if some n*k_i < 2


def from_minus(steps: StepSequence) -> StepSequence:
    """Inverse of to_minus: the skeleton of the path in the minus family of its rises."""
    steps = _unchecked(StepSequence, _ints(steps))  # read once, for both
    return skeleton(steps, infer_family(steps, KIND_KMINUS))


def _walk_tilt(family: FamilySpec) -> int:
    """The family's tilt, or the error for a rational residue no walk handles."""
    if family.tilt is None:
        m, n = family.m, family.n
        raise PathError(f"rational ({m}, {n}) paths have no walk: m mod n is {m % n}, "
                        f"and the walks need 0, {n - 1}, or 1 with m > n")
    return family.tilt


def skeleton(steps: StepSequence, family: FamilySpec) -> StepSequence:
    """The plain path whose word gets filled, the only untilt: each rise a of
    a family with tilt t and drop n becomes (a - t) / n and each drop -1; the
    plus kind's final drop goes and the minus kind's is restored.

    The steps must be a member of the family, at every tilt, and that makes
    the plain path valid too: where it is at height h after u ups, the path
    is at n*h + t*u >= 0.  Tilt 0: h >= 0.  Plus: h >= -1, and h = -1 means
    u = n at height 0 with a drop still to come.  Minus: u >= 1, so h >= 1
    after the first step, and rank 0 occurs once.
    """
    s = _member(steps, family).steps  # before the tilt, as invert checks it
    t = _walk_tilt(family)
    plain = _untilt(s, family.down_drop, t)
    if t:  # the plus kind's final drop goes, the minus kind's comes back
        plain = plain[:-1] if t > 0 else plain + [-1]
    return _unchecked(StepSequence, tuple(plain))  # a member's rises untilt to k_i >= 1


def infer_family(steps: StepSequence, kind: str) -> FamilySpec:
    """Read a family descriptor off a path's own rises."""
    s = _ints(steps)
    rises = tuple(a for a in s if a > 0)
    n = len(rises)
    if n == 0:
        raise PathError("path has no up steps")
    if kind in _K_KINDS:
        t = _TILT.get(kind, 0)
        k = tuple(_untilt(rises, n if t else 1, t))
        if min(k) >= 1 and (family := FamilySpec(kind, k=k)).up_rises == rises:
            return family
        raise PathError(f"rises are not of the form n*k{t:+d} for n={n}")
    if kind == KIND_RATIONAL:
        m = rises[0]
        drops = {-a for a in s if a < 0}
        if len(set(rises)) != 1 or len(drops) != 1:
            raise PathError("rational paths need constant rises and drops")
        return FamilySpec.rational(m, drops.pop())
    raise PathError(f"unknown family kind {kind!r}")


def _gather(table, keys) -> tuple:
    """The tuple of table[k] for k in keys; itemgetter alone would give one
    key's bare value, not a 1-tuple, and raise TypeError on no keys."""
    if len(keys) > 1:  # not map(table.__getitem__): a slot-wrapper call per key
        return operator.itemgetter(*keys)(table)
    return tuple(map(table.__getitem__, keys))


def _step_ints(text: str) -> tuple[int, ...] | None:
    """The ints of comma-separated step tokens, or None if one is malformed or
    past int's digit limit.

    A path repeats a few values, so each distinct token is checked and converted
    once; a batch line of one family's spellings is read by _spellings instead.
    """
    tokens = text.split(",")
    distinct = set(tokens)
    if all(map(_SPACED_TOKEN.fullmatch, distinct)):
        with suppress(ValueError):  # a token past int's digit limit
            # int() would not take off the separators \x1c-\x1f that strip() does
            value = {tok: int(tok.strip()) for tok in distinct}
            return _gather(value, tokens)
    return None


def parse_steps(text: str) -> StepSequence:
    """Parse comma-separated rises, e.g. "2,-1,-1".

    Well-formed text is converted by _step_ints; the tokens are scanned one
    at a time only to name the first bad one.
    """
    values = _step_ints(text)
    if values is not None and 0 not in values:
        return _unchecked(StepSequence, values)
    for j, tok in enumerate(map(str.strip, text.split(",")), start=1):
        if not _STEP_TOKEN.fullmatch(tok):
            raise PathError(f"malformed step token {tok!r} at index {j}")
        if _int_token(tok, f"step token at index {j}") == 0:
            raise PathError(f"zero rise at index {j}")
    raise PathError("no bad token found")  # pragma: no cover - the scan names every refusal


def emit_steps(steps: StepSequence) -> str:
    """Comma-separated rises, the text parse_steps reads back.

    As in _step_ints, each distinct step is spelled once; _ints reads only
    ints, so equal steps spell alike.  A batch answer of one family's steps
    is spelled by _spellings' table instead.
    """
    s = _ints(steps)
    text = {a: str(a) for a in set(s)}
    return ",".join(_gather(text, s))


def _spellings(family: FamilySpec) -> tuple[dict[str, int], dict[int, str]]:
    """Each step a member of the family can hold (at most n + 1, none 0) by the
    text emit_steps spells it as, and back: text of these tokens alone reads as
    parse_steps reads it, and a member's steps spell as emit_steps spells them."""
    read = {str(a): a for a in {*family.up_rises, -family.down_drop}}
    return read, {a: text for text, a in read.items()}


def path_to_json(steps: StepSequence, family: FamilySpec | None = None) -> dict:
    return {
        "family": family.to_json() if family is not None else None,
        "steps": list(_ints(steps)),
    }


def path_from_json(obj: dict) -> tuple[StepSequence, FamilySpec | None]:
    if not isinstance(obj, dict) or "steps" not in obj:
        raise PathError("path object needs a 'steps' key")
    fam = obj.get("family")  # the steps are read first, and refused first
    return StepSequence(_json_ints(obj, "steps")), None if fam is None else FamilySpec.from_json(fam)
