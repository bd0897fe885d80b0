"""Core data model: validation, ranks, family lifts, and text/JSON forms."""

import random
import re
from itertools import accumulate, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepmap import (
    Diagnostic,
    FamilySpec,
    PathError,
    StepSequence,
    SWWord,
    dyck_diagnostic,
    emit_steps,
    enumerate_family,
    from_minus,
    from_plus,
    infer_family,
    parse_steps,
    path_from_json,
    path_to_json,
    ranks,
    to_minus,
    to_plus,
    validate,
)
from sweepmap.paths import skeleton

from conftest import random_path, uniform_member

RUNNING_PREIMAGE = (2, -1, -1, 4, -1, 5, -1, -1, -1, -1, 3, -1, -1, -1, -1, -1, -1, -1)
RUNNING_RANKS = (0, 2, 1, 0, 4, 3, 8, 7, 6, 5, 4, 7, 6, 5, 4, 3, 2, 1)


class TestStepSequence:
    def test_rejects_empty(self):
        with pytest.raises(PathError, match="empty"):
            StepSequence(())

    def test_rises(self):
        assert StepSequence((2, -1, 1, -1, -1)).rises == (2, 1)

    def test_entries_become_ints(self):
        s = StepSequence([True, -1])
        assert s.steps == (1, -1)
        assert all(type(a) is int for a in s.steps)


class TestValidate:
    def test_running_preimage_is_valid(self):
        s = StepSequence(RUNNING_PREIMAGE)
        assert validate(s, FamilySpec.vector((2, 4, 5, 3)))

    def test_negative_prefix_reported_at_first_offense(self):
        d = validate(StepSequence((1, -1, -1, 1)), FamilySpec.vector((1, 1)))
        assert not d
        assert d.index == 3
        assert "prefix" in d.reason

    def test_nonzero_total(self):
        d = dyck_diagnostic(StepSequence((2, -1)))
        assert not d and "total" in d.reason

    def test_rise_order_is_checked(self):
        s = StepSequence((1, -1, 2, -1, -1))
        d = validate(s, FamilySpec.vector((2, 1)))
        assert not d and d.index == 1
        assert validate(s, FamilySpec.vector((2, 1)), permute_k=True)

    def test_wrong_drop_for_scaled_family(self):
        # plus family of k=(2,1): rises 5,3 and drops of 2
        d = validate(StepSequence((5, -1, -3, 3, -2, -2)), FamilySpec.plus((2, 1)))
        assert not d and d.index == 2

    def test_length_mismatch(self):
        d = validate(StepSequence((1, -1)), FamilySpec.vector((1, 1)))
        assert not d and "expected 4 steps" in d.reason


def _loop_dyck(steps):
    """dyck_diagnostic as one loop over the steps (the reference)."""
    h = 0
    for j, a in enumerate(steps, start=1):
        h += a
        if h < 0:
            return Diagnostic(False, f"prefix sum {h} is negative", j)
    if h != 0:
        return Diagnostic(False, f"total rise is {h}, not 0")
    return Diagnostic(True)


def _loop_validate(steps, family, permute_k=False):
    """validate as one loop over the steps (the reference)."""
    d = _loop_dyck(steps)
    if not d:
        return d
    if len(steps) != family.size:
        return Diagnostic(False, f"expected {family.size} steps, got {len(steps)}")
    drop = family.down_drop
    ups = []
    for j, a in enumerate(steps, start=1):
        if a < 0:
            if -a != drop:
                return Diagnostic(False, f"down step drops {-a}, expected {drop}", j)
        else:
            ups.append((j, a))
    expected = family.up_rises
    if len(ups) != len(expected):
        return Diagnostic(False, f"expected {len(expected)} up steps, got {len(ups)}")
    if permute_k:
        if sorted(a for _, a in ups) != sorted(expected):
            return Diagnostic(False, "up rises do not permute the family's rises")
    else:
        for (j, a), want in zip(ups, expected):
            if a != want:
                return Diagnostic(False, f"up rise {a}, expected {want}", j)
    return Diagnostic(True)


def _mutants(steps, rng):
    """A member and mutants of it, each breaking one condition validate checks."""
    s = list(steps)
    d = -s[-1]  # the drop
    ups = [j for j, a in enumerate(s) if a > 0]
    j, u = rng.choice([j for j, a in enumerate(s) if a < 0]), rng.choice(ups)

    def changed(*edits):
        t = s[:]
        for i, a in edits:
            t[i] += a
        return t

    return {
        "member": s,
        "negative prefix": [s[j]] + s[:j] + s[j + 1:],
        "nonzero total": s[:-1],
        "wrong length": s + s,
        # same total, no lower prefix sums: the first up takes what the edit removes
        "wrong drop": changed((0, 1), (j, -1)),
        "wrong rise": changed((0, d), (u, -d)) if s[u] > d and u else s,
        "missing up": changed((0, s[u] + d), (u, -s[u] - d)) if u else s,
    }


@pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
def test_checks_match_the_loops_on_mutants(kind):
    """validate, dyck_diagnostic and ranks give the loops' Diagnostic and
    text, index included, on members and on mutants, with and without
    permute_k, against the family and against a reordering of it."""
    rng = random.Random(len(kind))
    seen = set()
    for trial in range(120):
        n = rng.randint(1, 5) if trial % 10 else rng.randint(20, 60)
        family = FamilySpec(kind, k=tuple(rng.randint(2, 4) for _ in range(n)))
        path = uniform_member(family, rng)
        families = (family, FamilySpec(kind, k=family.k[::-1]), FamilySpec.vector(family.k))
        for name, steps in _mutants(path.steps, rng).items():
            steps = StepSequence(tuple(steps))
            assert dyck_diagnostic(steps) == _loop_dyck(steps), name
            # one pass over a plain iterator must be enough
            assert dyck_diagnostic(iter(steps.steps)) == _loop_dyck(steps), name
            assert validate(iter(steps.steps), family) == _loop_validate(steps, family), name
            for fam in families:
                for permute_k in (False, True):
                    got = validate(steps, fam, permute_k=permute_k)
                    assert got == _loop_validate(steps, fam, permute_k), (name, fam, permute_k)
                    seen.add(re.sub(r"-?\d+", "#", got.reason))
            d = _loop_dyck(steps)
            if d.ok or "total" in d.reason:
                assert ranks(steps) == tuple(accumulate(steps.steps[:-1], initial=0))
                assert ranks(iter(steps.steps)) == ranks(steps)
            else:
                with pytest.raises(PathError) as err:
                    ranks(steps)
                assert str(err.value) == f"{d.reason} (index {d.index})"
    # every branch of validate was reached
    assert seen == {
        "",
        "prefix sum # is negative",
        "total rise is #, not #",
        "expected # steps, got #",
        "down step drops #, expected #",
        "expected # up steps, got #",
        "up rises do not permute the family's rises",
        "up rise #, expected #",
    }


class TestRanks:
    def test_running_preimage(self):
        assert ranks(StepSequence(RUNNING_PREIMAGE)) == RUNNING_RANKS

    def test_rational_example(self):
        s = StepSequence(
            (12, 12, -4, -4, -4, -4, 12, -4, -4, -4, 12, -4, -4, -4, -4, -4)
        )
        r = ranks(s)
        assert r == (0, 12, 24, 20, 16, 12, 8, 20, 16, 12, 8, 20, 16, 12, 8, 4)
        assert all(v % 4 == 0 for v in r)

    def test_raises_below_axis(self):
        with pytest.raises(PathError, match="index 2"):
            ranks(StepSequence((1, -2, 1)))


class TestLifts:
    @pytest.mark.parametrize(
        "steps,k,expected",
        [
            ((1, -1), (1,), (2, -1, -1)),
            ((2, -1, -1), (2,), (3, -1, -1, -1)),
            ((2, -1, 1, -1, -1), (2, 1), (5, -2, 3, -2, -2, -2)),
        ],
    )
    def test_to_plus(self, steps, k, expected):
        assert to_plus(StepSequence(steps), k).steps == expected

    @pytest.mark.parametrize(
        "steps,k,expected",
        [
            ((2, 1, -1, -1, -1), (2, 1), (3, 1, -2, -2)),
            ((2, -1, -1), (2,), (1, -1)),
        ],
    )
    def test_to_minus(self, steps, k, expected):
        assert to_minus(StepSequence(steps), k).steps == expected

    def test_to_minus_rejects_second_zero(self):
        with pytest.raises(PathError, match="index 3"):
            to_minus(StepSequence((1, -1, 1, -1)), (1, 1))

    def test_to_plus_rejects_a_non_member_of_the_plain_family(self):
        with pytest.raises(PathError) as exc:
            to_plus((1, -1), (2,))
        assert str(exc.value) == "not a valid path for rises (2,): expected 3 steps, got 2"

    def test_to_minus_rejects_degenerate_rises(self):
        with pytest.raises(PathError):
            to_minus(StepSequence((1, -1)), (1,))

    def test_round_trips(self):
        rng = random.Random(7)
        for _ in range(50):
            k = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 5)))
            d = random_path(k, rng)
            assert from_plus(to_plus(d, k)) == d
            zeros = sum(1 for r in ranks(d) if r == 0)
            if zeros == 1 and all(len(k) * v >= 2 for v in k):
                assert from_minus(to_minus(d, k)) == d

    @pytest.mark.parametrize("kind", ["kplus", "kminus"])
    def test_unlift_of_a_member_needs_no_second_check(self, kind):
        # from_plus/from_minus validate only the tilted path: every member of a
        # closure with n <= 3, k_i <= 3 unlifts to a valid plain path, with a
        # single zero rank for the minus kind
        unlift, lift = (from_plus, to_plus) if kind == "kplus" else (from_minus, to_minus)
        members = 0
        for n in (1, 2, 3):
            for k in combinations_with_replacement((1, 2, 3), n):
                if kind == "kminus" and n * k[0] < 2:
                    continue
                for p in enumerate_family(FamilySpec(kind, k), permute_k=True).paths:
                    plain = unlift(p)
                    k_p = infer_family(p, kind).k
                    assert validate(plain, FamilySpec.vector(k_p))
                    assert kind == "kplus" or ranks(plain).count(0) == 1
                    assert lift(plain, k_p) == p
                    members += 1
        assert members > 100

    def test_from_plus_rejects_plain_paths(self):
        with pytest.raises(PathError):
            from_plus(StepSequence((1, -1, 1, -1)))

    @pytest.mark.parametrize("steps, family, error", [
        # a raw 0 step, and drops of the wrong size, which the untilt would
        # turn into -1 if skeleton took a tilt-0 non-member
        ((2, -1, 0), FamilySpec.vector((2,)), "zero rise at index 3"),
        ((1, 2, -2, -1), FamilySpec.vector((1, 1)),
         "not a member of the family: down step drops 2, expected 1 (index 3)"),
        ((4, -2, 4, -4, 2, -4), FamilySpec.rational(4, 2),
         "not a member of the family: down step drops 4, expected 2 (index 4)"),
        ((5, -3, -3, 5, -3, 5, -3, -3), FamilySpec.rational(5, 3),
         "not a member of the family: prefix sum -1 is negative (index 3)"),
    ])
    def test_skeleton_refuses_a_non_member_at_every_tilt(self, steps, family, error):
        with pytest.raises(PathError) as exc:
            skeleton(steps, family)
        assert str(exc.value) == error


class TestFamilySpec:
    def test_scaled_rises(self):
        fam = FamilySpec.plus((2, 4, 5, 3))
        assert fam.up_rises == (9, 17, 21, 13)
        assert fam.down_drop == 4 and fam.n_down == 15 and fam.scale == 4

    def test_minus_rises(self):
        fam = FamilySpec.minus((2, 1))
        assert fam.up_rises == (3, 1)
        assert fam.n_down == 2

    def test_minus_rejects_collapsing_rise(self):
        with pytest.raises(PathError):
            FamilySpec.minus((1,))

    def test_rational(self):
        fam = FamilySpec.rational(12, 4)
        assert fam.up_rises == (12,) * 4
        assert fam.down_drop == 4 and fam.n_down == 12 and fam.scale == 1

    @pytest.mark.parametrize("m, n, tilt, like", [
        (12, 4, 0, None),
        (7, 3, 1, FamilySpec.plus((2, 2, 2))),
        (5, 3, -1, FamilySpec.minus((2, 2, 2))),
        (3, 2, 1, FamilySpec.plus((1, 1))),  # at n = 2, +1 and -1 agree: plus
        (1, 2, -1, FamilySpec.minus((1, 1))),  # unless k would be 0
        (1, 3, None, None),
        (7, 5, None, None),
        (4, 1, 0, FamilySpec.vector((4,))),
    ])
    def test_rational_tilt(self, m, n, tilt, like):
        # m mod n picks the walk; a (kn +/- 1, n) family has the plus/minus rises and drop
        fam = FamilySpec.rational(m, n)
        assert fam.tilt == tilt
        if like is not None:
            assert (fam.up_rises, fam.down_drop, fam.tilt) == (
                like.up_rises, like.down_drop, like.tilt)

    @pytest.mark.parametrize("m, n", [(7.5, 5), (7, 5.0), ("7", 5), (None, 5)])
    def test_rational_needs_integers(self, m, n):
        with pytest.raises(PathError, match="^rational family needs integer m and n$"):
            FamilySpec("rational", m=m, n=n)
        with pytest.raises(PathError, match="needs integer"):
            FamilySpec.rational(m, n)

    @pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", None])
    def test_k_needs_integers(self, kind, bad):
        with pytest.raises(PathError, match="^rise vector entries must be integers$"):
            FamilySpec(kind, k=(bad, 1))

    def test_k_bool_is_its_int(self):
        fam = FamilySpec.vector((True, 2))
        assert fam.k == (1, 2) and type(fam.k[0]) is int

    def test_rational_bool_is_its_int(self):
        fam = FamilySpec("rational", m=True, n=1)
        assert (fam.m, fam.n, fam.up_rises, fam.tilt) == (1, 1, (1,), 0)
        assert type(fam.m) is int and type(fam.up_rises[0]) is int
        assert fam == FamilySpec.rational(1, 1)

    def test_derived_fields_are_not_compared(self):
        fam = FamilySpec.rational(7, 3)
        assert repr(fam) == "FamilySpec(kind='rational', k=(), m=7, n=3)"
        assert hash(fam) == hash(FamilySpec.rational(7, 3))
        assert FamilySpec.rational(7, 3) != FamilySpec.plus((2, 2, 2))

    def test_orderings_sorted_and_distinct(self):
        fam = FamilySpec.vector((2, 1, 2))
        assert fam.orderings() == ((1, 2, 2), (2, 1, 2), (2, 2, 1))

    def test_infer(self):
        assert infer_family(StepSequence((5, -2, 3, -2, -2, -2)), "kplus") == FamilySpec.plus((2, 1))
        assert infer_family(StepSequence((3, 1, -2, -2)), "kminus") == FamilySpec.minus((2, 1))
        assert infer_family(StepSequence((2, -1, -1)), "k") == FamilySpec.vector((2,))


class TestWords:
    def test_text_round_trip(self):
        assert SWWord.from_text("S2 W W") == SWWord.from_steps(StepSequence((2, -1, -1)))

    def test_exponent_mandatory_and_s1_allowed(self):
        assert SWWord.from_text("S1 W").steps().steps == (1, -1)
        with pytest.raises(PathError, match="malformed"):
            SWWord.from_text("S W")

    def test_zero_exponent_rejected(self):
        with pytest.raises(PathError, match="zero rise"):
            SWWord.from_text("S0 W")

    def test_scaled_down(self):
        w = SWWord.from_text("S5 W S3 W W W", down=2)
        assert w.steps().steps == (5, -2, 3, -2, -2, -2)

    def test_from_steps_equals_the_letter_word(self):
        letters = (("S", 3), ("W", 2), ("S", 1), ("W", 2))
        w = SWWord.from_steps(StepSequence((3, -2, 1, -2)))
        assert w == SWWord(letters) and w.letters == letters
        assert hash(w) == hash(SWWord(letters))

    @pytest.mark.parametrize("bad", [2.5, 1.9, "2", None])
    def test_letter_sizes_must_be_integers(self, bad):
        # int() would truncate 2.5 to 2 and read "2"; None raised TypeError
        with pytest.raises(PathError, match="^letter sizes must be integers$"):
            SWWord((("S", bad), ("W", 1)))

    def test_letter_size_bool_is_its_int(self):
        w = SWWord((("S", True), ("W", 1)))
        assert w.letters == (("S", 1), ("W", 1)) and type(w.letters[0][1]) is int


def token_scan(text):
    """parse_steps as a scan token by token: the steps, or the first error."""
    values = []
    for j, tok in enumerate((t.strip() for t in text.split(",")), start=1):
        if not re.fullmatch(r"[+-]?\d+", tok):
            return f"malformed step token {tok!r} at index {j}"
        try:
            value = int(tok)
        except ValueError:  # past int's digit limit
            return f"step token at index {j} has too many digits"
        if value == 0:
            return f"zero rise at index {j}"
        values.append(value)
    return tuple(values)


def _outcome(f, text):
    """f(text), or the text of the PathError it raised."""
    try:
        return f(text)
    except PathError as exc:
        return str(exc)


# step tokens wrapped in whitespace str.strip() takes off (\x1c too, which
# int() keeps), some of them malformed, zero or past int's digit limit
SPACED_TOKENS = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", " ", "\x1c", "\u2028"]),
    st.one_of(st.integers(-12, 12).map(str),
              st.sampled_from(["+2", "x", "", "1_0", "\u0663", "9" * 5000])),
    st.sampled_from(["", " ", "\x1c", "\t"]),
)


@st.composite
def step_lines(draw):
    """Step text from a pool of distinct tokens, with as many tokens as the
    pool, one fewer or one more than twice the pool, twice it, or five times
    it, the pool shuffled in, first or last: lines of mostly distinct tokens
    and of a few repeated ones, each distinct token converted once."""
    n = draw(st.sampled_from([1, 2, 3, 8, 20, 40]))
    pool = draw(st.lists(SPACED_TOKENS, min_size=n, max_size=n, unique=True))
    size = draw(st.sampled_from([1, 2, 2, 2, 5])) * len(pool) + draw(st.sampled_from([-1, 0, 1]))
    # repeats of the whole pool, or of two tokens (well-formed ones, as a
    # path's rises and drops are), which leave the rest new after them
    repeats = draw(st.sampled_from([pool, pool[:2], ["1", "-1 "]]))
    extra = draw(st.lists(st.sampled_from(repeats), min_size=max(size - len(pool), 0),
                          max_size=max(size - len(pool), 0)))
    tokens = draw(st.sampled_from([pool + extra, extra + pool, None]))
    return ",".join(tokens or draw(st.permutations(pool + extra)))


class TestTextForms:
    def test_parse_emit(self):
        s = parse_steps(" 2, -1 , -1 ")
        assert s.steps == (2, -1, -1)
        assert emit_steps(s) == "2,-1,-1"

    @pytest.mark.parametrize("bad", ["", "1,,1", "1,x", "1,-1,0", "0,x", "x,0", "1,-1\x0c2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PathError, match=re.escape(token_scan(bad))):
            parse_steps(bad)

    @pytest.mark.parametrize("read, text, error", [
        (parse_steps, "9" * 5000, "step token at index 1"),
        (parse_steps, "1, -1," + "9" * 5000, "step token at index 3"),
        (SWWord.from_text, "S" + "9" * 5000 + " W", "token at index 1"),
    ], ids=["steps", "steps-third", "sw"])
    def test_token_past_the_digit_limit(self, read, text, error):
        # int() refuses more than 4,300 digits with a bare ValueError
        with pytest.raises(PathError, match=f"^{error} has too many digits$"):
            read(text)

    @settings(max_examples=300)
    @given(st.text(alphabet="0123-+, x\x1c\u2028", max_size=12))
    def test_parse_names_the_first_bad_token(self, text):
        try:
            got = parse_steps(text).steps
        except PathError as exc:
            got = str(exc)
        assert got == token_scan(text)

    @settings(max_examples=400)
    @given(step_lines())
    def test_repeated_and_distinct_tokens_match_the_scan(self, text):
        got = _outcome(lambda t: parse_steps(t).steps, text)
        assert got == _outcome(token_scan, text)
        if isinstance(got, tuple):  # emit spells the steps as str() does, and parses back
            s = parse_steps(text)
            assert emit_steps(s) == ",".join(map(str, got))
            assert parse_steps(emit_steps(s)) == s

    @pytest.mark.parametrize("pairs", [1, 100, 30_000])
    def test_all_distinct_lines(self, pairs):
        steps = tuple(a for j in range(1, pairs + 1) for a in (j, -j))
        text = ",".join(map(str, steps))
        assert parse_steps(text).steps == steps and emit_steps(StepSequence(steps)) == text

    def test_json_round_trip(self):
        s = StepSequence((5, -2, 3, -2, -2, -2))
        fam = FamilySpec.plus((2, 1))
        obj = path_to_json(s, fam)
        assert obj == {
            "family": {"kind": "kplus", "k": [2, 1], "scale": 2},
            "steps": [5, -2, 3, -2, -2, -2],
        }
        s2, fam2 = path_from_json(obj)
        assert s2 == s and fam2 == fam

    def test_json_scale_mismatch(self):
        with pytest.raises(PathError, match="scale"):
            path_from_json(
                {"family": {"kind": "kplus", "k": [2, 1], "scale": 3}, "steps": [1, -1]}
            )

    @pytest.mark.parametrize("family", [
        {"kind": "k", "k": [1], "scale": True},
        {"kind": "k", "k": [1], "scale": 1.0},
        {"kind": "kplus", "k": [1, 1], "scale": 2.0},
        {"kind": "k", "k": [1], "scale": "1"},
        {"kind": "k", "k": [1], "scale": None},
        {"kind": "rational", "m": 3, "n": 2, "scale": [1]},
    ])
    def test_json_scale_must_be_an_integer(self, family):
        with pytest.raises(PathError, match="^'scale' must be an integer$"):
            path_from_json({"family": family, "steps": [1, -1]})

    def test_json_rational(self):
        obj = path_to_json(StepSequence((2, -2)), FamilySpec.rational(2, 1))
        _, fam = path_from_json(obj)
        assert fam == FamilySpec.rational(2, 1)
        # the drop is n, but the rises were never scaled
        assert FamilySpec.rational(7, 3).to_json() == {"kind": "rational", "m": 7, "n": 3,
                                                       "scale": 1}
        with pytest.raises(PathError, match="scale"):
            FamilySpec.from_json({"kind": "rational", "m": 7, "n": 3, "scale": 3})


@given(st.lists(st.integers(min_value=-9, max_value=9).filter(bool), min_size=1, max_size=30))
def test_step_text_round_trip(steps):
    s = StepSequence(tuple(steps))
    assert parse_steps(emit_steps(s)) == s


@given(st.lists(st.integers(min_value=-9, max_value=9).filter(bool), min_size=1, max_size=30))
def test_word_round_trip(steps):
    s = StepSequence(tuple(steps))
    assert SWWord.from_steps(s).steps() == s
