"""The three inversion walks, checked against the digraph restatement, and invert itself."""

import random
import re
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepmap import (
    FamilySpec,
    PathError,
    StepSequence,
    SWWord,
    Tableau,
    TableauError,
    WalkError,
    enumerate_family,
    extend_plus,
    fill,
    invert,
    is_minus_admissible,
    rank_tableau,
    ranks,
    sigma_to_preimage,
    sweep,
    to_minus,
    to_plus,
    validate,
    walk,
    walk_minus,
    walk_plus,
)
from sweepmap import paths, tableau, walking
from sweepmap.paths import skeleton
from sweepmap.walking import run_walk
from conftest import (
    counting,
    digraph_walk,
    family_grid,
    flag_slide_walk,
    k_multisets,
    uniform_member,
)

PREIMAGE = (2, -1, -1, 4, -1, 5, -1, -1, -1, -1, 3, -1, -1, -1, -1, -1, -1, -1)
IMAGE = (4, 2, -1, -1, -1, -1, -1, 5, -1, 3, -1, -1, -1, -1, -1, -1, -1, -1)
RUN_COLUMNS = ((1, 3, 5, 7, 9), (2, 4, 6), (8, 11, 13, 15, 17, 18), (10, 12, 14, 16))
RUN_SIGMA = (2, 6, 4, 1, 11, 8, 18, 17, 15, 13, 10, 16, 14, 12, 9, 7, 5, 3)
RUN_SIGMA_PLUS = (1, 10, 17, 15, 13, 11, 8, 19, 18, 16, 14, 12, 9, 6, 4, 2, 7, 5, 3)
RUN_SIGMA_MINUS = (1, 8, 17, 16, 14, 12, 10, 15, 13, 11, 9, 7, 6, 4, 2, 5, 3)


def run_tableau():
    return Tableau(RUN_COLUMNS)


class TestWalk:
    def test_running_example(self):
        t = run_tableau()
        assert walk(t) == RUN_SIGMA

    def test_smallest(self):
        t = Tableau(((1, 2),))
        assert walk(t) == (1, 2)

    def test_two_columns(self):
        t = Tableau(((1, 3), (2, 4)))
        assert walk(t) == (2, 4, 1, 3)

    def test_single_wide_column(self):
        t = Tableau(((1, 2, 3),))
        assert walk(t) == (1, 3, 2)

    def test_unrankable_tableau(self):
        # column 2's top follows entry 2, which only column 3 holds
        with pytest.raises(TableauError, match="^cannot rank column 2: index 2 is not ranked yet$"):
            walk(Tableau(((1, 4), (3, 5), (2, 6))))

    def test_final_write_is_smallest_rank_one(self):
        # once every other entry is written the walk closes at rank 1
        for family in family_grid(3, 3):
            if family.kind != "k":
                continue
            for path in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(sweep(path)))
                r = rank_tableau(t)
                sigma = walk(t)
                smallest_rank_one = min(
                    v for v in range(1, t.size + 1) if r[v - 1] == 1
                )
                assert sigma[-1] == smallest_rank_one


class TestWalkPlus:
    def test_tiny(self):
        # extend_plus's entry 3 goes under 2
        assert walk_plus(Tableau(((1, 2),))) == (1, 3, 2)

    def test_running_example(self):
        assert walk_plus(run_tableau()) == RUN_SIGMA_PLUS

    def test_column_removal_consistency(self):
        # dropping a whole column and relabeling contiguously drops exactly
        # that column's indices from the walk order; the dropped column does
        # not end with the largest entry, so extend_plus's entry goes under
        # the same entry in both tableaux
        t = run_tableau()
        removed = set(t.columns[1])
        kept_cols = (t.columns[0], *t.columns[2:])
        kept = sorted(v for col in kept_cols for v in col)
        relabel = {v: i for i, v in enumerate(kept, start=1)}
        smaller = Tableau(tuple(tuple(relabel[v] for v in col) for col in kept_cols))
        kept.append(t.size + 1)  # extend_plus's entry, last in both tableaux
        back = tuple(kept[i - 1] for i in walk_plus(smaller))
        assert back == tuple(v for v in RUN_SIGMA_PLUS if v not in removed)

    def test_largest_entry_ends_no_column(self):
        with pytest.raises(TableauError, match="^no column ends with the largest entry 5$"):
            walk_plus(Tableau(((1, 5, 3), (2, 4))))

    def test_stops_exactly_once_per_entry(self):
        for family in family_grid(3, 3):
            if family.kind != "k":
                continue
            for path in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(sweep(path)))
                sigma = walk_plus(t)
                assert sorted(sigma) == list(range(1, t.size + 2))


class TestWalkMinus:
    def test_two_columns(self):
        assert walk_minus(Tableau(((1, 3, 5), (2, 4)))) == (1, 4, 2, 3)

    def test_rejects_inadmissible(self):
        with pytest.raises(WalkError, match="strict top-row bounds"):
            walk_minus(Tableau(((1, 2), (3, 4))))

    def test_one_entry_stays_unwritten(self):
        for family in family_grid(3, 3):
            if family.kind != "k":
                continue
            for path in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(sweep(path)))
                if not is_minus_admissible(t):
                    continue
                sigma = walk_minus(t)
                assert len(set(sigma)) == len(sigma) == t.size - 1


# malformed tableaux for each walk, and its text: an entry out of range, a
# repeated entry, entry 1 off the first column's top, and a zero entry; the
# plus cases end a column with their largest entry 4, so extend_plus places
# entry 5 and each reaches the check it names
RANGE4 = r"^tableau entries must lie in 1\.\.4$"
RANGE5 = r"^tableau entries must lie in 1\.\.5$"
OFF_TOP = "^entry 1 must top the first column$"
BAD_WALKS = {
    "plain-range": (walk, ((1, 5), (2, 3)), RANGE4),
    "plain-repeat": (walk, ((1, 3), (3, 4)), "^entry 3 appears twice$"),
    "plain-off-top": (walk, ((2, 3), (1, 4)), OFF_TOP),
    "plain-zero": (walk, ((0, 2), (1, 3)), RANGE4),
    "plus-range": (walk_plus, ((1, 9), (2, 4)), RANGE5),
    "plus-repeat": (walk_plus, ((1, 2), (2, 4)), "^entry 2 appears twice$"),
    "plus-off-top": (walk_plus, ((2, 3), (1, 4)), OFF_TOP),
    "plus-zero": (walk_plus, ((1, 3), (0, 4)), RANGE5),
    "minus-range": (walk_minus, ((1, 3, 9), (2, 4)), RANGE5),
    "minus-repeat": (walk_minus, ((1, 3, 5), (2, 3)), "^entry 3 appears twice$"),
    "minus-off-top": (walk_minus, ((2, 3, 5), (1, 4)), OFF_TOP),
    "minus-zero": (walk_minus, ((1, 3, 5), (0, 4)), RANGE5),
}


@pytest.mark.parametrize("case", sorted(BAD_WALKS))
def test_bad_tableau_raises_walk_error(case):
    run, columns, error = BAD_WALKS[case]
    with pytest.raises(WalkError, match=error):
        run(Tableau(columns))


def assert_tilted_walks_follow_the_slides(t):
    """walk_plus, and walk_minus when t is admissible, write what
    flag_slide_walk writes one slide step at a time."""
    assert walk_plus(t) == flag_slide_walk(extend_plus(t), 1)
    if is_minus_admissible(t):
        assert walk_minus(t) == flag_slide_walk(t, -1)


class TestSlideWalkReference:
    """The plus and minus walks read every slide from one precomputed table;
    the conftest reference slides one entry at a time, as the paper words it."""

    def test_running_example(self):
        t = run_tableau()
        assert flag_slide_walk(extend_plus(t), 1) == RUN_SIGMA_PLUS
        assert walk_minus(t) == flag_slide_walk(t, -1) == RUN_SIGMA_MINUS
        assert_tilted_walks_follow_the_slides(t)

    def test_every_fill_in_the_grid(self):
        # the skeleton's fill of every path and every image of the small grid
        seen = set()
        for family in family_grid(3, 3):
            for path in enumerate_family(family, permute_k=True).paths:
                for p in (path, sweep(path)):
                    seen.add(fill(SWWord.from_steps(skeleton(p, family))))
        assert len(seen) == 363  # distinct tableaux
        for t in seen:
            assert_tilted_walks_follow_the_slides(t)

    @pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1))
    def test_uniform_members(self, kind, n, seed):
        # up to about 2*10^3 steps, where slides run longer than in the grid
        rng = random.Random(seed)
        family = FamilySpec(kind, tuple(rng.randint(1, 10) for _ in range(n)))
        p = uniform_member(family, rng)
        for path in (p, sweep(p)):
            assert_tilted_walks_follow_the_slides(fill(SWWord.from_steps(skeleton(path, family))))


# what the stages the walks call refuse: rank_tableau in walk, extend_plus in walk_plus
STAGE_REFUSALS = re.compile(r"cannot rank column \d+: index \d+ is not ranked yet"
                            r"|no column ends with the largest entry \d+")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_malformed_tableaux_raise_walk_error_or_a_stage_refusal(data):
    """Columns of ints in -1..size+1, or 1 and then a shuffle of 2..size, so
    that many reach the walk itself: every walk returns, raises WalkError,
    or raises a TableauError with one of the STAGE_REFUSALS texts, never
    another exception."""
    heights = data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=5))
    size = sum(heights)
    if data.draw(st.booleans()):
        entries = [1, *data.draw(st.permutations(range(2, size + 1)))]
    else:
        entries = data.draw(st.lists(st.integers(-1, size + 1), min_size=size, max_size=size))
    ends = list(accumulate(heights, initial=0))
    t = Tableau(tuple(tuple(entries[a:b]) for a, b in zip(ends, ends[1:])))
    for run in (walk, walk_plus, walk_minus):
        try:
            run(t)
        except WalkError:
            pass
        except TableauError as exc:
            assert STAGE_REFUSALS.fullmatch(str(exc)), str(exc)


class TestWalkGraph:
    def test_matches_plain_walk(self):
        t = run_tableau()
        assert digraph_walk(t, rank_tableau(t)) == (walk(t), True)

    def test_balanced_on_fills(self):
        for family in family_grid(3, 3):
            if family.kind != "k":
                continue
            for path in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(sweep(path)))
                assert digraph_walk(t, rank_tableau(t)) == (walk(t), True)

    def test_flags_an_unbalanced_ranking(self):
        # entry 4 ranked 2, not 1: three edges enter rank 1, which holds one index
        t = Tableau(((1, 3), (2, 4)))
        assert digraph_walk(t, (0, 0, 1, 2))[1] is False


class TestSigmaToPreimage:
    def test_running_example(self):
        t = run_tableau()
        sigma = walk(t)
        got = sigma_to_preimage(sigma, t, FamilySpec.vector((4, 2, 5, 3)))
        assert got.steps == PREIMAGE

    def test_walk_must_fit_family_kind(self):
        # the write count, size, size+1 or size-1, tells the three walks apart
        for family in family_grid(3, 3):
            for path in enumerate_family(family, permute_k=True).paths:
                t = fill(SWWord.from_steps(skeleton(sweep(path), family)))
                sigma = run_walk(t, family.tilt)
                for kind in {"k", "kplus", "kminus"} - {family.kind}:
                    if kind == "kminus" and min(family.k) * len(family.k) < 2:
                        continue
                    with pytest.raises(WalkError, match="writes"):
                        sigma_to_preimage(sigma, t, FamilySpec(kind, family.k))

    @pytest.mark.parametrize("bad", [2.0, "2", None], ids=repr)
    def test_entries_must_be_integers(self, bad):
        t = run_tableau()
        sigma = walk(t)
        with pytest.raises(WalkError, match="integers"):
            sigma_to_preimage((bad,) + sigma[1:], t, FamilySpec.vector((4, 2, 5, 3)))

    def test_entries_must_lie_in_range(self):
        with pytest.raises(WalkError, match=r"^written entries must lie in 1\.\.3$"):
            sigma_to_preimage((1, 2, 7), Tableau(((1, 2, 3),)), FamilySpec.vector((2,)))

    def test_k_must_match(self):
        t = run_tableau()
        sigma = walk(t)
        with pytest.raises(WalkError, match="rise vector"):
            sigma_to_preimage(sigma, t, FamilySpec.vector((1, 1, 1, 1)))

    def test_rational_has_no_walk(self):
        # (7, 5): m mod n = 2, a residue no walk handles
        t = fill(SWWord.from_steps(StepSequence((1, -1) * 5)))
        sigma = walk(t)
        no_walk = r"^rational \(7, 5\) paths have no walk: m mod n is 2,"
        with pytest.raises(PathError, match=no_walk):
            sigma_to_preimage(sigma, t, FamilySpec.rational(7, 5))

    def test_rational_spells_the_scaled_rises(self):
        # (4, 4) is the plain family (1, 1, 1, 1) scaled by 4
        plain = StepSequence((1, -1, 1, 1, -1, 1, -1, -1))
        t = fill(SWWord.from_steps(plain))
        got = sigma_to_preimage(walk(t), t, FamilySpec.rational(4, 4))
        assert got.steps == tuple(4 * a for a in invert(plain, FamilySpec.vector((1,) * 4)))


class TestInvert:
    def test_running_example(self):
        got = invert(StepSequence(IMAGE), FamilySpec.vector((2, 4, 5, 3)))
        assert got.steps == PREIMAGE
        assert invert(IMAGE, FamilySpec.vector((2, 4, 5, 3))) == got  # a tuple stands for its path

    def test_fixed_points(self):
        assert invert(StepSequence((1, -1)), FamilySpec.vector((1,))).steps == (1, -1)
        assert invert(StepSequence((2, -1, -1)), FamilySpec.vector((2,))).steps == (2, -1, -1)

    def test_two_unit_columns(self):
        fam = FamilySpec.vector((1, 1))
        assert invert(StepSequence((1, -1, 1, -1)), fam).steps == (1, 1, -1, -1)
        assert invert(StepSequence((1, 1, -1, -1)), fam).steps == (1, -1, 1, -1)

    def test_plus_golden(self):
        img_plus = to_plus(StepSequence(IMAGE), (4, 2, 5, 3))
        got = invert(img_plus, FamilySpec.plus((4, 2, 5, 3)))
        assert got.steps == (
            17, 13, -4, -4, -4, -4, 21, -4, -4, -4, -4, -4, -4, -4, -4, 9, -4, -4, -4
        )
        assert sweep(got) == img_plus

    def test_minus_golden(self):
        got = invert(StepSequence((3, 1, -2, -2)), FamilySpec.minus((2, 1)))
        assert got.steps == (3, -2, 1, -2)

    def test_rational_refused(self):
        # (1, 3): m mod n = 1 with m < n, and k = 0 has no plus family
        no_walk = r"^rational \(1, 3\) paths have no walk: m mod n is 1,"
        with pytest.raises(PathError, match=no_walk):
            invert(StepSequence((1, 1, 1, -3)), FamilySpec.rational(1, 3))
        with pytest.raises(PathError, match="m mod n is 1,"):
            skeleton(StepSequence((1, 1, 1, -3)), FamilySpec.rational(1, 3))

    def test_one_two_inverts_as_minus_one_one(self):
        # (1, 2): m = 2*1 - 1, the minus family with k = (1, 1), whose one path is fixed
        family = FamilySpec.rational(1, 2)
        assert family.tilt == -1 and family.up_rises == FamilySpec.minus((1, 1)).up_rises
        assert invert(StepSequence((1, 1, -2)), family).steps == (1, 1, -2)

    def test_non_member_refused(self):
        with pytest.raises(PathError, match="not a member"):
            invert(StepSequence((1, -1)), FamilySpec.vector((2,)))

    @pytest.mark.parametrize("family", family_grid(3, 3), ids=str)
    def test_round_trip_everywhere(self, family):
        for path in enumerate_family(family, permute_k=True).paths:
            img = sweep(path)
            assert invert(img, family) == path

    def test_minus_membership_mirrors_single_zero(self):
        # a plain path lowers into the minus family iff its fill after
        # sweeping is minus-admissible
        fam = FamilySpec.vector((2, 1))
        for path in enumerate_family(fam, permute_k=True).paths:
            t = fill(SWWord.from_steps(path))
            zeros = sum(1 for r in ranks(path) if r == 0)
            assert is_minus_admissible(t) == (zeros == 1)


class TestLargeRoundTrips:
    """Both round trips at N up to about 10^4, where the plus and minus
    walks take slides far longer than any the small grids reach."""

    @pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
    def test_uniform_members(self, kind):
        rng = random.Random(f"large:{kind}")
        for n in (30, 300, 1500):
            family = FamilySpec(kind, tuple(rng.randint(1, 10) for _ in range(n)))
            p = uniform_member(family, rng)
            assert invert(sweep(p), family) == p
            q = uniform_member(family, rng)
            assert sweep(invert(q, family)) == q

    @pytest.mark.parametrize("tilt", [0, 1, -1])
    def test_rational_uniform_members(self, tilt):
        # (3n + tilt, n) with n = 2500, about 10^4 steps: a plus/minus member with
        # k = (3,)*n step for step, or a plain member scaled by n
        n, rng = 2500, random.Random(tilt)
        family = FamilySpec.rational(3 * n + tilt, n)
        assert family.tilt == tilt
        kind = {0: "k", 1: "kplus", -1: "kminus"}[tilt]

        def member():
            p = uniform_member(FamilySpec(kind, (3,) * n), rng)
            return StepSequence(tuple(n * a for a in p)) if tilt == 0 else p

        p, q = member(), member()
        assert len(p) == 4 * n + tilt
        assert invert(sweep(p), family) == p
        assert sweep(invert(q, family)) == q

    @pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
    def test_ups_first(self, kind):
        # every up step before every down step: the longest slides
        k = tuple(random.Random(kind).randint(1, 10) for _ in range(1000))
        plain = StepSequence(k + (-1,) * sum(k))
        p = {"k": plain, "kplus": to_plus(plain, k), "kminus": to_minus(plain, k)}[kind]
        family = FamilySpec(kind, k)
        assert invert(sweep(p), family) == p
        assert sweep(invert(p, family)) == p

    @pytest.mark.parametrize(
        "family",
        [FamilySpec.vector((2, 1, 1)), FamilySpec.plus((3, 1, 1)), FamilySpec.minus((1, 2, 2))],
        ids=str,
    )
    def test_sampler_is_uniform_on_the_closure(self, family):
        closure = enumerate_family(family, permute_k=True).paths
        rng = random.Random(3)
        draws = 100 * len(closure)
        counts = Counter(uniform_member(family, rng) for _ in range(draws))
        assert set(counts) == set(closure)
        assert all(60 < c < 140 for c in counts.values())


@pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
def test_uniform_members_differential(kind, n, seed):
    """On uniform members of up to about 2*10^3 steps: both round trips, the
    plain walk against the digraph walk on the skeleton's tableau, and the
    rank-interval fact (the tableau's ranks, by index, are the sorted ranks
    of the plain preimage)."""
    rng = random.Random(seed)
    family = FamilySpec(kind, tuple(rng.randint(1, 10) for _ in range(n)))
    p = uniform_member(family, rng)
    image = sweep(p)
    assert invert(image, family) == p
    q = uniform_member(family, rng)
    assert sweep(invert(q, family)) == q
    t = fill(SWWord.from_steps(skeleton(image, family)))
    sigma = run_walk(t, 0)
    assert digraph_walk(t, rank_tableau(t)) == (sigma, True)
    plain = sigma_to_preimage(sigma, t, FamilySpec.vector(t.k))
    assert rank_tableau(t) == tuple(sorted(ranks(plain)))
    if kind == "k":
        assert plain == p


def staged_invert(image, family):
    """invert's stages run one by one, with the walk of the family's tilt: the
    oracle of its one-pass routes."""
    t = fill(SWWord.from_steps(skeleton(image, family)))
    return sigma_to_preimage(run_walk(t, family.tilt), t, family)


# every stage of the staged route, counted where it is defined, or, for
# what only walking calls, through walking's binding; validate is counted
# through both, the input check's in paths and the output guard's in walking
STAGES = ((paths, "validate"), (walking, "validate"), (paths, "skeleton"),
          (paths, "from_plus"), (paths, "from_minus"), (SWWord, "from_steps"),
          (tableau, "fill"), (walking, "extend_plus"), (walking, "run_walk"),
          (walking, "sigma_to_preimage"))
TILTS = (0, -1, 1)
KINDS = {0: "k", -1: "kminus", 1: "kplus"}


def off_tilt(k, n, tilt):
    """(k + tilt, 1) has tilt 0 (or is none), and (2k - 1, 2) for k > 1 takes the plus walk."""
    return tilt and n == 1 or tilt < 0 and n == 2 and k > 1


# per tilt: two preimages that invert with no stage run, the kind's and a rational's
NO_STAGE = {
    0: ((FamilySpec.vector((2, 4, 5, 3)), PREIMAGE),
        (FamilySpec.rational(4, 2), (4, -2, -2, 4, -2, -2))),
    -1: ((FamilySpec.minus((2, 1)), (3, -2, 1, -2)),
         (FamilySpec.rational(5, 3), (5, -3, 5, -3, -3, 5, -3, -3))),
    1: ((FamilySpec.plus((2, 1)), (5, 3, -2, -2, -2, -2)),
        (FamilySpec.rational(7, 3), (7, -3, 7, -3, -3, 7, -3, -3, -3, -3))),
}
# every kplus and kminus closure in the oracle bounds, and every rational (kn + t, n)
# there but off_tilt's: 20 of tilt 0, 13 of tilt -1 and 16 of tilt +1
CLOSURES = [
    *((-1, FamilySpec.minus(k)) for k in k_multisets(4, 4) if all(len(k) * v >= 2 for v in k)),
    *((1, FamilySpec.plus(k)) for k in k_multisets(4, 4)),
    *((t, FamilySpec.rational(k * n + t, n)) for t in TILTS for n in range(1, 6)
      for k in range(1, 5) if not off_tilt(k, n, t)),
]
MEMBER = "not a member of the family: "
UPS_FIRST = {"k-1": (0, (1,)), "k-1x2000": (0, (1,) * 2000), "kminus-1,1": (-1, (1, 1)),
             "kminus-1x2000": (-1, (1,) * 2000), "kplus-1": (1, (1,)),
             "kplus-1x2000": (1, (1,) * 2000)}


class TestOnePassInvert:
    """invert on a family of tilt t -- the k, kminus or kplus kind, rational
    (kn + t, n) -- runs one pass over the path's own ints, _invert_flat or
    _invert_tilted; it must write what the public stages write."""

    @pytest.mark.parametrize("tilt", TILTS, ids=KINDS.get)
    def test_runs_no_stage_and_validates_once(self, monkeypatch, tilt):
        calls = Counter()
        counting(monkeypatch, calls, *STAGES)
        for family, p in NO_STAGE[tilt]:
            assert invert(sweep(p), family).steps == p
        assert calls == Counter(validate=2)

    @pytest.mark.parametrize("tilt, family", CLOSURES,
                             ids=[f"{f.kind}{f.k or (f.m, f.n)}" for _, f in CLOSURES])
    def test_every_closure_in_the_oracle_bounds(self, tilt, family):
        assert family.tilt == tilt
        for p in enumerate_family(family, permute_k=True).paths:
            image = sweep(p)
            assert invert(image, family) == staged_invert(image, family) == p

    @pytest.mark.parametrize("tilt, k", UPS_FIRST.values(), ids=UPS_FIRST)
    def test_ups_first(self, tilt, k):
        family = FamilySpec(KINDS[tilt], k)
        plain = StepSequence(k + (-1,) * sum(k))
        p = to_plus(plain, k) if tilt > 0 else to_minus(plain, k) if tilt else plain
        for path in (p, sweep(p)):
            assert invert(path, family) == staged_invert(path, family)
        assert invert(sweep(p), family) == p

    @pytest.mark.parametrize("tilt", TILTS, ids=KINDS.get)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_uniform_members(self, tilt, data, seed):
        # up to about 2*10^3 steps: a member of the tilt's kind, and of rational
        # (kn + tilt, n), a member of the kind with constant k (scaled by n for tilt 0)
        n = data.draw(st.integers(2 if tilt < 0 else 1, 200), label="n")  # n*k_i >= 2
        rng = random.Random(seed)
        kind = KINDS[tilt]
        family = FamilySpec(kind, tuple(rng.randint(1, 10) for _ in range(n)))
        k = rng.randint(1, 10)
        members = [(family, uniform_member(family, rng))]
        if not off_tilt(k, n, tilt):
            rational = FamilySpec.rational(k * n + tilt, n)
            assert rational.tilt == tilt
            twin = uniform_member(FamilySpec(kind, (k,) * n), rng)
            members.append((rational, twin if tilt else StepSequence([n * a for a in twin])))
        for fam, p in members:
            for path in (p, sweep(p)):
                assert invert(path, fam) == staged_invert(path, fam)
            assert invert(sweep(p), fam) == p

    @pytest.mark.parametrize("steps, family, error", [
        ((1, -1), FamilySpec.vector((2,)), MEMBER + "expected 3 steps, got 2"),
        # the membership check runs before the refusal of a residue no walk handles
        ((1, -1), FamilySpec.rational(7, 5), MEMBER + "expected 12 steps, got 2"),
        ((7,) * 5 + (-5,) * 7, FamilySpec.rational(7, 5),
         "rational (7, 5) paths have no walk: m mod n is 2, "
         "and the walks need 0, 4, or 1 with m > n"),
        ((2, -2, -2, 2), FamilySpec.rational(2, 2), MEMBER + "prefix sum -2 is negative (index 3)"),
        ((3, -1, 1, -3), FamilySpec.minus((2, 1)),
         MEMBER + "down step drops 1, expected 2 (index 2)"),
        ((3, 1, -2), FamilySpec.minus((2, 1)), MEMBER + "total rise is 2, not 0"),
        ((5, -3, -3, 5, -3, 5, -3, -3), FamilySpec.rational(5, 3),
         MEMBER + "prefix sum -1 is negative (index 3)"),
        ((7,) * 5 + (-5,) * 6 + (5,), FamilySpec.rational(7, 5), MEMBER + "total rise is 10, not 0"),
    ])
    def test_refusals(self, steps, family, error):
        with pytest.raises(PathError) as exc:
            invert(StepSequence(steps), family)
        assert str(exc.value) == error

    @pytest.mark.parametrize("tilt, steps, drop, error", [
        # not a path (its total is 2): the walk ends after three writes
        (0, (1, 1, 1, -1), 1, "walk stopped after 3 of 4 writes"),
        # the skeleton 1,-1,1,-1 returns to level 0 twice, which validate
        # refuses: its first top writes itself and the walk stops there
        (-1, (1, -2, 1), 2, "walk wrote 1 of the expected 3 entries"),
        # not Dyck: a first drop, and a drop past the columns' room
        (-1, (-2, 3, -2), 2, "no column has room for the drop at entry 1"),
        (-1, (1, -2, -2, 3, -2), 2, "no column has room for the drop at entry 3"),
        (1, (-2, 3, -2, -2, 3), 2, "no column has room for the drop at entry 1"),
        (1, (3, -2, -2, 3, -2, -2), 2, "no column has room for the drop at entry 3"),
        # a rise of k = 3 that two drops leave unfilled
        (-1, (5, -2), 2, "path ends while the column topped by entry 1 is unfilled"),
        # a rise of k = 2 that one drop leaves unfilled: the last step is the extra entry
        (1, (5, -2, -2), 2, "path ends while the column topped by entry 1 is unfilled"),
        # no column for extend_plus's entry to go under
        (1, (-2,), 2, "path has no column to extend"),
    ])
    def test_pass_refuses_what_validate_refuses(self, tilt, steps, drop, error):
        family = FamilySpec(KINDS[tilt], (1,) * drop)
        assert not validate(StepSequence(steps), family, permute_k=True)
        with pytest.raises(WalkError) as exc:
            walking._invert_tilted(steps, drop, tilt) if tilt else walking._invert_flat(steps, drop)
        assert str(exc.value) == error

    @pytest.mark.parametrize("tilt", TILTS, ids=KINDS.get)
    def test_guard_refuses_what_the_pass_misspells(self, monkeypatch, tilt):
        # a pass that writes the drops first: only _preimage's membership guard
        # sees it, on a family of drop 1
        monkeypatch.setattr(walking, "_invert_tilted" if tilt else "_invert_flat",
                            lambda s, *_: tuple(sorted(s)))
        family = FamilySpec(KINDS[tilt], (2,) if tilt < 0 else (1,))
        with pytest.raises(WalkError) as exc:
            invert(enumerate_family(family).paths[0], family)
        assert str(exc.value) == ("reconstruction is not a valid family member: "
                                  "prefix sum -1 is negative (index 1)")

    @pytest.mark.parametrize("tilt", TILTS, ids=KINDS.get)
    def test_guard_refuses_a_short_answer(self, monkeypatch, tilt):
        # a pass that leaves out the last drop: every prefix sum stays >= 0,
        # so only the length check sees it, and validate names the total
        monkeypatch.setattr(walking, "_invert_tilted" if tilt else "_invert_flat",
                            lambda s, *_: s[:-1])
        family, p = NO_STAGE[tilt][0]
        with pytest.raises(WalkError) as exc:
            invert(sweep(p), family)
        assert str(exc.value) == ("reconstruction is not a valid family member: "
                                  f"total rise is {family.down_drop}, not 0")

    @pytest.mark.parametrize("tilt", TILTS, ids=KINDS.get)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_pass_permutes_its_input(self, tilt, data, seed):
        # what invert's guard rests on: each pass spells every step of s once
        n = data.draw(st.integers(2 if tilt < 0 else 1, 60), label="n")  # n*k_i >= 2
        rng = random.Random(seed)
        family = FamilySpec(KINDS[tilt], tuple(rng.randint(1, 10) for _ in range(n)))
        p, drop = uniform_member(family, rng), family.down_drop
        for s in (p.steps, sweep(p).steps):
            out = walking._invert_tilted(s, drop, tilt) if tilt else walking._invert_flat(s, drop)
            assert sorted(out) == sorted(s)


class TestWrittenOrderLaw:
    def test_walk_ranks_spell_the_preimage_levels(self):
        # the j-th written index has the rank of the preimage's j-th step
        for family in family_grid(3, 3):
            if family.kind != "k":
                continue
            for path in enumerate_family(family, permute_k=True).paths:
                img = sweep(path)
                t = fill(SWWord.from_steps(img))
                r = rank_tableau(t)
                sigma = walk(t)
                pre = ranks(path)
                assert all(r[v - 1] == pre[j] for j, v in enumerate(sigma))
