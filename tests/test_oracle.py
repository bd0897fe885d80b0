"""The exhaustive oracle: enumeration order, counts, and certification."""

import itertools
import math
import random
from collections import Counter

import pytest

from sweepmap import (
    FamilySpec,
    OracleError,
    PathError,
    StepSequence,
    brute_invert,
    certify_bijection,
    emit_steps,
    enumerate_family,
    invert,
    oracle,
    ranks,
    sweep,
    to_minus,
    to_plus,
    validate,
)
from conftest import counting, family_grid, k_multisets, random_path


class TestEnumeration:
    def test_order_is_up_branch_first(self):
        paths = enumerate_family(FamilySpec.vector((1, 1))).paths
        assert [p.steps for p in paths] == [(1, 1, -1, -1), (1, -1, 1, -1)]

    def test_two_one(self):
        paths = enumerate_family(FamilySpec.vector((2, 1))).paths
        assert [p.steps for p in paths] == [
            (2, 1, -1, -1, -1),
            (2, -1, 1, -1, -1),
            (2, -1, -1, 1, -1),
        ]

    def test_single_zero_members_lower(self):
        # exactly the first two of the three (2,1) paths stay above zero
        paths = enumerate_family(FamilySpec.vector((2, 1))).paths
        single = [p for p in paths if sum(1 for r in ranks(p) if r == 0) == 1]
        assert single == list(paths[:2])
        for p in single:
            to_minus(p, (2, 1))  # must not raise

    def test_closure_counts(self):
        enum = enumerate_family(FamilySpec.vector((2, 1)), permute_k=True)
        assert set(enum.counts) == {(1, 2), (2, 1)}
        assert enum.count == enum.counts[(1, 2)] + enum.counts[(2, 1)]
        assert all(p.rises in {(1, 2), (2, 1)} for p in enum.paths)

    def test_fuss_catalan_counts(self):
        # equal rises k over n columns: C((k+1)n, n) / (kn + 1) paths
        for n in range(1, 5):
            for k in range(1, 4):
                fam = FamilySpec.vector((k,) * n)
                expected = math.comb((k + 1) * n, n) // (k * n + 1)
                assert enumerate_family(fam).count == expected

    def test_triple_two(self):
        assert enumerate_family(FamilySpec.vector((2, 2, 2))).count == 12

    def test_every_path_is_valid(self):
        for family in family_grid(3, 3):
            enum = enumerate_family(family, permute_k=True)
            for p in enum.paths:
                assert validate(p, family, permute_k=True)
            # no duplicates slip in
            assert len(set(enum.paths)) == enum.count

    def test_lifts_are_bijections_on_enumerations(self):
        for ms in k_multisets(3, 3):
            plain = enumerate_family(FamilySpec.vector(ms)).paths
            plus = enumerate_family(FamilySpec.plus(ms)).paths
            assert {to_plus(p, ms) for p in plain} == set(plus)
            if all(len(ms) * v >= 2 for v in ms):
                minus = enumerate_family(FamilySpec.minus(ms)).paths
                single = [
                    p for p in plain if sum(1 for r in ranks(p) if r == 0) == 1
                ]
                assert {to_minus(p, ms) for p in single} == set(minus)

    def test_bounds(self):
        with pytest.raises(OracleError, match="exceeds the bound"):
            enumerate_family(FamilySpec.vector((1,) * 9))
        with pytest.raises(OracleError, match="exceeds the bound"):
            enumerate_family(FamilySpec.vector((9,)))
        # a rational family is bounded by its n and by k, where m = kn + tilt
        with pytest.raises(OracleError, match="^n=6 exceeds the bound 5$"):
            enumerate_family(FamilySpec.rational(7, 6))
        with pytest.raises(OracleError, match="^max k_i=6 exceeds the bound 4$"):
            enumerate_family(FamilySpec.rational(13, 2))

    def test_to_json(self):
        obj = enumerate_family(FamilySpec.vector((2, 1)), permute_k=True).to_json()
        assert obj["count"] == len(obj["paths"])
        assert set(obj["counts"]) == {"1,2", "2,1"}


def brute_force_paths(family, permute_k):
    """The family's paths by exhaustion: every placement of the downs among each
    ordering's rises, the Dyck ones, each ordering's sorted up before down."""
    rises, drop = family.up_rises, family.down_drop
    n_down = sum(rises) // drop
    size = len(rises) + n_down
    whole = permute_k or not family.k  # a rational family is its one closure
    found = []
    for ordering in sorted(set(itertools.permutations(rises))) if whole else [rises]:
        paths = []
        for downs in map(set, itertools.combinations(range(size), n_down)):
            ups = iter(ordering)
            path = tuple(-drop if j in downs else next(ups) for j in range(size))
            if min(itertools.accumulate(path)) >= 0:
                paths.append(path)
        found += sorted(paths, key=lambda path: [a < 0 for a in path])
    return found


@pytest.mark.usefixtures("cold_oracle")
@pytest.mark.parametrize("family", family_grid(3, 3) + [
    FamilySpec.rational(3, 2), FamilySpec.rational(5, 3), FamilySpec.rational(7, 5)], ids=str)
def test_search_matches_brute_force(family):
    # cold, then read from the memo that certify fills
    for permute_k in (False, True):
        assert [p.steps for p in enumerate_family(family, permute_k).paths] == \
            brute_force_paths(family, permute_k)
    certify_bijection(family)
    for permute_k in (False, True):
        assert [p.steps for p in enumerate_family(family, permute_k).paths] == \
            brute_force_paths(family, permute_k)


class TestBruteInvert:
    def test_round_trips(self):
        for family in family_grid(3, 3):
            for p in enumerate_family(family, permute_k=True).paths:
                assert brute_invert(sweep(p), family) == p

    def test_no_preimage(self):
        # a path outside the family cannot be hit by any member
        with pytest.raises(OracleError, match="no preimage"):
            brute_invert(StepSequence((3, -1, -1, -1)), FamilySpec.vector((2, 1)))

    @pytest.mark.usefixtures("cold_oracle")
    def test_multiple_preimages(self, monkeypatch):
        # 2,-1,1,-1,-1 faked onto the image of 1,-1,2,-1,-1
        def faked(p, _sweep=oracle.sweep):
            return _sweep(StepSequence((1, -1, 2, -1, -1)) if p.steps == (2, -1, 1, -1, -1) else p)

        monkeypatch.setattr(oracle, "sweep", faked)
        with pytest.raises(OracleError, match="^multiple preimages of 2,1,-1,-1,-1 in the family$"):
            brute_invert(StepSequence((2, 1, -1, -1, -1)), FamilySpec.vector((2, 1)))

    def test_family_order_is_irrelevant(self):
        p = StepSequence((1, -1, 2, -1, -1))
        assert brute_invert(p, FamilySpec.vector((2, 1))) == brute_invert(
            p, FamilySpec.vector((1, 2))
        )

    def test_plain_tuples_are_paths(self):
        # like sweep and invert, a tuple of rises stands for its StepSequence
        for p in enumerate_family(FamilySpec.vector((1, 1))).paths:
            assert brute_invert(tuple(sweep(p).steps), FamilySpec.vector((1, 1))) == p

    def test_rational_family_is_not_enumerable(self):
        # past the bounds, as for the k kinds; (7, 5) has no walk but is enumerable
        with pytest.raises(OracleError, match="^n=6 exceeds the bound 5$"):
            brute_invert(StepSequence((7, -6, 7, -6, -6)), FamilySpec.rational(7, 6))
        path = enumerate_family(FamilySpec.rational(7, 5)).paths[-1]
        assert brute_invert(sweep(path), FamilySpec.rational(7, 5)) == path

    @pytest.mark.usefixtures("cold_oracle")
    def test_certify_then_brute_invert_enumerate_once(self, monkeypatch):
        family = FamilySpec.plus((1, 2, 3))
        paths = list(enumerate_family(family, permute_k=True).paths)
        images = [sweep(p) for p in paths]
        calls = Counter()
        counting(monkeypatch, calls, (oracle, "_paths_for"), (oracle, "enumerate_family"),
                 (oracle, "sweep"))
        report = certify_bijection(family)
        assert [brute_invert(q, family) for q in images] == paths
        # one search per ordering of the rises, one sweep per path
        assert calls == {"_paths_for": 6, "sweep": report.count}

    @pytest.mark.usefixtures("cold_oracle")
    def test_certify_enumerate_brute_invert_search_once(self, monkeypatch):
        # enumerate reads the closure that certify searched and swept
        family = FamilySpec.plus((1, 2, 3))
        calls = Counter()
        counting(monkeypatch, calls, (oracle, "_paths_for"), (oracle, "sweep"))
        report = certify_bijection(family)
        paths = enumerate_family(family, permute_k=True).paths
        assert [brute_invert(sweep(p), family) for p in paths] == list(paths)
        assert calls == {"_paths_for": 6, "sweep": report.count}

    @pytest.mark.usefixtures("cold_oracle")
    def test_cold_enumerate_sweeps_nothing(self, monkeypatch):
        calls = Counter()
        counting(monkeypatch, calls, (oracle, "_paths_for"), (oracle, "sweep"))
        assert enumerate_family(FamilySpec.plus((1, 2, 3)), permute_k=True).count == 72
        assert calls == {"_paths_for": 6}

    @pytest.mark.usefixtures("cold_oracle")
    def test_memo_keeps_the_last_eight_closures(self, monkeypatch):
        calls = Counter()
        counting(monkeypatch, calls, (oracle, "sweep"))
        families = [FamilySpec.vector((k,)) for k in range(1, 10)]
        for family in families:
            certify_bijection(family, max_k=9)
        assert len(oracle._closures) == 8 and calls["sweep"] == 9
        certify_bijection(families[1], max_k=9)  # kept, and now the most recently used
        assert calls["sweep"] == 9
        certify_bijection(families[0], max_k=9)  # swept again; families[2] goes
        assert len(oracle._closures) == 8 and calls["sweep"] == 10
        certify_bijection(families[1], max_k=9)
        assert calls["sweep"] == 10
        certify_bijection(families[2], max_k=9)
        assert calls["sweep"] == 11

    @pytest.mark.usefixtures("cold_oracle")
    def test_one_closure_for_equal_rises_and_drop(self, monkeypatch):
        # kplus (1,1), kminus (2,2) and rational (3,2) are the same paths: 3s and -2s
        calls = Counter()
        counting(monkeypatch, calls, (oracle, "sweep"))
        families = [FamilySpec.plus((1, 1)), FamilySpec.minus((2, 2)), FamilySpec.rational(3, 2)]
        reports = [certify_bijection(family) for family in families]
        assert [r.count for r in reports] == [2, 2, 2] and all(r.bijection for r in reports)
        assert calls == {"sweep": 2}


class TestCertify:
    @pytest.mark.parametrize("family", family_grid(3, 3), ids=str)
    def test_small_families(self, family):
        report = certify_bijection(family)
        assert report.bijection, report.counterexample
        assert report.counterexample is None

    # the closure of (2,1) in enumeration order, each with its true image:
    # 1,2,-1,-1,-1 -> 1,-1,2,-1,-1    1,-1,2,-1,-1 -> 2,1,-1,-1,-1
    # 2,1,-1,-1,-1 -> 2,-1,-1,1,-1    2,-1,1,-1,-1 -> 2,-1,1,-1,-1
    # 2,-1,-1,1,-1 -> 1,2,-1,-1,-1
    @pytest.mark.usefixtures("cold_oracle")
    @pytest.mark.parametrize("fake, counterexample", [
        ({"2,1,-1,-1,-1": "3,-1,-1,-1", "2,-1,-1,1,-1": "1,-1,1,-1"},
         {"kind": "image-outside-family", "path": "2,1,-1,-1,-1", "image": "3,-1,-1,-1"}),
        ({"2,-1,1,-1,-1": "2,1,-1,-1,-1", "2,-1,-1,1,-1": "1,-1,2,-1,-1"},
         {"kind": "collision", "first": "1,-1,2,-1,-1", "second": "2,-1,1,-1,-1",
          "image": "2,1,-1,-1,-1"}),
    ], ids=["outside", "collision"])
    def test_first_violation_is_the_counterexample(self, monkeypatch, fake, counterexample):
        def faked(p, _sweep=oracle.sweep):
            q = fake.get(emit_steps(p))
            return StepSequence(tuple(map(int, q.split(",")))) if q else _sweep(p)

        monkeypatch.setattr(oracle, "sweep", faked)
        report = certify_bijection(FamilySpec.vector((2, 1)))
        assert (report.count, report.bijection) == (5, False)
        assert report.counterexample == counterexample

    def test_report_json_keys(self):
        obj = certify_bijection(FamilySpec.vector((2, 1))).to_json()
        assert set(obj) == {"family", "count", "bijection", "counterexample"}
        assert obj["bijection"] is True


# every rational (m, n) with n <= 5 and m <= 12; n = 1 makes m // n reach 12
RATIONAL = [FamilySpec.rational(m, n) for n in range(1, 6) for m in range(1, 13)]
RATIONAL_BOUNDS = {"max_n": 5, "max_k": 12}


class TestRationalFamilies:
    def test_fuss_families_invert_as_the_oracle_does(self):
        # m = kn, kn + 1 or kn - 1: the plain, plus and minus walks apply
        fuss = [family for family in RATIONAL if family.tilt is not None]
        count = 0
        for family in fuss:
            assert certify_bijection(family, **RATIONAL_BOUNDS).bijection, family
            for p in enumerate_family(family, **RATIONAL_BOUNDS).paths:
                q = sweep(p)
                assert invert(q, family) == brute_invert(q, family, **RATIONAL_BOUNDS) == p
                count += 1
        assert (len(fuss), count) == (49, 1414)

    def test_other_residues_certify_but_have_no_walk(self):
        others = [family for family in RATIONAL if family.tilt is None]
        assert [(f.m, f.n) for f in others] == [
            (1, 3), (1, 4), (2, 4), (6, 4), (10, 4), (1, 5), (2, 5), (3, 5), (7, 5), (8, 5),
            (12, 5),
        ]
        for family in others:
            assert certify_bijection(family, **RATIONAL_BOUNDS).bijection, family
            q = sweep(enumerate_family(family, **RATIONAL_BOUNDS).paths[-1])
            with pytest.raises(PathError, match=rf"^rational \({family.m}, {family.n}\) "
                               rf"paths have no walk: m mod n is {family.m % family.n}, "):
                invert(q, family)

    def test_seven_five(self):
        family = FamilySpec.rational(7, 5)
        assert enumerate_family(family).count == 66 == math.comb(12, 5) // 12
        report = certify_bijection(family)
        assert (report.count, report.bijection) == (66, True)


class TestRandomPath:
    def test_validity(self):
        rng = random.Random(3)
        for _ in range(100):
            k = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 8)))
            p = random_path(k, rng)
            assert validate(p, FamilySpec.vector(k))

    def test_deterministic_under_seed(self):
        a = random_path((2, 1, 3), random.Random(42))
        b = random_path((2, 1, 3), random.Random(42))
        assert a == b
