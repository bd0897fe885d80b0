"""The sweep map itself: frozen images, order data, and structural laws."""

import math
import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepmap import (
    FamilySpec,
    OracleError,
    PathError,
    StepSequence,
    enumerate_family,
    invert,
    ranks,
    sweep,
    sweep_order,
    validate,
)
from sweepmap.oracle import DEFAULT_MAX_K, DEFAULT_MAX_N
from conftest import SHORTEST_MEMBERS, area, dinv, family_grid, random_path, uniform_member

PREIMAGE = (2, -1, -1, 4, -1, 5, -1, -1, -1, -1, 3, -1, -1, -1, -1, -1, -1, -1)
IMAGE = (4, 2, -1, -1, -1, -1, -1, 5, -1, 3, -1, -1, -1, -1, -1, -1, -1, -1)
ORDER = (4, 1, 18, 3, 17, 2, 16, 6, 15, 11, 5, 14, 10, 13, 9, 12, 8, 7)


class TestGoldens:
    def test_running_example_image(self):
        assert sweep(StepSequence(PREIMAGE)).steps == IMAGE

    def test_running_example_order(self):
        o = sweep_order(StepSequence(PREIMAGE))
        assert o == ORDER
        # the order really is what produces the image
        assert tuple(PREIMAGE[i - 1] for i in o) == IMAGE

    def test_single_up_fixed_point(self):
        assert sweep(StepSequence((1, -1))).steps == (1, -1)

    def test_peak_is_fixed_with_reversed_tail(self):
        assert sweep(StepSequence((2, -1, -1))).steps == (2, -1, -1)
        assert sweep_order(StepSequence((2, -1, -1))) == (1, 3, 2)

    @pytest.mark.parametrize("family, steps", SHORTEST_MEMBERS, ids=str)
    def test_shortest_member_of_each_kind(self, family, steps):
        img = sweep(StepSequence(steps))
        assert type(img) is StepSequence and type(img.steps) is tuple and img.steps == steps
        assert invert(img, family) == img

    def test_two_unit_columns_swap(self):
        assert sweep(StepSequence((1, 1, -1, -1))).steps == (1, -1, 1, -1)
        assert sweep(StepSequence((1, -1, 1, -1))).steps == (1, 1, -1, -1)

    def test_rational_example(self):
        rat = StepSequence(
            (12, 12, -4, -4, -4, -4, 12, -4, -4, -4, 12, -4, -4, -4, -4, -4)
        )
        img = sweep(rat)
        assert img.steps == (12, -4, -4, 12, 12, -4, -4, -4, 12, -4, -4, -4, -4, -4, -4, -4)

    def test_rejects_invalid_path(self):
        with pytest.raises(PathError):
            sweep(StepSequence((1, -1, -1)))

    @pytest.mark.parametrize("fn", [sweep, sweep_order])
    @pytest.mark.parametrize(
        "steps, text",
        [
            ((1, -1, -1), "prefix sum -1 is negative (index 3)"),
            ((-2, 1, 1), "prefix sum -2 is negative (index 1)"),
            ((2, -1, -2, 1), "prefix sum -1 is negative (index 3)"),
            ((2, -1), "total rise is 1, not 0"),
            ((3, -1, 2, -1), "total rise is 3, not 0"),
        ],
    )
    def test_non_dyck_error_text(self, fn, steps, text):
        with pytest.raises(PathError) as err:
            fn(StepSequence(steps))
        assert str(err.value) == text

    def test_plain_tuples_go_through_the_constructor(self):
        assert sweep(PREIMAGE).steps == IMAGE


def _reference_order(steps):
    """The sweep order as the definition states it: sort by (level, -position)."""
    r = tuple(accumulate(steps.steps[:-1], initial=0))
    return tuple(i + 1 for i in sorted(range(len(r)), key=lambda i: (r[i], -i)))


@pytest.mark.parametrize("kind", ["k", "kplus", "kminus"])
@pytest.mark.parametrize("n, max_k, count", [(1, 3, 20), (3, 4, 60), (5, 2, 60), (300, 5, 3)])
def test_order_matches_the_definition(kind, n, max_k, count):
    """The levels-and-keyed-sort pass against the (level, -index) sort, on
    uniform members: N <= 21 for the small rows; in the last, N is about
    1,200 and the tilted kinds, scaled by n = 300, reach levels near 2*10**4."""
    rng = random.Random(n * 1000 + max_k)
    for _ in range(count):
        k = tuple(rng.randint(1, max_k) for _ in range(n))
        if kind == "kminus" and n * min(k) < 2:
            continue
        path = uniform_member(FamilySpec(kind, k=k), rng)
        order = _reference_order(path)
        assert sweep_order(path) == order
        assert sweep(path).steps == tuple(path.steps[i - 1] for i in order)


@pytest.mark.parametrize("family", family_grid(3, 2), ids=str)
def test_order_matches_the_definition_on_whole_families(family):
    for path in enumerate_family(family, permute_k=True).paths:
        assert sweep_order(path) == _reference_order(path)


def _image_rank_law(steps):
    """Within the image, ranks are weakly increasing over the sweep order."""
    r = ranks(steps)
    order = sweep_order(steps)
    swept = [r[i - 1] for i in order]
    return swept == sorted(swept)


class TestProperties:
    @pytest.mark.parametrize("family", family_grid(3, 3), ids=str)
    def test_small_families(self, family):
        for path in enumerate_family(family, permute_k=True).paths:
            img = sweep(path)
            assert Counter(img.steps) == Counter(path.steps)
            assert validate(img, family, permute_k=True)
            assert _image_rank_law(path)

    def test_order_is_a_permutation(self):
        rng = random.Random(11)
        for _ in range(25):
            k = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            d = random_path(k, rng)
            o = sweep_order(d)
            assert sorted(o) == list(range(1, len(d) + 1))


@given(st.data())
def test_sweep_preserves_step_multiset(data):
    k = data.draw(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6)
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    d = random_path(tuple(k), random.Random(seed))
    img = sweep(d)
    assert Counter(img.steps) == Counter(d.steps)
    assert validate(img, FamilySpec.vector(tuple(k)), permute_k=True)


def rational_enumerations():
    """Every rational (m, n) family inside the oracle's default bounds, enumerated."""
    out = []
    for n in range(1, DEFAULT_MAX_N + 1):
        for m in range(1, (DEFAULT_MAX_K + 1) * n):
            try:
                out.append(enumerate_family(FamilySpec.rational(m, n)))
            except OracleError:  # m past the bound on k
                pass
    return out


def sweep_ties_left_to_right(p):
    """A wrong sweep: steps by starting level, earlier positions first inside a level."""
    levels = list(accumulate(p, initial=0))
    return tuple(p[i] for i in sorted(range(len(p)), key=levels.__getitem__))


class TestDinvToArea:
    """On rational (m, n) paths the sweep map is the rational zeta map, which
    sends dinv to area (Armstrong-Loehr-Warrington, Rational parking functions
    and Catalan numbers; Gorsky-Mazin): an oracle for sweep that counts boxes
    and sorts nothing."""

    def test_every_rational_family_in_the_oracle_bounds(self):
        families = rational_enumerations()
        count = 0
        for e in families:
            m, n = e.family.m, e.family.n
            for p in e.paths:
                assert area(sweep(p).steps, m, n) == dinv(p.steps, m, n), (m, n, p)
                count += 1
        assert (len(families), count) == (67, 22520)

    @pytest.mark.parametrize("m, n, failures, count", [(6, 3, 9, 12), (10, 5, 252, 273)])
    def test_left_to_right_ties_fail(self, m, n, failures, count):
        # negative control: coprime paths start no two steps at one level, so only
        # families that share a factor see the tie order, and they see it here
        paths = enumerate_family(FamilySpec.rational(m, n)).paths
        wrong = [p for p in paths if area(sweep_ties_left_to_right(p.steps), m, n)
                 != dinv(p.steps, m, n)]
        assert (len(wrong), len(paths)) == (failures, count)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_uniform_rational_members(self, data, seed):
        # coprime (m, n) up to about 10^3 steps, where the oracle cannot enumerate
        n = data.draw(st.integers(1, 90), label="n")
        m = data.draw(st.integers(1, 1000 - n).filter(lambda m: math.gcd(m, n) == 1), label="m")
        p = uniform_member(FamilySpec.rational(m, n), random.Random(seed))
        assert validate(p, FamilySpec.rational(m, n))
        assert area(sweep(p).steps, m, n) == dinv(p.steps, m, n)
