"""The sweep map itself: frozen images, order data, and structural laws."""

import random
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sweepmap import (
    FamilySpec,
    PathError,
    StepSequence,
    enumerate_family,
    ranks,
    sweep,
    sweep_order,
    validate,
)
from conftest import family_grid, random_path, uniform_member

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
