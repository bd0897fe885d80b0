"""The passes' contract on every list of ints up to length 4: tests/exhaust.py's tier-1 slice."""

import exhaust


def test_every_short_list_is_permuted_or_refused():
    cases, permutations, counterexample = exhaust.check(4)
    assert counterexample is None
    # 10**0 + ... + 10**4 lists, each at three drops and three tilts; the
    # permuted ones include the empty list and the lone drops at tilt +1
    assert (cases, permutations) == (99_999, 3_734)
