"""The mutation check's harness counts only a failing test as a kill."""

import mutants


def test_a_row_naming_no_test_reads_broken():
    # pytest exits 4 on a test id that does not exist: no test ran against the mutant
    tests = ("tests/test_walking.py::test_no_such_test",)
    result = mutants.run("src/sweepmap/walking.py", tests, "if len(out) < len(after):", "if False:")
    assert result == ("broken", "pytest exit 4")
