"""The mutant catalogue stays current: every entry's line is still in the source.

Running the mutants themselves takes too long for the package tests; see
``tests/mutants.py``.
"""

import pytest

from mutants import MUTANTS, ROOT, line_index


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_entry_is_current(mutant):
    line_index(mutant, ROOT / "src")
    k, count = mutant.occurrence
    assert 1 <= k <= count
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)


def test_repeated_line_needs_its_count():
    # a line that occurs twice is stale when an entry expects it once, and
    # each occurrence it names is a different line
    repeated = next(m for m in MUTANTS if m.occurrence != (1, 1))
    with pytest.raises(LookupError, match="found 2 times"):
        line_index(repeated._replace(occurrence=(1, 1)), ROOT / "src")
    first = line_index(repeated._replace(occurrence=(1, 2)), ROOT / "src")
    second = line_index(repeated._replace(occurrence=(2, 2)), ROOT / "src")
    assert first < second
