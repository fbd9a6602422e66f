"""The mutant catalogue stays current: every entry's line is still in the source.

Running the mutants themselves takes too long for the package tests; see
``tests/mutants.py``.
"""

import pytest

from mutants import MUTANTS, ROOT, line_index


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_entry_is_current(mutant):
    line_index(mutant, ROOT / "src")
    assert mutant.new != mutant.old
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)
