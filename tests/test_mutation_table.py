"""The mutation table of tests/mutation.py follows the code.

Each mutant replaces one text that must occur exactly once in its file. A
refactor that moves or rewrites a mutated line would make the harness stop
at that mutant after minutes of runs; this check finds it in milliseconds.
"""

import pytest

from mutation import MUTANTS, ROOT


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_text_occurs_once_in_its_file(mutant):
    text = (ROOT / "src" / "qmeasure" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, (mutant.name, mutant.old)
    assert mutant.new != mutant.old
