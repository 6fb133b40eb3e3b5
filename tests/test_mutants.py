"""The mutation table in tests/mutants.py still applies to the code.

Running the table takes minutes, so tier 1 checks only that it is live:
every old snippet occurs exactly once in its module, every change
changes something, and every node id names a test that exists.  A
refactor that moves a snippet or renames a test fails here, and the
table is updated with it.
"""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_entry_applies(mutant):
    text = (ROOT / "src" / "ortho_szego" / mutant.module).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(def|class) {re.escape(name)}\b", source, re.MULTILINE), node
