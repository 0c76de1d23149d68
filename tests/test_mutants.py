"""The mutation list in mutants.py stays applicable: a refactor that moves or
rewords a mutated text fails here, by name, not only in the full mutation
run. Reads files only."""

import pytest

from mutants import MUTATIONS, ROOT, _pairs


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[str(i) for i in range(len(MUTATIONS))])
def test_each_old_text_occurs_once_and_its_new_text_differs(mutation):
    text = (ROOT / mutation.file).read_text()
    for old, new in _pairs(mutation):
        assert text.count(old) == 1, old
        assert new != old
