import itertools

import pytest

from protoloc import episodic


@pytest.fixture
def fix_boxes(monkeypatch):
    """Make the episode code propose the given boxes, in support order, on
    every call: fix_boxes(boxes) stands in for episodic.propose_box."""
    def fix(boxes):
        cycle = itertools.cycle(list(boxes))
        monkeypatch.setattr(episodic, "propose_box", lambda *args: next(cycle))
    return fix
