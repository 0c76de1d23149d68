import itertools

import pytest
from hypothesis import settings

from protoloc import episodic

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no deadline, since timing varies across machines.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def fix_boxes(monkeypatch):
    """Make the episode code propose the given boxes, in support order, on
    every call: fix_boxes(boxes) stands in for episodic.propose_box."""
    def fix(boxes):
        cycle = itertools.cycle(list(boxes))
        monkeypatch.setattr(episodic, "propose_box", lambda *args: next(cycle))
    return fix
