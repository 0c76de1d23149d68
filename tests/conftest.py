import itertools

import numpy as np
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
    every call: fix_boxes(boxes) stands in for episodic.propose_boxes, and
    each call's (N, 4) int64 stack is the next N boxes of the cycled list.
    Fails at teardown if the stand-in was set but never called."""
    fixed, called = [], []

    def fix(boxes):
        cycle = itertools.cycle(list(boxes))

        def propose_boxes(fms, *args):
            called.append(len(fms))
            return np.array(list(itertools.islice(cycle, len(fms))), dtype=np.int64)
        monkeypatch.setattr(episodic, "propose_boxes", propose_boxes)
        fixed.append(boxes)
    yield fix
    if fixed and not called:
        pytest.fail("fix_boxes stood in for episodic.propose_boxes, but nothing called it")
