"""The reward trace stays the reward trace: ``accumulated_reward_trace``
of a few missions equals the fixture in ``tests/data/traces.json``
exactly.

The trace is the paper's headline number. Speed work on the replay or
on the density rule must not move a single bit of it.
``tests/trace_fixture.py`` defines the missions and rewrites the fixture.
"""

import json

import numpy as np
import pytest

from trace_fixture import FIXTURE, reward_traces


@pytest.fixture(scope="module")
def traces():
    return reward_traces()


@pytest.mark.parametrize("key", sorted(json.loads(FIXTURE.read_text())))
def test_reward_trace_matches_the_fixture(traces, key):
    want = np.array(json.loads(FIXTURE.read_text())[key])
    assert np.array_equal(np.array(traces[key]), want)
