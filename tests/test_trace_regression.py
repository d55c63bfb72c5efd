"""The reward trace stays the reward trace: ``accumulated_reward_trace``
of a few missions equals the fixture in ``tests/data/traces.json``
exactly, and every per-step belief, each vehicle's and the team's,
holds the data set recorded in ``tests/data/beliefs.json``.

The trace is the paper's headline number. Speed work on the replay or
on the density rule must not move a single bit of it, nor of what any
vehicle knew at any step.
``tests/trace_fixture.py`` defines the missions and rewrites the fixtures.
"""

import json

import numpy as np
import pytest

from trace_fixture import BELIEFS, FIXTURE, belief_hashes, reward_traces


@pytest.fixture(scope="module")
def traces():
    return reward_traces()


@pytest.fixture(scope="module")
def beliefs():
    return belief_hashes()


@pytest.mark.parametrize("key", sorted(json.loads(FIXTURE.read_text())))
def test_reward_trace_matches_the_fixture(traces, key):
    want = np.array(json.loads(FIXTURE.read_text())[key])
    assert np.array_equal(np.array(traces[key]), want)


@pytest.mark.parametrize("key", sorted(json.loads(BELIEFS.read_text())))
def test_per_step_beliefs_match_the_fixture(beliefs, key):
    assert beliefs[key] == json.loads(BELIEFS.read_text())[key]
