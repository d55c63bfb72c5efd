"""The reward trace stays the reward trace: ``accumulated_reward_trace``
of a few missions equals the fixture in ``tests/data/traces.json``
exactly, and every per-step belief, each vehicle's and the team's,
holds the data set recorded in ``tests/data/beliefs.json``.

The trace is the paper's headline number. Speed work on the replay or
on the density rule must not move a single bit of it, nor of what any
vehicle knew at any step.
``tests/trace_fixture.py`` defines the missions and rewrites the fixtures.
"""

import copy
import json
import math

import numpy as np
import pytest

import trace_fixture
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


def test_check_reports_without_rewriting(traces, beliefs, monkeypatch, capsys):
    before = (FIXTURE.read_bytes(), BELIEFS.read_bytes())
    monkeypatch.setattr(trace_fixture, "reward_traces", lambda: traces)
    monkeypatch.setattr(trace_fixture, "belief_hashes", lambda: beliefs)
    assert trace_fixture.main(["--check"]) == 0
    assert (FIXTURE.read_bytes(), BELIEFS.read_bytes()) == before
    out = capsys.readouterr().out
    assert "trace entries compared: 0 moved" in out
    assert "belief digests compared: 0 moved" in out
    assert trace_fixture.main(["--rewrite"]) == 2


@pytest.mark.parametrize("change", ["trace", "belief", "step"])
def test_check_exits_one_when_anything_moved(
    traces, beliefs, monkeypatch, capsys, change
):
    before = (FIXTURE.read_bytes(), BELIEFS.read_bytes())
    traces, beliefs = copy.deepcopy(traces), copy.deepcopy(beliefs)
    key = sorted(traces)[0]
    if change == "trace":
        # One ulp of one entry.
        traces[key][-1] = math.nextafter(traces[key][-1], math.inf)
    elif change == "belief":
        beliefs[key]["global"][-1] = "0" * 64
    else:
        traces[key].append(traces[key][-1])
    monkeypatch.setattr(trace_fixture, "reward_traces", lambda: traces)
    monkeypatch.setattr(trace_fixture, "belief_hashes", lambda: beliefs)
    assert trace_fixture.main(["--check"]) == 1
    assert (FIXTURE.read_bytes(), BELIEFS.read_bytes()) == before
    assert " 1 moved" in capsys.readouterr().out
