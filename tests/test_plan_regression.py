"""Plans stay the plans: every plan event of a few short missions matches
the fixture in ``tests/data/plans.json``.

Speed work on the planner must not change what it chooses. Actions and
evaluation counts must match exactly; ``value`` and ``naive`` within a
relative 1e-9, room for a reordered float sum and nothing more.
``tests/plan_fixture.py`` defines the missions and rewrites the fixture.
"""

import json

import pytest

from plan_fixture import FIXTURE, plan_events

REL = 1e-9


@pytest.fixture(scope="module")
def runs():
    return plan_events()


@pytest.mark.parametrize("key", sorted(json.loads(FIXTURE.read_text())))
def test_plan_events_match_the_fixture(runs, key):
    want = json.loads(FIXTURE.read_text())[key]
    got = runs[key]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["agent"], g["epoch"]) == (w["agent"], w["epoch"])
        assert g["actions"] == w["actions"], (key, w["agent"], w["epoch"])
        assert g["evaluations"] == w["evaluations"], (key, w["agent"], w["epoch"])
        assert g["value"] == pytest.approx(w["value"], rel=REL)
        assert g["naive"] == pytest.approx(w["naive"], rel=REL)
