"""``tests/output_digests.py --against``: what it reports as changed."""

from output_digests import changes


def test_changes_name_every_moved_new_and_gone_path():
    before = ["aa  default/seed_0/events.jsonl", "bb  plain/seed_0/trace.csv",
              "cc  plain/seed_1/trace.csv"]
    after = ["aa  default/seed_0/events.jsonl", "bd  plain/seed_0/trace.csv",
             "dd  terminal/seed_0/trace.csv"]
    assert changes(before, before) == []
    assert changes(before, after) == [
        "moved  plain/seed_0/trace.csv",
        "gone  plain/seed_1/trace.csv",
        "new  terminal/seed_0/trace.csv",
    ]
