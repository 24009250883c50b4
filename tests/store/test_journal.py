"""The append-only update journal: write-ahead durability for the store."""

import pytest

from repro.errors import StoreError
from repro.store import UpdateJournal


def test_append_and_replay_roundtrip(tmp_path):
    journal = UpdateJournal(tmp_path / "j.jsonl")
    journal.append(1, (10, 11), (5,))
    journal.append(2, (), (10,))
    journal.append(3, (42,), ())
    assert journal.last_seq() == 3
    assert journal.replay(0) == [
        (1, (10, 11), (5,)),
        (2, (), (10,)),
        (3, (42,), ()),
    ]
    assert journal.replay(2) == [(3, (42,), ())]
    assert journal.replay(3) == []
    journal.close()


def test_empty_and_missing_journal(tmp_path):
    journal = UpdateJournal(tmp_path / "missing.jsonl")
    assert journal.last_seq() == 0
    assert journal.replay(0) == []
    journal.close()


def test_reopen_sees_prior_appends(tmp_path):
    path = tmp_path / "j.jsonl"
    first = UpdateJournal(path)
    first.append(1, (7,), ())
    first.close()
    second = UpdateJournal(path)
    assert second.last_seq() == 1
    second.append(2, (8,), (7,))
    assert second.replay(0) == [(1, (7,), ()), (2, (8,), (7,))]
    second.close()


def test_torn_trailing_line_is_tolerated(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = UpdateJournal(path)
    journal.append(1, (1,), ())
    journal.append(2, (2,), ())
    journal.close()
    # Simulate a crash mid-append: the final line is cut short.
    text = path.read_text()
    path.write_text(text[: text.rindex('{"seq":2') + 8])
    reopened = UpdateJournal(path)
    assert reopened.replay(0) == [(1, (1,), ())]
    assert reopened.last_seq() == 1
    reopened.close()


def test_interior_corruption_raises(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = UpdateJournal(path)
    journal.append(1, (1,), ())
    journal.append(2, (2,), ())
    journal.close()
    lines = path.read_text().splitlines()
    lines[0] = lines[0][:-4]  # damage a non-final line
    path.write_text("\n".join(lines) + "\n")
    reopened = UpdateJournal(path)
    with pytest.raises(StoreError):
        reopened.replay(0)
    reopened.close()


def test_compact_keeps_only_the_suffix(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = UpdateJournal(path)
    for seq in range(1, 6):
        journal.append(seq, (seq,), ())
    journal.compact(3)
    assert journal.replay(0) == [(4, (4,), ()), (5, (5,), ())]
    assert journal.last_seq() == 5
    journal.compact(5)
    assert journal.replay(0) == []
    journal.close()


def test_unlink_removes_the_file(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = UpdateJournal(path)
    journal.append(1, (1,), ())
    journal.unlink()
    assert not path.exists()


def test_crash_at_every_byte_of_an_append(tmp_path):
    # The newline commits an entry.  At every cut inside an append: the
    # reopened entries are the newline-committed prefix, the next append
    # lands on a clean line, and a third open agrees with the second --
    # an entry one restart replayed is never lost by the next.
    path = tmp_path / "j.jsonl"
    written = [(1, (10, 11), (5,)), (2, (42,), (10,))]
    journal = UpdateJournal(path)
    journal.append(*written[0])
    append_start = path.stat().st_size
    journal.append(*written[1])
    journal.close()
    whole = path.read_bytes()
    assert whole.count(b"\n") == 2
    for cut in range(append_start, len(whole) + 1):
        path.write_bytes(whole[:cut])
        committed = whole[: whole.rfind(b"\n", 0, cut) + 1]
        reopened = UpdateJournal(path)
        assert reopened.entries() == written[: committed.count(b"\n")], cut
        after = (reopened.last_seq() + 1, (7,), ())
        reopened.append(*after)
        reopened.close()
        assert path.read_bytes().startswith(committed)
        assert path.read_bytes().count(b"\n") == committed.count(b"\n") + 1
        third = UpdateJournal(path)
        assert third.entries() == written[: committed.count(b"\n")] + [after], cut


def test_corruption_before_a_torn_tail_still_raises(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = UpdateJournal(path)
    journal.append(1, (1,), ())
    journal.close()
    path.write_text(path.read_text() + "not json\n" + '{"seq":3,"ins')
    with pytest.raises(StoreError, match="corrupt journal"):
        UpdateJournal(path).entries()
