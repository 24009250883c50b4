"""The one line journal: crash properties, checked for every entry codec.

The store's mutation batches (``UPDATES``) and the replica's records
(``RECORDS``) share one :class:`~repro.store.Journal`, so each property
here runs over both codecs: torn tails, a crash at every byte of an
append, interior corruption, and a crash inside an atomic rewrite --
journal compaction and the store's snapshot alike.
"""

import random

import pytest

import repro.store.journal as journal_module
from repro.cluster import KVRecord
from repro.cluster.replica import RECORDS
from repro.errors import ClusterError, StoreError
from repro.iblt import IBLT
from repro.store import Journal, SketchConfig, SketchStore
from repro.store.journal import UPDATES

CASES = {
    "updates": (
        UPDATES,
        StoreError,
        [(1, (10, 11), (5,)), (2, (42,), (10,)), (3, (7,), ()), (4, (), (42,))],
    ),
    "records": (
        RECORDS,
        ClusterError,
        [
            KVRecord(key="a", version=1, writer=0, value="1"),
            KVRecord(key="a", version=5, writer=1, value="2"),
            KVRecord(key="b", version=2, writer=1, value=None),
            KVRecord(key="clé", version=3, writer=2, value="vé\nw"),
        ],
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_append_and_reopen_roundtrip(tmp_path, case):
    codec, _, written = case
    path = tmp_path / "j.jsonl"
    first = Journal(path, codec)
    first.append(written[:1])
    first.append(written[1:3])
    first.close()
    second = Journal(path, codec)
    assert second.entries() == written[:3]
    second.append(written[3:])
    assert second.entries() == written
    second.close()


def test_missing_journal_has_no_entries(tmp_path, case):
    codec, _, _ = case
    assert Journal(tmp_path / "missing.jsonl", codec).entries() == []


def test_torn_trailing_line_is_tolerated(tmp_path, case):
    codec, _, written = case
    path = tmp_path / "j.jsonl"
    journal = Journal(path, codec)
    journal.append(written[:2])
    journal.close()
    # Simulate a crash mid-append: the final line is cut short.
    path.write_bytes(path.read_bytes()[:-5])
    reopened = Journal(path, codec)
    assert reopened.entries() == written[:1]
    # The next append lands on a clean line, not the torn fragment.
    reopened.append(written[2:3])
    reopened.close()
    assert Journal(path, codec).entries() == [written[0], written[2]]


def test_crash_at_every_byte_of_an_append(tmp_path, case):
    # An append is one write, so a crash inside it leaves complete lines
    # followed by at most one torn one.  The newline commits an entry.  At
    # every cut inside an append: the reopened entries are the
    # newline-committed prefix, the next append lands on a clean line, and
    # a third open agrees with the second -- an entry one restart replayed
    # is never lost by the next.
    codec, _, written = case
    *before, after = written
    path = tmp_path / "j.jsonl"
    journal = Journal(path, codec)
    journal.append(before[:1])
    append_start = path.stat().st_size
    journal.append(before[1:])
    journal.close()
    whole = path.read_bytes()
    assert whole.count(b"\n") == len(before)
    for cut in range(append_start, len(whole) + 1):
        path.write_bytes(whole[:cut])
        committed = whole[: whole.rfind(b"\n", 0, cut) + 1]
        kept = before[: committed.count(b"\n")]
        reopened = Journal(path, codec)
        assert reopened.entries() == kept, cut
        if codec is UPDATES:  # sequence numbers continue from the last kept
            after = (kept[-1][0] + 1, (99,), ())
        reopened.append([after])
        reopened.close()
        assert path.read_bytes().startswith(committed)
        assert path.read_bytes().count(b"\n") == committed.count(b"\n") + 1
        assert Journal(path, codec).entries() == kept + [after], cut


def test_interior_corruption_raises(tmp_path, case):
    codec, error, written = case
    path = tmp_path / "j.jsonl"
    journal = Journal(path, codec)
    journal.append(written[:2])
    journal.close()
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[0] = lines[0][:-4]  # damage a non-final line
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(error, match="corrupt journal"):
        Journal(path, codec).entries()


def test_corruption_before_a_torn_tail_still_raises(tmp_path, case):
    codec, error, written = case
    path = tmp_path / "j.jsonl"
    journal = Journal(path, codec)
    journal.append(written[:1])
    journal.close()
    torn = codec.encode(written[1])[:9]
    path.write_text(path.read_text(encoding="utf-8") + "not json\n" + torn, encoding="utf-8")
    with pytest.raises(error, match="corrupt journal"):
        Journal(path, codec).entries()


def test_rewrite_keeps_exactly_the_given_entries(tmp_path, case):
    codec, _, written = case
    path = tmp_path / "j.jsonl"
    journal = Journal(path, codec)
    journal.append(written)
    journal.rewrite(written[2:])
    assert journal.entries() == written[2:]
    journal.rewrite(written[:1])
    journal.append(written[1:2])  # appends continue after a rewrite
    assert journal.entries() == written[:2]
    journal.rewrite([])
    assert path.read_bytes() == b""
    assert journal.entries() == []
    journal.close()


def test_rewriting_a_missing_journal_to_nothing_creates_no_file(tmp_path, case):
    codec, _, _ = case
    path = tmp_path / "j.jsonl"
    Journal(path, codec).rewrite([])
    assert list(tmp_path.iterdir()) == []


def test_unlink_removes_the_file(tmp_path, case):
    codec, _, written = case
    path = tmp_path / "j.jsonl"
    journal = Journal(path, codec)
    journal.append(written[:1])
    journal.unlink()
    assert not path.exists()
    journal.unlink()  # already gone: nothing to do


def _crash_replace(monkeypatch):
    def crash(source, target):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(journal_module.os, "replace", crash)


def _leave_partial_temp(path):
    temp = path.with_suffix(path.suffix + ".tmp")
    temp.write_bytes(b'{"partial": [1, 2')


@pytest.mark.parametrize("crash", ["replace-raises", "partial-temp"])
def test_a_crash_inside_a_journal_rewrite_leaves_the_old_journal(
    tmp_path, monkeypatch, case, crash
):
    codec, _, written = case
    path = tmp_path / "j.jsonl"
    journal = Journal(path, codec)
    journal.append(written)
    before = path.read_bytes()
    if crash == "replace-raises":
        _crash_replace(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            journal.rewrite(written[3:])
        monkeypatch.undo()
    else:
        _leave_partial_temp(path)
    assert path.read_bytes() == before
    assert Journal(path, codec).entries() == written
    journal.rewrite(written[3:])  # succeeds over the stale temp file
    assert Journal(path, codec).entries() == written[3:]
    assert [item.name for item in tmp_path.iterdir()] == ["j.jsonl"]
    journal.close()


@pytest.mark.parametrize("crash", ["replace-raises", "partial-temp"])
def test_a_crash_inside_a_snapshot_leaves_the_old_snapshot(tmp_path, monkeypatch, crash):
    universe = 1 << 24
    config = SketchConfig(universe, seed=7)
    dataset = set(random.Random(7).sample(range(universe), 100))
    store = SketchStore(tmp_path)
    store.table_for("d", config, 8, dataset)
    path = store.snapshot("d")
    before = path.read_bytes()
    store.apply("d", [universe - 1], [])
    dataset.add(universe - 1)
    if crash == "replace-raises":
        _crash_replace(monkeypatch)
        with pytest.raises(OSError, match="simulated crash"):
            store.snapshot("d")
        monkeypatch.undo()
    else:
        _leave_partial_temp(path)
    assert path.read_bytes() == before
    fresh = IBLT.from_items(config.context().table_params(8), dataset)
    # The old snapshot plus the uncompacted journal still recover the state.
    recovered = SketchStore(tmp_path)
    assert recovered.table_for("d", config, 8, None).serialize() == fresh.serialize()
    recovered.close()
    store.snapshot("d")  # succeeds over the stale temp file
    store.close()
    assert path.read_bytes() != before
    assert sorted(item.name for item in tmp_path.iterdir()) == [
        "d.journal.jsonl",
        "d.snapshot.json",
    ]
    reopened = SketchStore(tmp_path)
    assert reopened.table_for("d", config, 8, None).serialize() == fresh.serialize()
    reopened.close()


@pytest.mark.parametrize(
    "line",
    [
        '{"seq":true,"insert":[1],"delete":[]}',
        '{"seq":2.0,"insert":[1],"delete":[]}',
        '{"seq":"2","insert":[1],"delete":[]}',
        '{"seq":1,"insert":[2],"delete":[]}',  # does not follow seq 1
        '{"seq":2,"insert":[1.7],"delete":[]}',
        '{"seq":2,"insert":["12"],"delete":[]}',
        '{"seq":2,"insert":[false],"delete":[]}',
        '{"seq":2,"insert":[],"delete":[-5]}',
        '{"seq":2,"insert":{"1":1},"delete":[]}',
        "[2,[1],[]]",
    ],
    ids=[
        "bool-seq",
        "float-seq",
        "str-seq",
        "repeated-seq",
        "float-key",
        "str-key",
        "bool-key",
        "negative-key",
        "dict-insert",
        "list-body",
    ],
)
def test_the_update_decoder_checks_instead_of_coercing(tmp_path, line):
    path = tmp_path / "j.jsonl"
    path.write_text(
        '{"seq":1,"insert":[3],"delete":[]}\n' + line + '\n{"seq":9,"insert":[4],"delete":[]}\n',
        encoding="utf-8",
    )
    with pytest.raises(StoreError, match="corrupt journal entry at .*:2"):
        Journal(path, UPDATES).entries()
