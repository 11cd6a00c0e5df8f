from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import split_by_targets
from pers import dataio


def make_interaction(lid="u1", eid="p1", ts=0, status="accepted", **kw):
    return dataio.Interaction(lid, eid, ts, status, kw.pop("t", 10), kw.pop("m", 100), **kw)


def write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def valid_record(**over):
    rec = {
        "learner_id": "u1",
        "exercise_id": "p1",
        "timestamp": 100,
        "status": "accepted",
        "exec_time_ms": 12,
        "exec_memory_kb": 256,
    }
    rec.update(over)
    return rec


def test_parse_empty_file(tmp_path):
    p = tmp_path / "log.jsonl"
    p.write_text("")
    interactions, issues = dataio.parse_log(p)
    assert interactions == [] and issues == []


def test_parse_three_valid_lines_in_order(tmp_path):
    p = tmp_path / "log.jsonl"
    write_lines(p, [valid_record(exercise_id=f"p{i}") for i in range(3)])
    interactions, issues = dataio.parse_log(p)
    assert [it.exercise_id for it in interactions] == ["p0", "p1", "p2"]
    assert issues == []


def test_parse_reports_line_number_of_bad_record(tmp_path):
    p = tmp_path / "log.jsonl"
    bad = valid_record()
    del bad["exercise_id"]
    write_lines(p, [valid_record(), bad, valid_record()])
    interactions, issues = dataio.parse_log(p)
    assert len(interactions) == 2
    assert len(issues) == 1
    assert issues[0].line == 2
    assert "exercise_id" in issues[0].message


def test_parse_strict_raises(tmp_path):
    p = tmp_path / "log.jsonl"
    write_lines(p, [{"nope": 1}])
    with pytest.raises(dataio.DataError, match="line 1"):
        dataio.parse_log(p, strict=True)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_parse_a_line_that_is_not_utf8_is_one_issue(tmp_path, newline):
    good = json.dumps(valid_record()).encode()
    p = tmp_path / "log.jsonl"
    # A CR LF ending reads as "\n", as text mode read it, so line 2's JSON message counts one newline.
    p.write_bytes(newline.join([good, b'{"a": ', b"", good.replace(b"p1", b"p\xb61"), b" ", good]) + newline)
    interactions, issues = dataio.parse_log(p)
    assert len(interactions) == 2
    assert issues == [dataio.ParseIssue(2, "Expecting value: line 2 column 1 (char 7)"),
                      dataio.ParseIssue(4, "not UTF-8 text")]
    p.write_bytes(newline.join([good, good.replace(b"p1", b"p\xb61")]))
    with pytest.raises(dataio.DataError, match="^line 2: not UTF-8 text$"):
        dataio.parse_log(p, strict=True)


def test_parse_a_line_nested_too_deeply_is_one_issue(tmp_path):
    good = json.dumps(valid_record()).encode()
    p = tmp_path / "log.jsonl"
    p.write_bytes(b"\n".join([good, b"[" * 100_000, b'{"learner_id": ' + b"[" * 100_000, good]) + b"\n")
    interactions, issues = dataio.parse_log(p)
    assert len(interactions) == 2
    assert issues == [dataio.ParseIssue(2, "nested too deeply"), dataio.ParseIssue(3, "nested too deeply")]
    with pytest.raises(dataio.DataError, match="^line 2: nested too deeply$"):
        dataio.parse_log(p, strict=True)


def reference_parse_log(path, strict=False):
    """parse_log with every line read by the reference reader alone."""
    interactions, issues = [], []
    with open(path, "rb") as fh:
        for lineno, line in dataio.numbered_lines(fh):
            try:
                record = dataio._parse_line(line)
            except ValueError as exc:
                if strict:
                    raise dataio.DataError(f"line {lineno}: {exc}") from exc
                issues.append(dataio.ParseIssue(lineno, str(exc)))
                continue
            if record is not None:
                interactions.append(record)
    return interactions, issues


def outcome(parse, path, strict):
    try:
        return parse(path, strict)
    except dataio.DataError as exc:
        return str(exc)


_IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
_COUNTS = st.one_of(st.integers(0, 10**6), st.integers(0, 10**30))
_WRONG = st.sampled_from([True, False, None, 1.5, -1, 0, "7", "", [], {}, [1], {"a": 1}])


@st.composite
def record_lines(draw):
    """One JSON object line of a submission log, valid or with one fault."""
    rec = {
        "learner_id": draw(_IDS), "exercise_id": draw(_IDS), "timestamp": draw(st.integers(-(10**20), 10**20)),
        "status": draw(st.sampled_from([*dataio.STATUSES, "judge_crashed", ""])),
        "exec_time_ms": draw(_COUNTS), "exec_memory_kb": draw(_COUNTS),
    }
    for key in ("code", "code_vec_ref"):
        if draw(st.booleans()):
            rec[key] = draw(st.text(max_size=12))
    fault = draw(st.sampled_from(["none", "wrong-type", "wrong-type", "null", "missing", "unknown"]))
    if fault == "wrong-type":
        rec[draw(st.sampled_from(sorted(rec)))] = draw(_WRONG)
    elif fault == "null":
        rec[draw(st.sampled_from(sorted({*rec, "code", "code_vec_ref"})))] = None
    elif fault == "missing":
        del rec[draw(st.sampled_from(sorted(rec)))]
    elif fault == "unknown":
        rec[draw(st.sampled_from(["extra", "Status", "code_vec"]))] = draw(_WRONG)
    keys = draw(st.permutations(sorted(rec)))
    text = json.dumps({k: rec[k] for k in keys}, ensure_ascii=draw(st.booleans()))
    frame = draw(st.one_of(st.just("{}"), st.sampled_from([" {}", "\ufeff{}", "{} \t", "{} x", "{}{{}}", "[{}]"])))
    return frame.format(text).encode()


_OTHER_LINES = st.sampled_from([
    b"", b"  \t", "\u00a0\u2003".encode(), "\ufeff".encode(), b"null", b"[]", b"{", b'{"a": ',
    b"[" * 100_000, b'{"learner_id": ' + b"[" * 100_000, b"\xb6", b'{"learner_id": "\xb6"}',
])


@st.composite
def log_files(draw):
    lines = draw(st.lists(st.one_of(record_lines(), record_lines(), _OTHER_LINES), max_size=12))
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i][:1] + b"\xff" + lines[i][1:]  # one line that is not UTF-8
    ends = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines), max_size=len(lines)))
    body = b"".join(line + end for line, end in zip(lines, ends))
    return body[: -len(ends[-1])] if lines and draw(st.booleans()) else body  # no final newline


@settings(max_examples=300, deadline=None)
@given(body=log_files())
def test_parse_log_equals_the_per_line_reference(tmp_path_factory, body):
    p = tmp_path_factory.mktemp("log") / "log.jsonl"
    p.write_bytes(body)
    for strict in (False, True):
        assert outcome(dataio.parse_log, p, strict) == outcome(reference_parse_log, p, strict)


def test_the_scanner_takes_every_written_record(tmp_path):
    log = [make_interaction(eid="p\u00e9", ts=-3, code="x = 1\n\ty"), make_interaction(status="judge_crashed", code_vec_ref="v"),
           make_interaction(t=10**30, m=0, code="", code_vec_ref="")]
    p = tmp_path / "log.jsonl"
    dataio.write_log(p, log)
    with open(p, "rb") as fh:
        lines = [line for _, line in dataio.numbered_lines(fh)]
    scanned = [dataio._scan_line(line) for line in lines]
    assert None not in scanned and scanned == [dataio._parse_line(line) for line in lines]


def test_parse_unreadable_file():
    with pytest.raises(dataio.DataError):
        dataio.parse_log("/nonexistent/nowhere.jsonl")


def test_parse_rejects_unknown_keys(tmp_path):
    p = tmp_path / "log.jsonl"
    write_lines(p, [valid_record(extra=1)])
    _, issues = dataio.parse_log(p)
    assert issues and "extra" in issues[0].message


def test_unseen_status_maps_to_other(tmp_path):
    p = tmp_path / "log.jsonl"
    write_lines(p, [valid_record(status="presentation_error")])
    interactions, issues = dataio.parse_log(p)
    assert issues == []
    assert interactions[0].status == "other"


def test_round_trip(tmp_path):
    original = [
        make_interaction(eid="p1", ts=5, code="print(1)"),
        make_interaction(eid="p2", ts=9, status="wrong_answer", code_vec_ref="v1"),
    ]
    p = tmp_path / "log.jsonl"
    dataio.write_log(p, original)
    parsed, issues = dataio.parse_log(p)
    assert issues == []
    assert parsed == original


def test_build_sequences_windows_of_120_events():
    interactions = [make_interaction(eid=f"p{i % 7}", ts=i) for i in range(120)]
    seqs, _ = dataio.build_sequences(interactions, max_len=50)
    assert [len(s) for s in seqs] == [50, 50, 20]


def test_build_sequences_never_mixes_learners():
    interactions = [make_interaction(lid="a", ts=1), make_interaction(lid="b", ts=0)]
    seqs, _ = dataio.build_sequences(interactions, max_len=50)
    assert [(s.learner_id, len(s)) for s in seqs] == [("a", 1), ("b", 1)]


def test_build_sequences_sorts_by_timestamp_with_stable_ties():
    interactions = [
        make_interaction(eid="late", ts=10),
        make_interaction(eid="tie_first", ts=3),
        make_interaction(eid="tie_second", ts=3),
        make_interaction(eid="early", ts=1),
    ]
    seqs, _ = dataio.build_sequences(interactions, max_len=50)
    assert [e.exercise_id for e in seqs[0].events] == ["early", "tie_first", "tie_second", "late"]


def test_build_sequences_rejects_small_max_len():
    with pytest.raises(ValueError):
        dataio.build_sequences([make_interaction()], max_len=1)


def test_vocabulary_round_trip_and_unknown():
    _, vocab = dataio.build_sequences([make_interaction(eid=f"p{i}", ts=i) for i in range(5)])
    assert vocab.n_exercises + 2 == 7
    # Index i decodes to ids()[i - 2]; 0 (padding) and 1 (unknown) to none.
    for i, eid in enumerate(vocab.ids(), start=2):
        assert vocab.encode(eid) == i
    assert vocab.encode_all(vocab.ids()).tolist() == list(range(2, 7))
    assert vocab.encode("never-seen") == dataio.UNKNOWN_INDEX


def test_table_columns_are_encoded_when_the_table_is_built():
    statuses = [*dataio.STATUSES, "judge_crashed"]
    log = [make_interaction(lid=f"u{i % 3}", eid=f"p{i % 4}", ts=-i, status=statuses[i % len(statuses)],
                            t=[0, 1, 2**31 - 1, 2**31, 10**30][i % 5], m=[7, 0, 2**40, 3, 2**32 - 1][i % 5])
           for i in range(20)]
    seqs, vocab = dataio.build_sequences(log, max_len=3)
    table = seqs[0].table
    index = {eid: i for i, eid in enumerate(vocab.ids(), start=2)}
    expected = [
        (index[ev.exercise_id],
         dataio.STATUSES.index(ev.status if ev.status in dataio.STATUSES else "other"),
         min(31, (ev.exec_time_ms + 1).bit_length() - 1),
         min(31, (ev.exec_memory_kb + 1).bit_length() - 1))
        for ev in table.events
    ]
    assert table.columns.dtype == np.int64 and table.columns.T.tolist() == [list(row) for row in expected]
    with pytest.raises(ValueError, match="read-only"):
        table.columns[0, 0] = 5


def make_learner(lid, n):
    return [make_interaction(lid=lid, eid=f"p{i}", ts=i) for i in range(n)]


def split_counts(windows):
    return sum(len(mw.target_steps) for mw in windows)


def test_split_len10_ratio02_gives_two_test_targets():
    seqs, _ = dataio.build_sequences(make_learner("u", 10))
    train, test = dataio.split(seqs, ratio=0.2)
    assert split_counts(test) == 2
    assert split_counts(train) == 7  # 9 targets total
    # test targets are the chronologically last ones
    assert test[0].target_steps == (7, 8)


def test_split_len2_is_train_only():
    seqs, _ = dataio.build_sequences(make_learner("u", 2))
    train, test = dataio.split(seqs, ratio=0.2)
    assert split_counts(train) == 1 and test == []


def test_split_len5_ratio05_gives_three_test_targets():
    seqs, _ = dataio.build_sequences(make_learner("u", 5))
    train, test = dataio.split(seqs, ratio=0.5)
    assert split_counts(test) == 3


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.one_of(st.integers(1, 2), st.integers(1, 40)), min_size=1, max_size=5),
    max_len=st.integers(2, 12),
    ratio=st.one_of(st.floats(0.001, 0.999), st.sampled_from([1e-9, 0.01, 0.99, 1 - 1e-9])),
    data=st.data(),
)
def test_split_matches_the_per_target_enumeration(sizes, max_len, ratio, data):
    log = [make_interaction(lid=f"u{u}", eid=f"p{t % 3}", ts=t) for u, n in enumerate(sizes) for t in range(n)]
    seqs, _ = dataio.build_sequences(data.draw(st.permutations(log)), max_len)
    seqs = data.draw(st.permutations(seqs))  # split keeps the windows' given order too
    assert dataio.split(seqs, ratio) == split_by_targets(seqs, ratio)


def test_split_rejects_bad_ratio():
    with pytest.raises(ValueError):
        dataio.split([], ratio=1.0)


def test_split_spans_windows():
    # 6 events, windows of 3: targets live at steps 0,1 of each window.
    seqs, _ = dataio.build_sequences(make_learner("u", 6), max_len=3)
    train, test = dataio.split(seqs, ratio=0.4)  # ceil(2.4) = 3 test targets
    assert split_counts(test) == 3
    assert split_counts(train) == 1
    assert [mw.window.events[0].exercise_id for mw in test] == ["p0", "p3"]


def test_stats_all_accepted_single_attempts():
    interactions = [make_interaction(lid=f"u{i}", eid=f"p{i}", ts=i) for i in range(4)]
    s = dataio.stats(interactions)
    assert s.pass_rate == 1.0 and s.ape == 1.0
    assert s.learners == 4 and s.exercises == 4 and s.interactions == 4


def test_stats_sparsity_formula():
    # 2 learners x 3 exercises, 4 interactions: 1 - 4/6
    interactions = [
        make_interaction(lid="a", eid="p1", ts=0),
        make_interaction(lid="a", eid="p2", ts=1, status="wrong_answer"),
        make_interaction(lid="b", eid="p3", ts=0),
        make_interaction(lid="b", eid="p3", ts=1),
    ]
    s = dataio.stats(interactions)
    assert s.sparsity == pytest.approx(1.0 - 4.0 / 6.0)
    assert s.pass_rate == pytest.approx(0.75)
    assert s.ape == pytest.approx(4.0 / 3.0)


def test_stats_empty_input_raises():
    with pytest.raises(dataio.DataError):
        dataio.stats([])


def test_format_stats_is_tab_separated():
    s = dataio.stats([make_interaction()])
    text = dataio.format_stats("toy", s)
    header, row = text.strip().split("\n")
    assert header.split("\t") == list(dataio.STATS_COLUMNS)
    assert row.split("\t")[0] == "toy"
    assert row.split("\t")[4] == "0.00%"
