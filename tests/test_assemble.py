"""assemble_batch against the per-event packing loop it replaced, the event
table it gathers from, and the code sources' interning."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import padded_bags, store_of, table_windows
from pers import codefeat, perscell, probe, tensorkit as tk, training
from pers.codefeat import CodeFeatureError, HashedTokenSource, PrecomputedSource
from pers.dataio import (
    STATUSES, Interaction, LearnerSequence, MaskedWindow, Vocabulary, build_sequences, split,
)
from pers.encoder import HyperParams

D_C = 3
HP = HyperParams(d_p=4, d_c=D_C, d_k=4, d_pos=4, d_ct=2, d_cm=2, d_cs=2, max_len=8, n_exercises=3)
CODES = ["!!!", "", "a a b", "for i in range(9)", "X = y + Y; x", "while while 7"]
REFS = [f"r{i}" for i in range(5)]
EXERCISES = ["p0", "p1", "p2", "never-seen"]
VOCAB = Vocabulary(EXERCISES[:3])
P0 = Vocabulary(["p0"])
EDGE_COUNTS = [0, 10**30] + [2**k + d for k in (1, 5, 30, 31, 32, 62, 63, 64) for d in (-1, 0, 1)]


def reference_assemble(windows, vocab: Vocabulary, code_source=None) -> dict:
    """The per-event loop assemble_batch once ran, with the bucket rules
    written out on Python ints: the oracle for every WindowBatch array.
    Step k's bag is bag k of the oracle's own store, "code_store"."""
    index = {eid: i + 2 for i, eid in enumerate(vocab.ids())}
    b = len(windows)
    length = max(len(mw.window) for mw in windows)
    arrays = {name: np.zeros((b, length), dtype=np.int64)
              for name in ("exercise_idx", "status_idx", "time_idx", "memory_idx", "targets")}
    arrays["valid"], arrays["loss_mask"] = np.zeros((b, length)), np.zeros((b, length))
    bags = []
    for row, mw in enumerate(windows):
        events = mw.window.events
        for t, ev in enumerate(events):
            arrays["exercise_idx"][row, t] = index.get(ev.exercise_id, 1)
            arrays["status_idx"][row, t] = STATUSES.index(ev.status if ev.status in STATUSES else "other")
            arrays["time_idx"][row, t] = min(31, (ev.exec_time_ms + 1).bit_length() - 1)
            arrays["memory_idx"][row, t] = min(31, (ev.exec_memory_kb + 1).bit_length() - 1)
            arrays["valid"][row, t] = 1.0
            if isinstance(code_source, HashedTokenSource):
                bags.append(code_source.weights(ev))
            elif code_source is not None:
                bags.append(((code_source.rows[ev.code_vec_ref],), (1.0,)))
        for t in mw.target_steps:
            arrays["targets"][row, t] = index.get(events[t + 1].exercise_id, 1)
            arrays["loss_mask"][row, t] = 1.0
    if code_source is not None:
        arrays["code_bags"] = np.full((b, length), -1, dtype=np.int64)
        arrays["code_bags"][np.nonzero(arrays["valid"])] = np.arange(len(bags))
        arrays["code_store"] = store_of(bags)
    return arrays


def assert_bytes_equal(batch, want: dict, windows) -> None:
    got = {name: a for name, a in vars(batch).items() if isinstance(a, np.ndarray)}
    want = dict(want)
    if "code_store" in want:
        # Bag numbers are each store's own: compare the bags they name.
        assert np.array_equal(got["code_bags"] < 0, want["code_bags"] < 0)
        for arrays, store in ((got, batch.code_source.store), (want, want.pop("code_store"))):
            arrays["code_ids"], arrays["code_weights"] = padded_bags(store, arrays.pop("code_bags").reshape(-1))
    assert got.keys() == want.keys()
    for name, a in want.items():
        assert (got[name].dtype, got[name].shape) == (a.dtype, a.shape), name
        assert got[name].tobytes() == a.tobytes(), name
    assert batch.learner_ids == [mw.window.learner_id for mw in windows]


counts = st.one_of(st.sampled_from(EDGE_COUNTS), st.integers(0, 10**6))
events = st.builds(
    lambda eid, status, t_ms, m_kb, code, ref: (eid, status, t_ms, m_kb, code, ref),
    st.sampled_from(EXERCISES), st.sampled_from(STATUSES + ("weird_verdict",)),
    counts, counts, st.sampled_from(CODES), st.sampled_from(REFS),
)


@st.composite
def window_lists(draw):
    """One to four windows of drawn events, laid out as one table under VOCAB."""
    specs = []
    for w in range(draw(st.integers(1, 4))):
        fields = draw(st.lists(events, min_size=1, max_size=6))
        evs = tuple(Interaction(f"u{w}", eid, t, status, t_ms, m_kb, code=code, code_vec_ref=ref)
                    for t, (eid, status, t_ms, m_kb, code, ref) in enumerate(fields))
        steps = draw(st.lists(st.integers(0, len(evs) - 2), unique=True)) if len(evs) > 1 else []
        specs.append((f"u{w}", evs, steps))
    return table_windows(VOCAB, specs)


@settings(max_examples=150, deadline=None)
@given(first=window_lists(), second=window_lists(), kind=st.sampled_from(["hashed", "precomputed", None]),
       buckets=st.sampled_from([1, 7, 64]))
def test_assemble_matches_per_event_loop_bitwise(first, second, kind, buckets):
    vocab = VOCAB
    if kind == "hashed":
        source = HashedTokenSource(buckets, D_C)
    elif kind == "precomputed":
        source = PrecomputedSource({ref: np.full(D_C, float(i)) for i, ref in enumerate(REFS)}, D_C)
    else:
        source = None
    # One source across two assembles: the second reuses and extends the
    # bags the first interned.
    for windows in (first, second, first):
        batch = perscell.assemble_batch(windows, vocab, HP, source)
        assert_bytes_equal(batch, reference_assemble(windows, vocab, source), windows)


def _windows(*codes_of_windows):
    """Windows u1, u2, ... of exercise p0 over the given code texts, one
    table under P0."""
    specs = []
    for w, codes in enumerate(codes_of_windows, start=1):
        evs = tuple(Interaction(f"u{w}", "p0", t, "accepted", 1, 1, code=c) for t, c in enumerate(codes))
        specs.append((f"u{w}", evs, range(len(evs) - 1)))
    return table_windows(P0, specs)


def test_each_distinct_text_is_tokenized_once_per_source(monkeypatch):
    calls = Counter()
    tokenize = codefeat.tokenize

    def counted(code):
        calls[code] += 1
        return tokenize(code)

    monkeypatch.setattr(codefeat, "tokenize", counted)
    windows = _windows(["x = 1", "x = 2", "x = 1", "!!!"], ["!!!", "x = 2", "y"])
    vocab = P0
    source = HashedTokenSource(16, D_C)
    for rows in ([0, 1], [1], [0, 1], [1, 0]):
        perscell.assemble_batch([windows[r] for r in rows], vocab, HP, source)
    assert calls == Counter({"x = 1": 1, "x = 2": 1, "!!!": 1, "y": 1})
    perscell.assemble_batch(windows, vocab, HP, HashedTokenSource(16, D_C))
    assert calls["x = 1"] == 2  # a new source interns afresh


def test_missing_code_raises_and_keeps_the_store_whole():
    source = HashedTokenSource(16, D_C)
    vocab = P0
    with pytest.raises(CodeFeatureError, match="no code text"):
        perscell.assemble_batch(_windows(["a b", "c", None, "d"]), vocab, HP, source)
    # The texts interned before the raise are usable, and the rest follow.
    windows = _windows(["c", "a b", "d", "a b e"])
    batch = perscell.assemble_batch(windows, vocab, HP, source)
    assert_bytes_equal(batch, reference_assemble(windows, vocab, source), windows)


def test_precomputed_store_is_built_once_and_missing_refs_raise():
    source = PrecomputedSource({ref: np.zeros(D_C) for ref in REFS}, D_C)
    store = source.store
    ids, weights, offsets = store
    assert ids.tolist() == list(range(5)) and weights.tolist() == [1.0] * 5 and offsets.tolist() == list(range(6))
    evs = [Interaction("u1", "p0", t, "accepted", 1, 1, code_vec_ref=r) for t, r in enumerate(["r3", "r0", "r3"])]
    assert source.bag_numbers(evs).tolist() == [3, 0, 3]
    assert source.store is store
    with pytest.raises(CodeFeatureError, match="'nope' not in vector table"):
        source.bag_numbers(evs + [Interaction("u1", "p0", 9, "accepted", 1, 1, code_vec_ref="nope")])
    with pytest.raises(CodeFeatureError, match="has no code_vec_ref"):
        source.bag_numbers([Interaction("u1", "p0", 9, "accepted", 1, 1)])


def test_target_step_without_a_following_event_is_rejected():
    [window] = _windows(["a", "b"])
    bad = MaskedWindow(window.window, (1,))
    with pytest.raises(ValueError, match="no following event"):
        perscell.assemble_batch([bad], P0, HP)


@st.composite
def loaded_windows(draw):
    """Masked windows as `load_dataset` cuts them, all rows of one event
    table, some of them drawn again or in another order."""
    fields = draw(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3), events),
                           min_size=1, max_size=30))
    log = [Interaction(lid, eid, ts, status, t_ms, m_kb, code=code, code_vec_ref=ref)
           for lid, ts, (eid, status, t_ms, m_kb, code, ref) in fields]
    sequences, vocab = build_sequences(log, draw(st.integers(2, 5)))
    train, test = split(sequences, draw(st.sampled_from([0.2, 0.5])))
    pool = train + test + [MaskedWindow(seq, ()) for seq in sequences]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    return [pool[i] for i in picks], vocab


@settings(max_examples=150, deadline=None)
@given(loaded=loaded_windows(), kind=st.sampled_from(["hashed", "precomputed", None]))
def test_table_gathers_match_per_event_loop_bitwise(loaded, kind):
    windows, vocab = loaded
    assert all(mw.window.table is windows[0].window.table for mw in windows)
    # The probe export passes the checkpoint's vocabulary: an equal copy.
    vocabs = [vocab, Vocabulary(vocab.ids())]
    if kind == "hashed":
        source = HashedTokenSource(7, D_C)
    elif kind == "precomputed":
        source = PrecomputedSource({ref: np.full(D_C, float(i)) for i, ref in enumerate(REFS)}, D_C)
    else:
        source = None
    # Repeats read the bag numbers the table kept.
    for v in vocabs + vocabs[::-1]:
        for batch in (windows, windows[::-1]):
            got = perscell.assemble_batch(batch, v, HP, source)
            assert_bytes_equal(got, reference_assemble(batch, v, source), batch)


LOG = [Interaction("a", f"p{t % 3}", t, "accepted", 1, 1) for t in range(5)]


def test_windows_of_two_tables_are_refused():
    (first, *_), vocab = build_sequences(LOG, max_len=2)
    (second, *_), _ = build_sequences(LOG, max_len=2)
    with pytest.raises(ValueError, match="more than one event table"):
        perscell.assemble_batch([MaskedWindow(first, ()), MaskedWindow(second, ())], vocab, HP)
    model = perscell.init_model_params(np.random.default_rng(0), HP)
    cp = training.Checkpoint(model, tk.AdamState(), training.TrainConfig(), vocab, [])
    with pytest.raises(ValueError, match="more than one event table"):
        probe.export_latents(cp, [first, second])


def test_a_vocabulary_other_than_the_tables_is_refused():
    sequences, vocab = build_sequences(LOG, max_len=2)
    windows = [MaskedWindow(seq, ()) for seq in sequences]
    for other in (Vocabulary(["p1", "p0", "p2"]), Vocabulary(["p0", "p1"]), Vocabulary(["p0", "p1", "p2", "p3"])):
        assert other != vocab
        with pytest.raises(ValueError, match="vocabulary differs"):
            perscell.assemble_batch(windows, other, HP)


def test_loaded_windows_are_row_ranges_of_one_table():
    log = [Interaction(lid, f"p{t % 3}", ts, "accepted", 1, 1) for t, (lid, ts) in
           enumerate([("b", 5), ("a", 2), ("b", 1), ("a", 2), ("a", 0), ("b", 1)])]
    sequences, _ = build_sequences(log, max_len=2)
    table = sequences[0].table
    # Learners in first-seen order, then timestamp, then file order.
    assert [(ev.learner_id, ev.timestamp) for ev in table.events] == [
        ("b", 1), ("b", 1), ("b", 5), ("a", 0), ("a", 2), ("a", 2)]
    assert table.events[2] is log[0] and table.events[0] is log[2]
    assert all(seq.table is table for seq in sequences)
    assert [(seq.start, seq.stop) for seq in sequences] == [(0, 2), (2, 3), (3, 5), (5, 6)]
    assert [seq.events for seq in sequences] == [table.events[seq.start : seq.stop] for seq in sequences]
    # Each learner's windows tile its rows: one after another, no gap, no overlap.
    for lid in ("b", "a"):
        mine = [seq for seq in sequences if seq.learner_id == lid]
        rows = [r for seq in mine for r in range(seq.start, seq.stop)]
        assert rows == [r for r, ev in enumerate(table.events) if ev.learner_id == lid]


def test_windows_are_equal_when_they_are_the_same_rows_of_one_table():
    sequences, vocab = build_sequences(LOG, max_len=2)
    again, _ = build_sequences(LOG, max_len=2)
    table = sequences[0].table
    assert table.vocab is vocab
    for seq, twin in zip(sequences, again):
        same = LearnerSequence(seq.learner_id, table, seq.start, seq.stop)
        assert same == seq and hash(same) == hash(seq)
        assert twin.events == seq.events and twin != seq  # the same events in another table
    assert sequences[0] != sequences[1]
    assert LearnerSequence("b", table, 0, 2) != sequences[0]
    with pytest.raises(AttributeError):
        sequences[0].start = 1


def test_assemble_asks_a_source_once_per_table_row():
    log = [Interaction("a", "p0", t, "accepted", 1, 1, code=f"x{t % 2}") for t in range(6)]
    sequences, vocab = build_sequences(log, max_len=3)
    source = HashedTokenSource(16, D_C)
    asked = []
    bag_numbers = source.bag_numbers
    source.bag_numbers = lambda evs: (asked.append(len(evs)), bag_numbers(evs))[1]
    windows = [MaskedWindow(seq, ()) for seq in sequences]
    for batch in ([windows[0]], windows, windows[::-1]):
        perscell.assemble_batch(batch, vocab, HP, source)
    assert asked == [3, 3]  # the second window's rows only; then nothing new


def test_one_long_submission_costs_its_entries_not_a_padded_batch():
    # 20,000 distinct tokens fill nearly all 2,048 buckets; padding every step's
    # bag to that size would take 64 * 50 * 2,048 * 16 bytes, about 100 MB.
    text = " ".join(f"t{i}" for i in range(20000))
    windows = _windows(*([text if w == t == 0 else f"x = {t % 3}" for t in range(50)] for w in range(64)))
    source = HashedTokenSource(2048, D_C)
    batch = perscell.assemble_batch(windows, P0, HP, source)
    assert batch.code_bags.shape == (64, 50)
    assert sum(a.nbytes for a in vars(batch).values() if isinstance(a, np.ndarray)) < 2**20
    assert np.diff(source.store[2]).max() > 2000
