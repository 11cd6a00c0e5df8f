from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import table_windows
from pers import perscell, probe, tensorkit as tk, training
from pers.codefeat import HashedTokenSource
from pers.dataio import build_sequences, split
from test_assemble import reference_assemble
from test_training import toy_corpus, toy_hp


def trained_checkpoint(epochs=2):
    interactions, source = toy_corpus(n_learners=6, n_exercises=8, events_per=10)
    seqs, vocab = build_sequences(interactions, max_len=50)
    train_w, _ = split(seqs, ratio=0.2)
    hp = toy_hp(vocab.n_exercises, d_k=8)
    config = training.TrainConfig(epochs=epochs, batch_size=8, seed=2, dropout=0.0)
    cp = training.train(train_w, vocab, hp, config, source)
    return cp, seqs, source


def test_export_one_row_per_learner_with_lengths():
    cp, seqs, source = trained_checkpoint()
    rows = probe.export_latents(cp, seqs, source)
    assert len(rows) == 6
    for row in rows:
        assert row.length == 10
        assert row.pa.shape == (8,) and row.ps.shape == (8,) and row.us.shape == (8,)


def test_export_frees_each_batch_run_before_the_next(watch_runs):
    cp, seqs, source = trained_checkpoint()
    runs = watch_runs(probe)
    rows = probe.export_latents(cp, seqs, source, batch_size=1)
    assert len(runs) == len(rows) == 6


def test_identical_learners_export_identical_rows():
    cp, seqs, source = trained_checkpoint()
    events = tuple(ev for s in seqs if s.learner_id == "u0" for ev in s.events)
    ghost_events = tuple(replace(ev, learner_id="ghost") for ev in events)
    windows = table_windows(cp.vocab, [("u0", events, ()), ("ghost", ghost_events, ())])
    rows = probe.export_latents(cp, [mw.window for mw in windows], source)
    a, b = rows[0], rows[1]
    assert a.learner_id == "u0" and b.learner_id == "ghost"
    assert a.pa.tobytes() == b.pa.tobytes()
    assert a.ps.tobytes() == b.ps.tobytes()
    assert a.us.tobytes() == b.us.tobytes()


def test_export_round_trip_and_determinism(tmp_path):
    cp, seqs, source = trained_checkpoint()
    rows = probe.export_latents(cp, seqs, source)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    probe.write_latents(p1, rows)
    probe.write_latents(p2, probe.export_latents(cp, seqs, source))
    assert p1.read_bytes() == p2.read_bytes()
    header, *lines = [line.split("\t") for line in p1.read_text().splitlines()]
    assert header[:2] == ["learner_id", "length"] and header[-1] == "us_7"
    assert [line[0] for line in lines] == [r.learner_id for r in rows]
    for orig, line in zip(rows, lines):
        assert int(line[1]) == orig.length
        back = np.array([float(x) for x in line[2:]])
        np.testing.assert_allclose(back, np.concatenate([orig.pa, orig.ps, orig.us]), rtol=1e-8)


def test_export_step_latents_covers_all_events():
    cp, seqs, source = trained_checkpoint()
    steps = probe.export_step_latents(cp, seqs, source)
    by_learner = {}
    for lid, t, _, _, _ in steps:
        by_learner.setdefault(lid, []).append(t)
    assert set(by_learner) == {f"u{i}" for i in range(6)}
    for lid, ts in by_learner.items():
        assert ts == list(range(10))


def separable_features(n=60, d=6, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    labels = ["hi" if i < n // 2 else "lo" for i in range(n)]
    x[: n // 2, 0] += gap
    return x, labels


def test_probe_perfectly_separable_reaches_one():
    x, labels = separable_features()
    assert probe.mean_probe_accuracy(x, labels, seed=1, splits=1) == 1.0
    assert probe._check_classes(np.asarray(labels), 20) == ("hi", "lo")
    fits = probe._fit_stack(x, [np.asarray(labels)], [1])
    assert fits.n_train + fits.n_test == 60


def test_probe_rejects_single_class():
    x = np.zeros((40, 3))
    with pytest.raises(ValueError, match="two classes"):
        probe.mean_probe_accuracy(x, ["same"] * 40, splits=1, min_per_class=1)


def test_probe_enforces_min_class_size():
    x, labels = separable_features(n=30)
    with pytest.raises(ValueError, match="need >="):
        probe.mean_probe_accuracy(x, labels, splits=1, min_per_class=20)


def test_permuted_labels_sit_near_chance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, 16))
    labels = ["a"] * 100 + ["b"] * 100
    accs = probe.permutation_null(x, labels, trials=20, seed=3)
    assert len(accs) == 20
    mean = float(np.mean(accs))
    assert 0.4 <= mean <= 0.6
    assert max(accs) <= 0.65


def test_probe_dimension_selects_right_latent():
    rng = np.random.default_rng(7)
    rows = []
    labels = {}
    for i in range(60):
        processing = "active" if i % 2 else "reflective"
        understanding = "sequential" if i < 30 else "global"
        ps = rng.normal(size=4) + (3.0 if processing == "active" else -3.0)
        us = rng.normal(size=4) + (3.0 if understanding == "sequential" else -3.0)
        lid = f"u{i}"
        rows.append(probe.LatentRow(lid, 5, rng.normal(size=4), ps, us))
        labels[lid] = (processing, understanding)
    for dimension in ("processing", "understanding"):
        feats, labs = probe.dimension_features(rows, labels, dimension)
        assert probe.mean_probe_accuracy(feats, labs, splits=1, min_per_class=5) == 1.0
    with pytest.raises(ValueError):
        probe.dimension_features(rows, labels, "perception")


# --- batched descent against the per-fit loop --------------------------------


def loop_fit(features, labels, seed, l2=0.1, lr=0.3, iterations=400):
    """The per-fit descent the batched one replaced: (w, b, accuracy)."""
    features = np.asarray(features, dtype=np.float64)
    labels_arr = np.asarray(labels)
    classes = sorted(np.unique(labels_arr).tolist())
    y = (labels_arr == classes[1]).astype(np.float64)
    train_idx, test_idx = probe._stratified_split(labels_arr, np.random.default_rng(seed))
    mu = features[train_idx].mean(axis=0)
    sd = features[train_idx].std(axis=0)
    sd[sd < 1e-8] = 1.0
    x_train = (features[train_idx] - mu) / sd
    x_test = (features[test_idx] - mu) / sd
    y_train = y[train_idx]
    n, d = x_train.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(iterations):
        z = x_train @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y_train
        w -= lr * (x_train.T @ err / n + l2 * w)
        b -= lr * float(err.mean())
    pred = (x_test @ w + b) > 0.0
    return w, b, float((pred == (y[test_idx] > 0.5)).mean())


def loop_permutation_null(features, labels, trials, seed, splits):
    labels_arr = np.asarray(labels)
    out = []
    for trial in range(trials):
        permuted = labels_arr[np.random.default_rng([seed, trial]).permutation(len(labels_arr))]
        out.append(float(np.mean([loop_fit(features, permuted, seed + s)[2] for s in range(splits)])))
    return out


@settings(max_examples=25, deadline=None)
@given(
    n_a=st.integers(5, 30),
    n_b=st.integers(5, 30),
    d=st.integers(1, 9),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 10_000),
    splits=st.integers(1, 4),
    trials=st.integers(1, 3),
)
def test_batched_descent_matches_per_fit_loop(n_a, n_b, d, data_seed, seed, splits, trials):
    rng = np.random.default_rng(data_seed)
    x = rng.normal(size=(n_a + n_b, d)) * rng.uniform(0.1, 10.0, size=d)
    x[:, 0] += rng.uniform(0.0, 2.0) * (np.arange(n_a + n_b) < n_a)
    labels = np.array(["a"] * n_a + ["b"] * n_b)[rng.permutation(n_a + n_b)]
    seeds = [seed + s for s in range(splits)]
    permuted = [labels[rng.permutation(len(labels))] for _ in range(trials)]
    vectors = [labels, *permuted]

    fits = probe._fit_stack(x, vectors, seeds)
    assert fits.weights.shape == (len(vectors), splits, d)
    for i, vec in enumerate(vectors):
        for j, s in enumerate(seeds):
            w, b, acc = loop_fit(x, vec, s)
            scale = max(np.abs(w).max(), abs(b))
            assert np.abs(fits.weights[i, j] - w).max() <= 1e-12 * scale
            assert abs(fits.bias[i, j] - b) <= 1e-12 * scale
            assert fits.accuracy[i, j] == acc

    accs = [loop_fit(x, labels, s)[2] for s in seeds]
    assert probe.mean_probe_accuracy(x, labels, seed=seed, splits=splits, min_per_class=5) == float(np.mean(accs))
    assert probe.permutation_null(x, labels, trials, seed, 5, splits) == loop_permutation_null(
        x, labels, trials, seed, splits
    )


def test_single_fit_is_element_zero_of_a_larger_stack():
    x, labels = separable_features(n=48, d=5, gap=0.7, seed=2)
    labels_arr = np.asarray(labels)
    alone = probe._fit_stack(x, [labels_arr], [9])
    stacked = probe._fit_stack(x, [labels_arr, labels_arr[::-1]], [9, 10, 11])
    assert alone.weights[0, 0].tobytes() == stacked.weights[0, 0].tobytes()
    assert alone.bias[0, 0] == stacked.bias[0, 0]
    assert alone.accuracy[0, 0] == stacked.accuracy[0, 0]
    assert probe.mean_probe_accuracy(x, labels, seed=9, splits=1) == stacked.accuracy[0, 0]
    assert (alone.n_train, alone.n_test) == (stacked.n_train, stacked.n_test)


@pytest.mark.parametrize(
    "fn, over",
    [("mean_probe_accuracy", {"splits": 0}), ("permutation_null", {"trials": 0}), ("permutation_null", {"splits": -1})],
)
def test_probe_counts_below_one_rejected(fn, over):
    x, labels = separable_features()
    with pytest.raises(ValueError, match="must be at least 1"):
        getattr(probe, fn)(x, labels, **over)


@pytest.fixture(scope="module")
def windowed_corpus():
    """Learners of 11 events in three windows each, under both code
    sources, with an untrained model apiece."""
    interactions, vectors = toy_corpus(n_learners=5, n_exercises=8, events_per=11)
    interactions = [replace(ev, code=f"x = {ev.code_vec_ref}") for ev in interactions]
    cases = []
    for source, buckets in ((vectors, None), (HashedTokenSource(16, vectors.dim), 16)):
        seqs, vocab = build_sequences(interactions, max_len=4)
        hp = toy_hp(vocab.n_exercises, d_k=8)
        model = perscell.init_model_params(np.random.default_rng(3), hp, code_buckets=buckets)
        cp = training.Checkpoint(model, tk.AdamState(), training.TrainConfig(), vocab, [])
        cases.append((cp, seqs, source))
    return cases


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_export_of_any_window_subset_matches_the_per_event_history(windowed_corpus, data):
    """Histories read as row ranges of the event table give, bit for bit,
    the latents of each learner's events from the first start to the last
    stop of its picked windows, in any order, written out one by one."""
    cp, seqs, source = data.draw(st.sampled_from(windowed_corpus))
    picked = data.draw(st.lists(st.sampled_from(seqs), min_size=1, max_size=12, unique_by=id))
    got = probe.export_step_latents(cp, picked, source)

    order = list(dict.fromkeys(s.learner_id for s in picked))
    events = seqs[0].table.events
    given = {lid: [s for s in picked if s.learner_id == lid] for lid in order}
    histories = table_windows(cp.vocab, [
        (lid, events[min(s.start for s in mine) : max(s.stop for s in mine)], ()) for lid, mine in given.items()
    ])
    arrays = reference_assemble(histories, cp.vocab, source)
    oracle_source = copy.copy(source)  # the source's table, the oracle's bags
    oracle_source.store = arrays.pop("code_store")
    batch = perscell.WindowBatch(**arrays, learner_ids=order, code_source=oracle_source)
    run = perscell.run_window(cp.model.frozen(), batch)
    want = [(lid, t, *states) for i, lid in enumerate(order) for t, states in enumerate(zip(*run.row_states(i)))]
    assert [(lid, t) for lid, t, *_ in got] == [(lid, t) for lid, t, *_ in want]
    for g, w in zip(got, want):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(g[2:], w[2:]))
    finals = probe.export_latents(cp, picked, source)
    assert [(r.learner_id, r.length) for r in finals] == [(h.window.learner_id, len(h.window)) for h in histories]


def test_a_learners_windows_in_reverse_order_export_the_same_bits(windowed_corpus):
    for cp, seqs, source in windowed_corpus:
        mine = [s for s in seqs if s.learner_id == seqs[0].learner_id]
        assert len(mine) == 3
        forward, backward = (probe.export_step_latents(cp, windows, source) for windows in (mine, mine[::-1]))
        assert [(lid, t) for lid, t, *_ in backward] == [(lid, t) for lid, t, *_ in forward]
        for f, b in zip(forward, backward):
            assert all(x.tobytes() == y.tobytes() for x, y in zip(f[2:], b[2:]))
        [final], [final_back] = (probe.export_latents(cp, windows, source) for windows in (mine, mine[::-1]))
        assert final.length == final_back.length == 11
        for name in ("pa", "ps", "us"):
            assert getattr(final, name).tobytes() == getattr(final_back, name).tobytes()
        assert probe.export_latents(cp, [], source) == []
