from __future__ import annotations

import numpy as np
import pytest

from pers import probe, training
from pers.dataio import build_sequences, split
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


def test_identical_learners_export_identical_rows():
    from dataclasses import replace

    from pers.dataio import LearnerSequence

    cp, seqs, source = trained_checkpoint()
    twin = [s for s in seqs if s.learner_id == "u0"]
    ghost_events = tuple(replace(ev, learner_id="ghost") for ev in twin[0].events)
    rows = probe.export_latents(cp, twin + [LearnerSequence("ghost", ghost_events)], source)
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
    result = probe.fit_probe(x, labels, seed=1)
    assert result.accuracy == 1.0
    assert result.classes == ("hi", "lo")
    assert result.n_train + result.n_test == 60


def test_probe_rejects_single_class():
    x = np.zeros((40, 3))
    with pytest.raises(ValueError, match="two classes"):
        probe.fit_probe(x, ["same"] * 40, min_per_class=1)


def test_probe_enforces_min_class_size():
    x, labels = separable_features(n=30)
    with pytest.raises(ValueError, match="need >="):
        probe.fit_probe(x, labels, min_per_class=20)


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
        assert probe.fit_probe(feats, labs, min_per_class=5).accuracy == 1.0
    with pytest.raises(ValueError):
        probe.dimension_features(rows, labels, "perception")
