from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import rank_event, source_for, table_windows, vocab_for, window_spec
from pers import evalrank, perscell, probe, tensorkit as tk, training
from pers.dataio import build_sequences, split
from pers.encoder import HyperParams
from test_training import toy_corpus, toy_hp


def masked(scores):
    out = np.asarray(scores, dtype=float)
    out[:2] = -np.inf
    return out


def test_rank_unique_max_is_one():
    scores = masked([0, 0, 1.0, 5.0, 2.0])
    assert rank_event(scores, 3) == 1


def test_rank_all_equal_smallest_index_wins():
    scores = masked([0, 0, 3.0, 3.0, 3.0])
    assert rank_event(scores, 2) == 1
    assert rank_event(scores, 3) == 2
    assert rank_event(scores, 4) == 3


def test_rank_rejects_masked_target():
    with pytest.raises(ValueError):
        rank_event(masked([0, 0, 1.0]), 1)


def test_rank_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = masked(rng.normal(size=12))
        # Oracle: stable sort by (-score, index); rank = position of target.
        order = sorted(range(2, 12), key=lambda j: (-scores[j], j))
        for target in range(2, 12):
            assert rank_event(scores, target) == order.index(target) + 1


def test_rank_invariant_under_constant_shift():
    rng = np.random.default_rng(1)
    scores = masked(rng.normal(size=10))
    shifted = scores + 7.5
    shifted[:2] = -np.inf
    for target in range(2, 10):
        assert rank_event(scores, target) == rank_event(shifted, target)


@st.composite
def score_rows(draw):
    # Few integer levels, so ties are common, columns 0-1 included; or
    # mostly one level, so most rows tie their target many times over.
    m = draw(st.integers(3, 9))
    n = draw(st.integers(1, 40))
    levels = st.integers(-2, 2).map(float) | st.sampled_from([0.0, 0.0, 0.0, 0.0, 1.0])
    logits = np.array(draw(st.lists(st.lists(levels, min_size=m, max_size=m), min_size=n, max_size=n)))
    targets = draw(st.lists(st.sampled_from([2, m - 1]) | st.integers(2, m - 1), min_size=n, max_size=n))
    return logits, np.array(targets, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(score_rows(), st.integers(1, 5) | st.just(evalrank.RANK_BLOCK))
def test_block_ranks_equal_rank_event_row_by_row(rows, block):
    logits, targets = rows
    m = logits.shape[1]
    # Head rows equal to the logits under an identity output layer.
    got = evalrank._target_ranks(logits, np.eye(m), np.zeros(m), targets, block)
    assert got.tolist() == [rank_event(masked(row), int(t)) for row, t in zip(logits, targets)]


def test_block_ranks_reject_masked_target():
    with pytest.raises(ValueError, match="masked"):
        evalrank._target_ranks(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(4), np.array([2, 1]))


@st.composite
def output_layers(draw):
    # Small integers: every product and sum is exact, so each blocking of
    # the rows gives the logits of the one full product bit for bit. Most
    # entries are 0 or 1, so rows tie their target often.
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    d = draw(st.integers(1, 3))
    m = draw(st.integers(3, 9))
    levels = st.sampled_from([0.0, 0.0, 0.0, 1.0, 1.0, -1.0, 2.0])
    pre = draw(arrays(np.float64, (n, d), elements=levels))
    w = draw(arrays(np.float64, (d, m), elements=levels))
    b = draw(arrays(np.float64, (m,), elements=levels))
    targets = draw(arrays(np.int64, (n,), elements=st.sampled_from([2, m - 1]) | st.integers(2, m - 1)))
    return pre, w, b, targets


@settings(max_examples=150, deadline=None)
@given(output_layers())
def test_blocked_logit_ranks_equal_rank_event_on_the_full_product(layer):
    pre, w, b, targets = layer
    logits = pre @ w + b
    got = evalrank._target_ranks(pre, w, b, targets)
    assert got.tolist() == [rank_event(masked(row), int(t)) for row, t in zip(logits, targets)]


@settings(max_examples=60, deadline=None)
@given(output_layers(), st.data(), st.sampled_from([np.inf, -np.inf, np.nan]))
def test_blocked_ranks_raise_on_a_non_finite_logit_in_any_block(layer, data, bad):
    pre, w, b, targets = layer
    row, col = data.draw(st.integers(0, len(pre) - 1)), data.draw(st.integers(0, pre.shape[1] - 1))
    pre[row, col] = bad
    w[col, 0] = 1.0  # so at least that row's logit 0 is non-finite
    with np.errstate(invalid="ignore"), pytest.raises(training.DivergenceError, match="non-finite logits"):
        evalrank._target_ranks(pre, w, b, targets)


def test_metrics_single_event_rank_three():
    m = evalrank.metrics_at_k([3])
    assert m.hr == 1.0
    assert m.mrr == pytest.approx(1.0 / 3.0)
    assert m.ndcg == pytest.approx(0.5)  # 1/log2(4)


def test_metrics_rank_beyond_k_contributes_zero():
    m = evalrank.metrics_at_k([12], k=10)
    assert (m.hr, m.mrr, m.ndcg) == (0.0, 0.0, 0.0)


def test_metrics_match_bruteforce_definitions():
    rng = np.random.default_rng(2)
    ranks = rng.integers(1, 40, size=100).tolist()
    m = evalrank.metrics_at_k(ranks)
    hr = sum(1 for r in ranks if r <= 10) / len(ranks)
    mrr = sum(1.0 / r for r in ranks if r <= 10) / len(ranks)
    ndcg = sum(1.0 / np.log2(r + 1) for r in ranks if r <= 10) / len(ranks)
    assert abs(m.hr - hr) < 1e-12 and abs(m.mrr - mrr) < 1e-12 and abs(m.ndcg - ndcg) < 1e-12


def test_metric_ordering_mrr_ndcg_hr():
    for r in range(1, 30):
        h, m, g = evalrank.contributions(r)
        assert m <= g <= h
    metrics = evalrank.metrics_at_k(list(range(1, 30)))
    assert metrics.mrr <= metrics.ndcg <= metrics.hr
    assert 0.0 <= metrics.mrr <= 1.0 and 0.0 <= metrics.hr <= 1.0


def test_metrics_empty_input():
    with pytest.raises(ValueError):
        evalrank.metrics_at_k([])


def trained_toy(tmp_path=None, epochs=40):
    interactions, source = toy_corpus(n_learners=8, n_exercises=10, events_per=12)
    seqs, vocab = build_sequences(interactions, max_len=50)
    train_w, test_w = split(seqs, ratio=0.25)
    hp = toy_hp(vocab.n_exercises, d_k=12)
    config = training.TrainConfig(epochs=epochs, batch_size=8, seed=11, lr=0.01, dropout=0.0)
    cp = training.train(train_w, vocab, hp, config, source)
    return cp, train_w, test_w, vocab, source


def test_evaluate_deterministic_and_wellformed():
    cp, _, test_w, vocab, source = trained_toy(epochs=3)
    m1, results1 = evalrank.evaluate(cp, test_w, vocab, source)
    m2, results2 = evalrank.evaluate(cp, test_w, vocab, source)
    assert m1 == m2
    assert [r.rank for r in results1] == [r.rank for r in results2]
    assert m1.events == len(results1) > 0
    for r in results1:
        assert r.rank >= 1
        hit, reciprocal, gain = evalrank.contributions(r.rank)
        assert 0.0 <= reciprocal <= gain <= hit <= 1.0


def test_evaluate_frees_each_batch_run_before_the_next(watch_runs):
    cp, _, test_w, vocab, source = trained_toy(epochs=1)
    runs = watch_runs(evalrank)
    evalrank.evaluate(cp, test_w, vocab, source, batch_size=1)
    assert len(runs) == len(test_w) > 1


def test_evaluate_peak_memory_stays_below_a_quarter_of_the_logit_block():
    # A catalog of 5,000 and 2,940 targets in one eval batch: the whole
    # (N, M) float64 logit block would be about 118 MB.
    catalog = [f"p{i}" for i in range(5000)]
    vocab = vocab_for(catalog)
    rng = np.random.default_rng(3)
    windows = table_windows(vocab, [window_spec(rng.choice(catalog, size=50).tolist(), lid=f"u{i}") for i in range(60)])
    hp = HyperParams(d_p=8, d_c=4, d_k=8, d_ct=2, d_cm=2, d_cs=2, max_len=50, n_exercises=vocab.n_exercises)
    model = perscell.init_model_params(np.random.default_rng(4), hp, variant="ERS")
    cp = training.Checkpoint(model, tk.AdamState(), training.TrainConfig(variant="ERS"), vocab, [])
    n_targets = sum(len(w.target_steps) for w in windows)
    block_bytes = n_targets * hp.vocab_size * 8
    tracemalloc.start()
    try:
        metrics, _ = evalrank.evaluate(cp, windows, vocab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert metrics.events == n_targets and n_targets * hp.vocab_size > 14_000_000
    assert peak < block_bytes / 4, f"peak {peak / 2**20:.1f} MB for a {block_bytes / 2**20:.1f} MB logit block"


def test_inference_builds_no_tape(watch_tensors):
    cp, train_w, test_w, vocab, source = trained_toy(epochs=1)
    seqs = [mw.window for mw in train_w + test_w]
    built = watch_tensors()
    metrics, _ = evalrank.evaluate(cp, test_w, vocab, source)
    assert metrics.events > 0
    assert probe.export_latents(cp, seqs, source) and probe.export_step_latents(cp, seqs, source)
    assert built and all(t.parents == () and t.vjp is None for t in built)


def test_evaluate_vocabulary_mismatch():
    cp, _, test_w, vocab, source = trained_toy(epochs=1)
    other_vocab = vocab_for(["q1", "q2", "q3"])
    with pytest.raises(evalrank.VocabularyMismatch):
        evalrank.evaluate(cp, test_w, other_vocab, source)


def test_evaluate_overfit_train_split_hits_high_hr():
    cp, train_w, _, vocab, source = trained_toy(epochs=60)
    metrics, _ = evalrank.evaluate(cp, train_w, vocab, source)
    assert metrics.hr >= 0.95


def test_report_formats():
    rows = [
        evalrank.AblationRow("PERS", evalrank.Metrics(0.9, 0.5, 0.6, 100)),
        evalrank.AblationRow("ERS", evalrank.Metrics(0.8, 0.4, 0.5, 100)),
    ]
    tsv = evalrank.report_tsv(rows)
    lines = tsv.strip().split("\n")
    assert lines[0].split("\t") == list(evalrank.REPORT_HEADER)
    assert lines[1].split("\t")[0] == "PERS"
    payload = json.loads(evalrank.report_json(rows))
    assert payload["rows"][0]["hr"] == 0.9
    assert payload["rows"][1]["variant"] == "ERS"


def test_ablate_runs_all_variants_shared_seed():
    interactions, source = toy_corpus(n_learners=6, n_exercises=8, events_per=8)
    seqs, vocab = build_sequences(interactions, max_len=50)
    train_w, test_w = split(seqs, ratio=0.25)
    hp = toy_hp(vocab.n_exercises, d_k=8)
    config = training.TrainConfig(epochs=2, batch_size=8, seed=5, dropout=0.0)
    rows = evalrank.ablate(train_w, test_w, vocab, hp, config, source)
    assert [r.variant for r in rows] == list(perscell.VARIANTS)
    for row in rows:
        assert 0.0 <= row.metrics.hr <= 1.0
        assert row.metrics.events == rows[0].metrics.events
    # shared seed: repeating a variant reproduces its row exactly
    again = evalrank.ablate(train_w, test_w, vocab, hp, config, source, variants=("PERS",))
    assert again[0].metrics == rows[0].metrics
