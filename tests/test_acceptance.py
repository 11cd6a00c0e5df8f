"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to stream them).

The style-recovery and ablation criteria train real models on the
simulated population and dominate the suite's runtime; their configs are
fixtures pinned here, not tunables.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import table_windows, uniform_mix
from pers import dataio, evalrank, perscell, probe, simlearner, training
from pers.codefeat import PrecomputedSource
from pers.dataio import Interaction
from pers.encoder import HyperParams, positional_encoding


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})", flush=True)


# --- criterion 1: gradient fidelity -------------------------------------------


def test_c1_gradient_fidelity():
    t0 = time.time()
    errors = training.run_gradcheck(d_k=8, n_exercises=10, steps=3, seed=0)
    elapsed = time.time() - t0
    expected_names = set(
        ["E_p", "status_table", "time_table", "memory_table"]
        + [f"W_{i}" for i in range(1, 13)]
        + [f"b_{i}" for i in range(1, 13) if i != 10]
    )
    assert set(errors) == expected_names
    worst = max(errors.values())
    assert worst < 1e-4, errors
    assert elapsed < 60.0
    report("c1 gradient-fidelity", f"max rel err {worst:.2e} over {len(errors)} tensors in {elapsed:.1f}s")


# --- criterion 2: statistics oracle --------------------------------------------

# Published corpus statistics of public online-judge datasets:
# (learners, exercises, interactions, sparsity %). The sparsity column is
# derivable from the three counts, which makes it an exact oracle.
REFERENCE_CORPORA = {
    "BePKT": (907, 553, 75_993, 84.85),
    "CodeNet": (154_179, 4_049, 13_916_868, 97.77),
    "CodeNet-time": (26_270, 2_465, 811_465, 98.75),
    "CodeNet-len": (1_107, 3_308, 605_661, 83.46),
}


def counted_stream(n_learners: int, n_exercises: int, n_interactions: int):
    """Interactions with exactly the requested learner/exercise/event
    counts. Each learner sticks to one exercise, so the distinct-pair set
    stays small and the stream can be consumed at full-corpus scale."""
    learners = [f"u{i}" for i in range(n_learners)]
    exercises = [f"p{i}" for i in range(n_exercises)]
    for i in range(n_interactions):
        lid = learners[i % n_learners]
        eid = exercises[i % n_exercises] if i < n_exercises else exercises[(i % n_learners) % n_exercises]
        yield Interaction(lid, eid, i, "accepted", 1, 1)


def test_c2_statistics_oracle(tmp_path):
    measured = {}
    for name, (u, e, i, expected_pct) in REFERENCE_CORPORA.items():
        s = dataio.stats(counted_stream(u, e, i))
        assert s.learners == u and s.exercises == e and s.interactions == i
        assert abs(100.0 * s.sparsity - expected_pct) < 0.01, name
        measured[name] = 100.0 * s.sparsity

    # The smallest corpus additionally round-trips through a real log file.
    u, e, i, expected_pct = REFERENCE_CORPORA["BePKT"]
    path = tmp_path / "bepkt_counts.jsonl"
    dataio.write_log(path, counted_stream(u, e, i))
    parsed, issues = dataio.parse_log(path)
    assert issues == []
    s = dataio.stats(parsed)
    assert abs(100.0 * s.sparsity - expected_pct) < 0.01
    report("c2 statistics-oracle", ", ".join(f"{k}={v:.2f}%" for k, v in measured.items()))


# --- criterion 3: positional encoding ------------------------------------------


def test_c3_positional_encoding():
    for d_pos in (4, 128):
        for t in (0, 1, 49):
            out = positional_encoding(t, d_pos)
            for i in range(d_pos // 2):
                angle = t / (10000.0 ** (2 * i / d_pos))
                assert abs(out[2 * i] - math.sin(angle)) < 1e-6
                assert abs(out[2 * i + 1] - math.cos(angle)) < 1e-6
                assert abs(out[2 * i] ** 2 + out[2 * i + 1] ** 2 - 1.0) < 1e-12
    report("c3 positional-encoding", "t in {0,1,49}, d_pos in {4,128}, closed form to 1e-6, identity to 1e-12")


# --- criterion 4: metric oracle -------------------------------------------------


def test_c4_metric_oracle():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        ranks = rng.integers(1, 60, size=n).tolist()
        m = evalrank.metrics_at_k(ranks, k=10)
        hr = sum(1 for r in ranks if r <= 10) / n
        mrr = sum(1.0 / r for r in ranks if r <= 10) / n
        ndcg = sum(1.0 / math.log2(r + 1) for r in ranks if r <= 10) / n
        worst = max(worst, abs(m.hr - hr), abs(m.mrr - mrr), abs(m.ndcg - ndcg))
        assert worst < 1e-12
    for r in range(1, 200):
        h, rr, g = evalrank.contributions(r, k=10)
        assert rr <= g <= h
    report("c4 metric-oracle", f"1000 random rank lists, max abs dev {worst:.1e}; MRR<=NDCG<=HR for all ranks")


# --- criterion 5: overfit sanity -------------------------------------------------


def overfit_corpus(n_learners=20, n_exercises=15, events_per=15, d_c=6):
    """Deterministic cyclic learners, 300 interactions: each learner walks
    the catalog with a fixed stride, so next-item is memorisable."""
    strides = (1, 2, 4, 7)
    interactions = []
    for i in range(n_learners):
        stride = strides[i % len(strides)]
        for t in range(events_per):
            eid = f"p{(i + t * stride) % n_exercises}"
            interactions.append(
                Interaction(
                    f"u{i}", eid, t, "accepted" if (i + t) % 3 else "wrong_answer",
                    10 + t, 100 + t, code_vec_ref=f"{eid}:{t % 2}",
                )
            )
    rng = np.random.default_rng(55)
    refs = sorted({it.code_vec_ref for it in interactions})
    source = PrecomputedSource({r: rng.normal(size=d_c) for r in refs}, d_c)
    return interactions, source


def test_c5_overfit_sanity():
    t0 = time.time()
    interactions, source = overfit_corpus()
    assert len(interactions) == 300
    seqs, vocab = dataio.build_sequences(interactions, max_len=50)
    train_w, _ = dataio.split(seqs, ratio=0.2)
    hp = HyperParams(d_p=16, d_c=6, d_k=16, d_pos=16, d_ct=4, d_cm=4, d_cs=4, max_len=50, n_exercises=vocab.n_exercises)
    config = training.TrainConfig(epochs=200, batch_size=32, seed=0, lr=0.01, dropout=0.0)
    cp = training.train(train_w, vocab, hp, config, source)
    metrics = evalrank.metrics_at_k(
        [r.rank for r in evalrank.evaluate(cp, train_w, vocab, source)[1]], k=1
    )
    elapsed = time.time() - t0
    assert metrics.hr >= 0.9, metrics
    assert elapsed < 300.0
    report("c5 overfit-sanity", f"train HR@1 {metrics.hr:.3f} after 200 epochs in {elapsed:.0f}s")


# --- criteria 6 and 7: style recovery and ablation direction ---------------------


@pytest.fixture(scope="module")
def style_population():
    catalog = simlearner.ExerciseCatalog.random(600, np.random.default_rng([11, 99]))
    return simlearner.simulate_population(200, uniform_mix(), catalog, 500, seed=11, d_c=8)


def style_hyper(max_len, n_exercises):
    return HyperParams(
        d_p=32, d_c=8, d_k=32, d_pos=32, d_ct=6, d_cm=6, d_cs=6,
        max_len=max_len, n_exercises=n_exercises,
    )


def test_c6_style_recovery(style_population):
    t0 = time.time()
    pop = style_population
    assert len(pop.interactions) == 200 * 500
    seqs, vocab = dataio.build_sequences(pop.interactions, max_len=100)
    train_w, _ = dataio.split(seqs, ratio=0.2)
    config = training.TrainConfig(epochs=80, batch_size=256, seed=11, lr=0.001, dropout=0.0)
    cp = training.train(train_w, vocab, style_hyper(100, vocab.n_exercises), config, pop.source())

    rows = probe.export_latents(cp, seqs, pop.source())
    assert len(rows) == 200
    measured = {}
    for dimension in probe.DIMENSIONS:
        feats, labs = probe.dimension_features(rows, pop.labels, dimension)
        acc = probe.mean_probe_accuracy(feats, labs, seed=11, splits=5)
        null = probe.permutation_null(feats, labs, trials=20, seed=11, splits=5)
        measured[dimension] = (acc, max(null))
        assert acc >= 0.8, f"{dimension} probe accuracy {acc:.3f}"
        assert max(null) <= 0.65, f"{dimension} permuted-label accuracy up to {max(null):.3f}"
    elapsed = time.time() - t0
    assert elapsed < 1800.0
    detail = ", ".join(f"{d} acc {a:.3f} (null max {n:.3f})" for d, (a, n) in measured.items())
    report("c6 style-recovery", f"{detail}; {elapsed:.0f}s")


def test_c7_ablation_direction(style_population):
    # Soft target: the direction is reported, not hard-asserted.
    pop = style_population
    seqs, vocab = dataio.build_sequences(pop.interactions, max_len=50)
    train_w, test_w = dataio.split(seqs, ratio=0.2)
    hp = style_hyper(50, vocab.n_exercises)
    means = {}
    for variant in ("PERS", "ERS", "PERS-ps"):
        scores = []
        for seed in (1, 2, 3):
            config = training.TrainConfig(
                epochs=8, batch_size=256, seed=seed, lr=0.01, dropout=0.0, variant=variant
            )
            cp = training.train(train_w, vocab, hp, config, pop.source())
            metrics, _ = evalrank.evaluate(cp, test_w, vocab, pop.source(), batch_size=512)
            scores.append(metrics.hr)
        means[variant] = float(np.mean(scores))
        assert 0.0 <= means[variant] <= 1.0
    table = ", ".join(f"{v} HR@10 {m:.4f}" for v, m in means.items())
    direction = means["PERS"] >= means["ERS"] and means["PERS"] >= means["PERS-ps"]
    status = "direction holds" if direction else "DIRECTION VIOLATED (reported, not asserted)"
    report("c7 ablation-direction", f"{table}; {status}")


# --- criterion 8: determinism ----------------------------------------------------


def small_population(tmp_path, seed=23):
    catalog = simlearner.ExerciseCatalog.random(80, np.random.default_rng([seed, 99]))
    pop = simlearner.simulate_population(24, uniform_mix(), catalog, 60, seed=seed, d_c=8)
    seqs, vocab = dataio.build_sequences(pop.interactions, max_len=50)
    train_w, test_w = dataio.split(seqs, ratio=0.2)
    hp = HyperParams(d_p=12, d_c=8, d_k=12, d_pos=12, d_ct=4, d_cm=4, d_cs=4, max_len=50, n_exercises=vocab.n_exercises)
    return pop, vocab, train_w, test_w, hp


def test_c8_determinism(tmp_path):
    pop, vocab, train_w, test_w, hp = small_population(tmp_path)
    config = training.TrainConfig(epochs=3, batch_size=16, seed=23, dropout=0.1)
    blobs, reports = [], []
    for tag in ("one", "two"):
        cp = training.train(train_w, vocab, hp, config, pop.source())
        path = tmp_path / f"{tag}.pers"
        training.save_checkpoint(path, cp)
        blobs.append(path.read_bytes())
        metrics, _ = evalrank.evaluate(cp, test_w, vocab, pop.source())
        reports.append(evalrank.report_tsv([evalrank.AblationRow("PERS", metrics)]))
    assert blobs[0] == blobs[1]
    assert reports[0] == reports[1]

    loaded = training.load_checkpoint(tmp_path / "one.pers")
    path3 = tmp_path / "resaved.pers"
    training.save_checkpoint(path3, loaded)
    assert path3.read_bytes() == blobs[0]
    report("c8 determinism", "two runs byte-identical (checkpoint + report); save/load round-trip bitwise")


# --- criterion 9: intra-exercise invariant ----------------------------------------


def test_c9_intra_exercise_zero_delta():
    rng = np.random.default_rng(9)
    hp = HyperParams(d_p=12, d_c=6, d_k=12, d_pos=12, d_ct=3, d_cm=3, d_cs=3, max_len=20, n_exercises=8)
    model = perscell.init_model_params(rng, hp)
    checked = 0
    for trial in range(10):
        gen = np.random.default_rng([9, trial])
        ids = [f"p{gen.integers(0, 8)}"]
        while len(ids) < 12:
            ids.append(ids[-1] if gen.random() < 0.4 else f"p{gen.integers(0, 8)}")
        events = tuple(
            Interaction("u", eid, t, "accepted" if gen.random() < 0.5 else "wrong_answer", 5, 64, code_vec_ref=f"{trial}:{t}")
            for t, eid in enumerate(ids)
        )
        vocab = dataio.Vocabulary([f"p{i}" for i in range(8)])
        table = {f"{trial}:{t}": gen.normal(size=hp.d_c) for t in range(len(ids))}
        batch = perscell.assemble_batch(table_windows(vocab, [("u", events, ())]), vocab, hp, PrecomputedSource(table, hp.d_c))
        deltas = perscell.run_window(model, batch).delta_exercise.data
        for t in range(1, len(ids)):
            if ids[t] == ids[t - 1]:
                assert np.all(deltas[t] == 0.0), (trial, t)
                checked += 1
            else:
                assert np.any(deltas[t] != 0.0)
    assert checked > 10
    report("c9 intra-exercise", f"{checked} repeat steps, all with bitwise-zero exercise deltas")
