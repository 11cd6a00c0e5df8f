from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import excluded_params, source_for, table_windows, vocab_for, window_spec
from pers import cli, perscell, tensorkit as tk, training
from pers.codefeat import PrecomputedSource, write_vectors
from pers.dataio import Interaction, MaskedWindow, build_sequences, split, write_log
from pers.encoder import HyperParams


def toy_hp(n_exercises, d_k=16, d_c=6):
    return HyperParams(
        d_p=d_k, d_c=d_c, d_k=d_k, d_pos=d_k, d_ct=4, d_cm=4, d_cs=4, max_len=50, n_exercises=n_exercises
    )


def toy_corpus(n_learners=20, n_exercises=15, events_per=15, d_c=6, strides=(1, 2, 4, 7)):
    """Deterministic cyclic learners: next exercise = current + stride."""
    interactions = []
    for i in range(n_learners):
        stride = strides[i % len(strides)]
        for t in range(events_per):
            eid = f"p{(i + t * stride) % n_exercises}"
            interactions.append(
                Interaction(
                    f"u{i}", eid, t, "accepted" if (i + t) % 3 else "wrong_answer",
                    exec_time_ms=10 + t, exec_memory_kb=100 + t,
                    code_vec_ref=f"{eid}:{t % 2}",
                )
            )
    rng = np.random.default_rng(99)
    refs = {it.code_vec_ref for it in interactions}
    source = PrecomputedSource({r: rng.normal(size=d_c) for r in sorted(refs)}, d_c)
    return interactions, source


def toy_training_setup(**over):
    interactions, source = toy_corpus()
    seqs, vocab = build_sequences(interactions, max_len=50)
    train_w, test_w = split(seqs, ratio=0.2)
    hp = toy_hp(vocab.n_exercises)
    config = training.TrainConfig(epochs=over.pop("epochs", 2), batch_size=8, seed=7, **over)
    return train_w, test_w, vocab, hp, config, source


def read_header(path) -> dict:
    data = open(path, "rb").read()
    magic = len(training.CHECKPOINT_MAGIC)
    return json.loads(data[magic + 8 : magic + 8 + int.from_bytes(data[magic : magic + 8], "little")])


def checkpoint_bytes(cp, tmp_path, tag):
    path = tmp_path / f"{tag}.pers"
    training.save_checkpoint(path, cp)
    return path.read_bytes()


# --- negative sampling -------------------------------------------------------


def target_batch(targets):
    """A WindowBatch carrying only (B, L) targets; a cell whose target is
    below 2 has no loss."""
    targets = np.asarray(targets, dtype=np.int64)
    zeros = np.zeros_like(targets)
    mask = (targets >= 2).astype(np.float64)
    return perscell.WindowBatch(
        zeros, zeros, zeros, zeros, np.ones(targets.shape), np.where(mask > 0, targets, 0), mask,
        [f"u{i}" for i in range(len(targets))],
    )


@st.composite
def catalog_and_targets(draw):
    k = draw(st.integers(0, 6))
    vocab_size = draw(st.integers(k + 3, 40))
    b, length = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    targets = draw(st.lists(st.integers(0, vocab_size - 1), min_size=b * length, max_size=b * length))
    return vocab_size, k, np.array(targets).reshape(b, length)


@settings(max_examples=200, deadline=None)
@given(case=catalog_and_targets(), seed=st.integers(0, 2**32 - 1))
def test_sample_negatives_never_hits_target_or_reserved(case, seed):
    # Each target gets k distinct real exercises other than itself; targets
    # 0 and 1 stand for cells without a loss and get no negatives.
    vocab_size, k, targets = case
    batch = target_batch(targets)
    negs = training._batch_negatives(batch, vocab_size, k, np.random.default_rng(seed))
    assert negs.shape == targets.shape + (k,)
    for (row, t), target in np.ndenumerate(batch.targets):
        got = negs[row, t].tolist()
        if batch.loss_mask[row, t] == 0.0:
            assert got == [0] * k
            continue
        assert len(set(got)) == k
        assert all(2 <= v < vocab_size and v != target for v in got)


@settings(max_examples=50, deadline=None)
@given(case=catalog_and_targets(), seed=st.integers(0, 2**32 - 1))
def test_sample_negatives_deterministic_given_seed(case, seed):
    vocab_size, k, targets = case
    batch = target_batch(targets)
    negs = training._batch_negatives(batch, vocab_size, k, np.random.default_rng(seed))
    again = training._batch_negatives(batch, vocab_size, k, np.random.default_rng(seed))
    np.testing.assert_array_equal(negs, again)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(1, 8), data=st.data())
def test_batch_negatives_forced_choice(k, data):
    # k + 1 real exercises: the negatives are every one but the target.
    vocab_size = k + 3
    targets = np.array([data.draw(st.lists(st.integers(2, vocab_size - 1), min_size=1, max_size=5))])
    negs = training._batch_negatives(target_batch(targets), vocab_size, k, np.random.default_rng(k))
    for t, target in enumerate(targets[0]):
        assert sorted(negs[0, t].tolist()) == [v for v in range(2, vocab_size) if v != target]


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 8), spare=st.integers(0, 8))
def test_batch_negatives_catalog_too_small(k, spare):
    vocab_size = min(k + 2, 2 + spare)  # at most k real exercises
    with pytest.raises(ValueError, match="catalog too small"):
        training._batch_negatives(target_batch([[2]]), vocab_size, k, np.random.default_rng(0))


def test_batch_negatives_are_uniform_over_non_targets():
    # 10 real exercises, k = 4: each of the 9 non-targets is drawn with
    # probability 4/9 per target. 5 standard deviations of the binomial.
    vocab_size, k, n = 12, 4, 20000
    targets = np.where(np.arange(n) < n // 2, 2, 7).reshape(100, 200)
    negs = training._batch_negatives(target_batch(targets), vocab_size, k, np.random.default_rng(5))
    p = k / 9
    bound = 5.0 * np.sqrt(n // 2 * p * (1 - p))
    for target in (2, 7):
        counts = np.bincount(negs[targets == target].ravel(), minlength=vocab_size)
        assert counts[[0, 1, target]].sum() == 0
        others = np.delete(counts, [0, 1, target])
        assert np.all(np.abs(others - n // 2 * p) <= bound), (target, others)


# --- loss --------------------------------------------------------------------


def loss_setup(ids_by_row, **zeroed):
    """A tiny model run over windows whose steps all carry a target; the
    named tensors are replaced by the given arrays."""
    vocab = vocab_for([f"p{i}" for i in range(5)])
    windows = table_windows(vocab, [window_spec(ids, lid=f"u{i}", with_refs=True) for i, ids in enumerate(ids_by_row)])
    hp = toy_hp(5, d_k=8).with_exercises(5)
    model = perscell.init_model_params(np.random.default_rng(3), hp)
    tensors = dict(model.tensors)
    tensors.update({n: tk.parameter(a, n) for n, a in zeroed.items()})
    model = model.replace_tensors(tensors)
    batch = perscell.assemble_batch(windows, vocab, hp, source_for(windows, hp.d_c))
    return perscell.run_window(model, batch), batch, model


def test_loss_perfect_logits_approaches_zero():
    # W_12 = 0 makes every logit row equal b_12, which puts all mass on
    # class 3 (exercise p1), the target of every step.
    bias = np.full(7, -50.0)
    bias[3] = 50.0
    run, batch, _ = loss_setup([["p0", "p1", "p1"]], W_12=np.zeros((8, 7)), b_12=bias)
    loss = training.sequence_loss(run, batch, 7)
    assert float(loss.data) < 1e-9


def test_loss_two_step_matches_hand_computed_cross_entropy():
    run, batch, model = loss_setup([["p2", "p0", "p3"], ["p4", "p1"]])
    loss = training.sequence_loss(run, batch, 7)
    T = model.tensors

    def nll(row, t):
        at = row * batch.length + t
        latents = (tk.tensor(s.data[at : at + 1]) for s in (run.pa, run.ps, run.us))
        z = perscell.predict(T, perscell.head(T, *latents)).data[0]
        target = batch.targets[row, t]
        return -np.log(np.exp(z[target]) / np.exp(z[2:]).sum())

    expected = (nll(0, 0) + nll(0, 1) + nll(1, 0)) / 3.0
    assert float(loss.data) == pytest.approx(expected, abs=1e-9)


def test_loss_rejects_padding_target():
    run, batch, _ = loss_setup([["p0", "p1"]])
    batch.targets[0, 0] = 0
    with pytest.raises(ValueError, match="padding"):
        training.sequence_loss(run, batch, 7)


def test_gradient_clipping_rescales_to_max_norm():
    grads = {"a": np.array([3.0, 4.0])}  # norm 5
    out = training.clip_gradients(grads, 1.0)
    assert np.linalg.norm(out["a"]) == pytest.approx(1.0)
    untouched = training.clip_gradients({"a": np.array([0.3])}, 1.0)
    assert untouched["a"][0] == 0.3


# --- train loop --------------------------------------------------------------


def test_train_lr_zero_leaves_parameters_at_init():
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=1, lr=0.0)
    cp = training.train(train_w, vocab, hp, config, source)
    fresh = perscell.init_model_params(np.random.default_rng([config.seed, 0]), hp.with_exercises(vocab.n_exercises), config.variant, config.layers)
    for name, t in fresh.tensors.items():
        np.testing.assert_array_equal(cp.model.tensors[name].data, t.data)


def test_train_loss_strictly_decreases_over_first_epochs():
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=5, lr=0.01)
    cp = training.train(train_w, vocab, hp, config, source)
    assert len(cp.loss_log) == 5
    for a, b in zip(cp.loss_log, cp.loss_log[1:]):
        assert b < a, cp.loss_log


def test_train_same_seed_gives_bitwise_identical_checkpoints(tmp_path):
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=2)
    cp1 = training.train(train_w, vocab, hp, config, source)
    cp2 = training.train(train_w, vocab, hp, config, source)
    assert checkpoint_bytes(cp1, tmp_path, "a") == checkpoint_bytes(cp2, tmp_path, "b")


def test_train_empty_split_rejected():
    _, _, vocab, hp, config, source = toy_training_setup()
    with pytest.raises(ValueError):
        training.train([], vocab, hp, config, source)


def test_divergent_run_aborts_with_diagnostic():
    train_w, _, vocab, hp, _, source = toy_training_setup()
    config = training.TrainConfig(epochs=3, batch_size=8, seed=7, lr=1e150, dropout=0.0)
    with np.errstate(all="ignore"), pytest.raises(training.DivergenceError, match="epoch 0"):
        training.train(train_w, vocab, hp, config, source)


def test_dropout_active_in_training_path():
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=1, dropout=0.5)
    cp_dropout = training.train(train_w, vocab, hp, config, source)
    config2 = training.TrainConfig(epochs=1, batch_size=8, seed=7, dropout=0.0)
    cp_plain = training.train(train_w, vocab, hp, config2, source)
    diff = any(
        not np.array_equal(cp_dropout.model.tensors[n].data, cp_plain.model.tensors[n].data)
        for n in cp_dropout.model.tensors
    )
    assert diff


# --- checkpoint io -----------------------------------------------------------


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=1)
    cp = training.train(train_w, vocab, hp, config, source)
    path = tmp_path / "model.pers"
    training.save_checkpoint(path, cp)
    loaded = training.load_checkpoint(path)
    assert set(loaded.model.tensors) == set(cp.model.tensors)
    for name, t in cp.model.tensors.items():
        assert loaded.model.tensors[name].data.tobytes() == t.data.tobytes()
    for name, m in cp.adam.m.items():
        assert loaded.adam.m[name].tobytes() == m.tobytes()
        assert loaded.adam.v[name].tobytes() == cp.adam.v[name].tobytes()
    assert loaded.adam.t == cp.adam.t
    assert loaded.config == cp.config
    assert loaded.vocab == cp.vocab
    assert loaded.loss_log == cp.loss_log
    # save -> load -> save reproduces the identical file
    path2 = tmp_path / "model2.pers"
    training.save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_corrupt_magic(tmp_path):
    path = tmp_path / "bad.pers"
    path.write_bytes(b"NOPE!\n" + b"\x00" * 32)
    with pytest.raises(training.CheckpointError, match="magic"):
        training.load_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path):
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=1)
    cp = training.train(train_w, vocab, hp, config, source)
    path = tmp_path / "model.pers"
    training.save_checkpoint(path, cp)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 100])
    with pytest.raises(training.CheckpointError, match="truncated"):
        training.load_checkpoint(path)


def test_resume_matches_uninterrupted_run(tmp_path):
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=4)
    full = training.train(train_w, vocab, hp, config, source)

    half_config = training.TrainConfig(epochs=2, batch_size=8, seed=7)
    half = training.train(train_w, vocab, hp, half_config, source)
    path = tmp_path / "half.pers"
    training.save_checkpoint(path, half)
    resumed = training.train(train_w, vocab, hp, config, source, resume=training.load_checkpoint(path))

    for name, t in full.model.tensors.items():
        assert resumed.model.tensors[name].data.tobytes() == t.data.tobytes(), name
    assert resumed.loss_log == full.loss_log
    assert checkpoint_bytes(resumed, tmp_path, "resumed") == checkpoint_bytes(full, tmp_path, "full")


def adam_bytes(adam: tk.AdamState):
    return adam.t, {k: m.tobytes() for k, m in adam.m.items()}, {k: v.tobytes() for k, v in adam.v.items()}


def test_resume_leaves_the_checkpoint_unchanged():
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=3)
    half = training.train(train_w, vocab, hp, dataclasses.replace(config, epochs=1), source)
    before = adam_bytes(half.adam)
    first = training.train(train_w, vocab, hp, config, source, resume=half)
    assert adam_bytes(half.adam) == before
    assert half.loss_log == first.loss_log[:1]
    second = training.train(train_w, vocab, hp, config, source, resume=half)
    for name, t in first.model.tensors.items():
        assert second.model.tensors[name].data.tobytes() == t.data.tobytes(), name
    assert second.adam.t == first.adam.t


def test_best_epoch_checkpoint_retained(tmp_path, capsys):
    """`pers train` reports the first lowest-loss epoch, derived from the
    loss log; the checkpoint keeps only the final model and Adam state."""
    interactions, source = toy_corpus()
    write_log(tmp_path / "log.jsonl", interactions)
    write_vectors(tmp_path / "vectors.txt", {ref: source.matrix[i] for ref, i in source.rows.items()}, source.dim)
    argv = [
        "train", "--data", str(tmp_path / "log.jsonl"), "--vectors", str(tmp_path / "vectors.txt"),
        "--out-dir", str(tmp_path), "--d-p", "16", "--d-c", "6", "--d-k", "16", "--d-ct", "4", "--d-cm", "4",
        "--d-cs", "4", "--epochs", "4", "--batch-size", "8", "--seed", "7", "--lr", "0.05",
    ]
    assert cli.main(argv) == 0
    cp = training.load_checkpoint(tmp_path / "model.pers")
    best = int(np.argmin(cp.loss_log))
    assert best < len(cp.loss_log) - 1  # the lr is high enough that the last epoch is not the best
    assert f"(best epoch {best})" in capsys.readouterr().out
    log = [float(line.split("\t")[1]) for line in (tmp_path / "train_log.tsv").read_text().splitlines()[1:]]
    assert log == [float(f"{v:.9g}") for v in cp.loss_log]
    names = [e["name"] for e in read_header(tmp_path / "model.pers")["manifest"]]
    assert sorted(names) == sorted([*cp.model.tensors, *(f"m:{n}" for n in cp.adam.m), *(f"v:{n}" for n in cp.adam.v)])


def test_best_tensors_survive_checkpoint_round_trip(tmp_path):
    # An absurd late-stage lr spike makes the final epoch worse than the
    # best; the file still holds the final state only, and round-trips.
    train_w, _, vocab, hp, _, source = toy_training_setup(epochs=3, lr=0.01)
    cp = training.train(train_w, vocab, hp, training.TrainConfig(epochs=3, batch_size=8, seed=7, lr=0.01), source)
    spiked = training.train(
        train_w, vocab, hp,
        training.TrainConfig(epochs=5, batch_size=8, seed=7, lr=5.0),
        source, resume=cp,
    )
    assert int(np.argmin(spiked.loss_log)) < len(spiked.loss_log) - 1
    path = tmp_path / "spiked.pers"
    training.save_checkpoint(path, spiked)
    header = read_header(path)
    assert sorted(header) == [
        "adam_t", "code_buckets", "config", "format_version", "hyper", "loss_log", "manifest", "vocab"
    ]
    assert not [e for e in header["manifest"] if e["name"].startswith("best:")]
    loaded = training.load_checkpoint(path)
    assert loaded.loss_log == spiked.loss_log
    path2 = tmp_path / "spiked2.pers"
    training.save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(
    "over, fragment",
    [
        ({"variant": "PERS-us"}, "1-layer PERS model, not 1-layer PERS-us"),
        ({"layers": 2}, "1-layer PERS model, not 2-layer PERS"),
        ({"epochs": 2}, "3 epochs done, past epochs=2"),
    ],
    ids=["other-variant", "other-layers", "fewer-epochs"],
)
def test_resume_with_other_settings_raises(over, fragment):
    train_w, _, vocab, hp, config, source = toy_training_setup(epochs=3)
    cp = training.train(train_w, vocab, hp, config, source)
    with pytest.raises(training.CheckpointError, match=fragment):
        training.train(train_w, vocab, hp, dataclasses.replace(config, **over), source, resume=cp)


# --- gradient flow and gradcheck ---------------------------------------------


@pytest.mark.parametrize("variant", ["PERS", "ERS", "PERS-ps"])
def test_every_active_parameter_receives_gradient(variant):
    # One batch holding a repeat attempt and an exercise switch. Probed at
    # a random parameter point: zero-initialised biases would make some
    # structurally-live inputs vanish coincidentally.
    vocab = vocab_for([f"p{i}" for i in range(8)])
    windows = table_windows(vocab, [window_spec(["p0", "p0", "p1", "p2"], with_refs=True)])
    hp = toy_hp(8, d_k=8).with_exercises(8)
    source = source_for(windows, hp.d_c)
    model = perscell.init_model_params(np.random.default_rng(0), hp, variant=variant)
    jitter = np.random.default_rng(1)
    model = model.replace_tensors(
        {n: tk.parameter(t.data + 0.05 * jitter.normal(size=t.data.shape), n) for n, t in model.tensors.items()}
    )
    batch = perscell.assemble_batch(windows, vocab, hp, source if perscell.uses_code(variant) else None)
    run = perscell.run_window(model, batch)
    loss = training.sequence_loss(run, batch, hp.vocab_size)
    grads = tk.backward(loss, model.tensors)
    dead = excluded_params(variant, model.tensors.keys())
    for name, g in grads.items():
        if name in dead:
            assert np.all(g == 0.0), f"{variant}/{name} should be starved"
        else:
            assert np.any(g != 0.0), f"{variant}/{name} is dead"


def test_run_gradcheck_small_model_passes():
    errors = training.run_gradcheck(d_k=4, n_exercises=6, steps=3, seed=0)
    assert set(errors) == set(
        ["E_p", "status_table", "time_table", "memory_table"]
        + [f"W_{i}" for i in range(1, 13)]
        + [f"b_{i}" for i in range(1, 13) if i != 10]
    )
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err}"


def test_training_with_hashed_token_source_updates_bucket_table():
    from pers.codefeat import HashedTokenSource

    interactions = []
    snippets = ["for i in range(n): total += i", "while stack: node = stack.pop()", "print(x)"]
    for i in range(6):
        for t in range(8):
            interactions.append(
                Interaction(
                    f"u{i}", f"p{(i + t) % 5}", t, "accepted" if t % 2 else "wrong_answer",
                    5, 64, code=snippets[(i + t) % len(snippets)],
                )
            )
    seqs, vocab = build_sequences(interactions, max_len=50)
    windows = [MaskedWindow(s, tuple(range(len(s) - 1))) for s in seqs]
    hp = toy_hp(vocab.n_exercises, d_k=8, d_c=6)
    source = HashedTokenSource(buckets=32, dim=6)
    config = training.TrainConfig(epochs=2, batch_size=8, seed=4, dropout=0.0)
    cp = training.train(windows, vocab, hp, config, source)
    assert cp.model.code_buckets == 32
    assert np.isfinite(cp.loss_log).all()
    fresh = perscell.init_model_params(
        np.random.default_rng([4, 0]), hp.with_exercises(vocab.n_exercises), code_buckets=32
    )
    assert not np.array_equal(cp.model.tensors["code_table"].data, fresh.tensors["code_table"].data)


def test_loss_modes_agree_on_overfit_direction():
    # Both objectives should drive the true next exercise to rank 1.
    interactions, source = toy_corpus(n_learners=4, n_exercises=8, events_per=10)
    seqs, vocab = build_sequences(interactions, max_len=50)
    windows = [MaskedWindow(s, tuple(range(len(s) - 1))) for s in seqs]
    hp = toy_hp(vocab.n_exercises, d_k=16)

    for mode in ("full_softmax", "sampled_bce"):
        config = training.TrainConfig(
            epochs=150, batch_size=8, seed=3, lr=0.01, dropout=0.0, loss_mode=mode
        )
        cp = training.train(windows, vocab, hp, config, source)
        batch = perscell.assemble_batch(windows, vocab, cp.model.hyper, source)
        run = perscell.run_window(cp.model, batch)
        mask = perscell.output_class_mask(cp.model.hyper.vocab_size)
        rows, steps = batch.target_cells()
        (logits,) = run.logits
        assert logits.data.shape[0] == rows.size == int(batch.loss_mask.sum())
        hits = total = 0
        for i, (row, t) in enumerate(zip(rows, steps)):
            z = np.where(mask, logits.data[i], -np.inf)
            hits += int(np.argmax(z) == batch.targets[row, t])
            total += 1
        assert total > 0
        assert hits / total >= 0.9, f"{mode}: {hits}/{total}"
