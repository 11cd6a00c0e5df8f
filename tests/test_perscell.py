from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from conftest import add, excluded_params, source_for, sum_all, table_windows, vocab_for, window_spec
from pers import encoder, perscell, tensorkit as tk, training
from pers.codefeat import HashedTokenSource, PrecomputedSource
from pers.dataio import Interaction
from pers.encoder import HyperParams


def small_hp(n_exercises=10, d_k=8):
    return HyperParams(
        d_p=8, d_c=6, d_k=d_k, d_pos=8, d_ct=3, d_cm=3, d_cs=3, max_len=10, n_exercises=n_exercises
    )


def make_params(seed=0, variant="PERS", n_exercises=10, d_k=8, layers=1, buckets=None):
    return perscell.init_model_params(
        np.random.default_rng(seed), small_hp(n_exercises, d_k), variant=variant, layers=layers,
        code_buckets=buckets,
    )


def rand_node(rng, shape):
    return tk.tensor(rng.normal(size=shape))


# --- differencing -----------------------------------------------------------


def test_diff_exercise_identical_embeddings_zero_delta(rng):
    params = make_params().tensors
    e = rand_node(rng, (2, 8))
    delta, _ = perscell.difference(params, "3", e, e)
    assert np.all(delta.data == 0.0)


def test_diff_exercise_delta_slot_selector(rng):
    params = make_params().tensors
    w = np.zeros((24, 8))
    w[:8, :8] = np.eye(8)  # pass through the delta slot only
    params["W_3"] = tk.parameter(w, "W_3")
    params["b_3"] = tk.parameter(np.zeros(8), "b_3")
    e = rand_node(rng, (3, 8))
    _, fused = perscell.difference(params, "3", e, e)
    assert np.all(fused.data == 0.0)


def test_diff_exercise_matches_concat_matvec_oracle(rng):
    model = make_params(1)
    params = model.tensors
    a, b = rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
    delta, fused = perscell.difference(params, "3", tk.tensor(a), tk.tensor(b))
    for row in range(2):
        x = np.concatenate([a[row] - b[row], a[row], b[row]])
        expected = params["W_3"].data.T @ x + params["b_3"].data
        np.testing.assert_allclose(fused.data[row], expected, atol=1e-12)
    np.testing.assert_allclose(delta.data, a - b, atol=0)


def test_diff_code_zero_previous_passes_current_through(rng):
    params = make_params(2).tensors
    e = rand_node(rng, (2, 8))
    zeros = tk.tensor(np.zeros((2, 8)))
    delta, _ = perscell.difference(params, "4", e, zeros)
    np.testing.assert_array_equal(delta.data, e.data)


def test_diff_code_identical_resubmission_zero(rng):
    params = make_params(3).tensors
    e = rand_node(rng, (2, 8))
    delta, _ = perscell.difference(params, "4", e, e)
    assert np.all(delta.data == 0.0)


def test_diff_code_matches_oracle(rng):
    params = make_params(4).tensors
    a, b = rng.normal(size=(2, 8)), rng.normal(size=(2, 8))
    _, fused = perscell.difference(params, "4", tk.tensor(a), tk.tensor(b))
    for row in range(2):
        x = np.concatenate([a[row] - b[row], a[row], b[row]])
        np.testing.assert_allclose(fused.data[row], params["W_4"].data.T @ x + params["b_4"].data, atol=1e-12)


# --- shared unroll helpers and the step-by-step oracle -----------------------


def run_tiny(model, ids_by_row, statuses=None, code_seed=0):
    """Unroll windows u0, u1, ... over the given ids; the events' code
    vectors are drawn from code_seed."""
    vocab = vocab_for([f"p{i}" for i in range(model.hyper.n_exercises)])
    windows = table_windows(
        vocab, [window_spec(ids, lid=f"u{i}", with_refs=True, statuses=statuses) for i, ids in enumerate(ids_by_row)]
    )
    source = source_for(windows, model.hyper.d_c, seed=code_seed)
    batch = perscell.assemble_batch(windows, vocab, model.hyper, source)
    run = perscell.run_window(model, batch)
    return run, batch, vocab


def with_tensors(model, **arrays):
    tensors = dict(model.tensors)
    for name, a in arrays.items():
        tensors[name] = tk.parameter(a, name)
    return model.replace_tensors(tensors)


def step_oracle(model, batch):
    """Reference unroll: each window alone, one step at a time, every
    update written as the paper's concat-then-affine map on full W_6/W_8.

    Returns the states after every real step per row ((n_valid, d_k)
    arrays), the target logits in (step, row) order (rows of a tape node)
    and the full-softmax mean loss node over them.
    """
    T = model.tensors
    hp = model.hyper
    variant, layers = model.variant, model.layers
    use_pos = perscell.uses_position(variant)

    def aff(tag, x):
        return tk.affine(x, T[f"W_{tag}"], T[f"b_{tag}"])

    zeros = tk.tensor(np.zeros((1, hp.d_k)))
    states, target_logits = [], {}
    for row in range(batch.batch):
        pa = ps = us = prev_p = prev_c = zeros
        prev_idx = None
        steps_of_row = []
        for t in range(int(batch.valid[row].sum())):
            idx = batch.exercise_idx[row, t : t + 1]
            ep = encoder.enhance_exercise(T, hp, idx, t, use_pos, layers)
            if prev_idx is None:
                delta_p = ep
            else:
                delta_p = tk.sub(ep, encoder.enhance_exercise(T, hp, prev_idx, t, use_pos, layers))
            if not perscell.uses_code(variant):
                ec = encoder.apply_mlp(T, "2", tk.tensor(np.zeros((1, hp.d_c + hp.d_cs + hp.d_ct + hp.d_cm))), layers)
            else:
                # The bag as a dense row over the whole table, times the table.
                table = batch.code_source.table_for(T)
                bag = np.zeros((1, table.data.shape[0]))
                ids, weights, offsets = batch.code_source.store
                at = slice(offsets[batch.code_bags[row, t]], offsets[batch.code_bags[row, t] + 1])
                np.add.at(bag[0], ids[at], weights[at])
                code = tk.matmul(tk.tensor(bag), table)
                ec = encoder.enhance_code(
                    T, hp, code, batch.status_idx[row, t : t + 1], batch.time_idx[row, t : t + 1],
                    batch.memory_idx[row, t : t + 1], layers,
                )
            dp_mlp = aff("3", tk.concat([delta_p, ep, prev_p]))
            dc_mlp = aff("4", tk.concat([tk.sub(ec, prev_c), ec, prev_c]))
            pa = aff("6", tk.concat([aff("5", tk.concat([ep, ec])), pa]))
            g_ps = tk.tanh(aff("7", dp_mlp))
            ps = aff("8", tk.concat([ps, tk.hadamard(g_ps, dc_mlp)]))
            g_us = tk.tanh(aff("9", dp_mlp))
            us = add(us, tk.matmul(tk.hadamard(g_us, ep), T["W_10"]))
            steps_of_row.append((pa.data[0], ps.data[0], us.data[0]))
            if batch.loss_mask[row, t] > 0:
                slots = {"pa": pa, "ps": ps, "us": us}
                dropped = perscell.ablated_latent(variant)
                if dropped is not None:
                    slots[dropped] = zeros
                pre = encoder.apply_mlp(T, "11", tk.concat([slots["pa"], slots["ps"], slots["us"]]), layers)
                target_logits[(row, t)] = aff("12", pre)
            prev_p, prev_c, prev_idx = ep, ec, idx
        states.append(tuple(np.array(s) for s in zip(*steps_of_row)) if steps_of_row else None)

    cells = [(r, t) for t in range(batch.length) for r in range(batch.batch) if (r, t) in target_logits]
    ordered = [target_logits[cell] for cell in cells]
    class_mask = perscell.output_class_mask(hp.vocab_size)
    loss = tk.Tensor(np.asarray(0.0))
    for lg, (r, t) in zip(ordered, cells):
        loss = add(loss, tk.cross_entropy(lg, batch.targets[r, t : t + 1], class_mask))
    return states, ordered, tk.hadamard(loss, tk.Tensor(np.asarray(1.0 / max(len(ordered), 1))))


def rel_err(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = np.abs(b).max() if b.size else 0.0
    if scale == 0.0:
        return float(np.abs(a).max()) if a.size else 0.0
    return float(np.abs(a - b).max() / scale)


def ragged_batch(model, lengths, ids_seed, code_source):
    """Windows of the given lengths (trailing padding up to the longest),
    about 40% repeats, carrying both code text and vector refs."""
    gen = np.random.default_rng(ids_seed)
    n_ex = model.hyper.n_exercises
    specs = []
    for i, n in enumerate(lengths):
        ids = [f"p{gen.integers(0, n_ex)}"]
        while len(ids) < n:
            ids.append(ids[-1] if gen.random() < 0.4 else f"p{gen.integers(0, n_ex)}")
        events = tuple(
            Interaction(
                f"u{i}", eid, t, "accepted" if gen.random() < 0.5 else "wrong_answer",
                int(gen.integers(1, 500)), int(gen.integers(1, 4000)),
                code=f"for x{gen.integers(0, 9)} in y{eid}", code_vec_ref=f"u{i}:{t}",
            )
            for t, eid in enumerate(ids)
        )
        specs.append((f"u{i}", events, range(n - 1)))
    vocab = vocab_for([f"p{i}" for i in range(n_ex)])
    windows = table_windows(vocab, specs)
    if code_source == "hashed":
        source = HashedTokenSource(model.code_buckets, model.hyper.d_c)
    else:
        source = source_for(windows, model.hyper.d_c, seed=ids_seed)
    return perscell.assemble_batch(windows, vocab, model.hyper, source)


def assert_matches_oracle(model, batch, tol=1e-12):
    run = perscell.run_window(model, batch)
    states, ordered, oracle_loss = step_oracle(model, batch)
    for row, want in enumerate(states):
        got = run.row_states(row)
        if want is None:
            assert all(g.shape[0] == 0 for g in got)
            continue
        for g, w in zip(got, want):
            assert rel_err(g, w) <= tol  # every valid step, the last being the final latents
    if not ordered:
        assert run.logits == []
        return
    want_logits = np.concatenate([lg.data for lg in ordered])
    assert rel_err(run.logits[0].data, want_logits) <= tol
    loss = training.sequence_loss(run, batch, model.hyper.vocab_size)
    assert rel_err(loss.data, oracle_loss.data) <= tol
    got_g = tk.backward(loss, model.tensors)
    want_g = tk.backward(oracle_loss, model.tensors)
    for name in model.tensors:
        assert rel_err(got_g[name], want_g[name]) <= tol, name


def test_frozen_run_matches_taped_run_bitwise_and_records_no_tape():
    for variant in ("PERS", "PERS-cr", "PERS-us"):
        for layers in (1, 2):
            for code_source in ("precomputed", "hashed"):
                model = make_params(21, variant=variant, layers=layers, buckets=16 if code_source == "hashed" else None)
                batch = ragged_batch(model, [5, 2, 4, 1], 4, code_source)
                taped, frozen = perscell.run_window(model, batch), perscell.run_window(model.frozen(), batch)
                nodes = [*frozen.logits, frozen.pa, frozen.ps, frozen.us, frozen.delta_exercise, frozen.gate_ps, frozen.gate_us]
                assert all(t.parents == () and t.vjp is None for t in nodes)
                assert taped.pa.parents  # the taped run is not vacuous
                for want, got in zip([*taped.logits, taped.pa, taped.ps, taped.us], nodes):
                    assert want.data.tobytes() == got.data.tobytes()
                assert all(f.data is t.data for f, t in zip(model.frozen().tensors.values(), model.tensors.values()))


# --- updating ---------------------------------------------------------------


def test_update_pa_all_zero_params_and_state():
    model = make_params(5)
    model = with_tensors(model, **{n: np.zeros_like(model.tensors[n].data) for n in ("W_5", "b_5", "W_6", "b_6")})
    run, _, _ = run_tiny(model, [["p0", "p1", "p1", "p4"], ["p2", "p3"]])
    assert np.all(run.pa.data == 0.0)


def test_update_pa_identity_carry():
    # W_6 = [0; I], b_6 = c: PA_t = PA_{t-1} + c, so PA_t = (t+1) c exactly
    # for a c of small binary fractions.
    model = make_params(6)
    w6 = np.zeros((16, 8))
    w6[8:, :] = np.eye(8)
    c = np.array([0.5, -0.25, 0.125, 1.0, -2.0, 0.0, 0.75, -0.5])
    run, _, _ = run_tiny(with_tensors(model, W_6=w6, b_6=c), [["p0", "p1", "p2", "p3", "p4"]])
    pa, _, _ = run.row_states(0)
    for t in range(5):
        assert pa[t].tobytes() == ((t + 1) * c).tobytes()


def test_update_pa_two_stage_oracle():
    model = make_params(7)
    _, batch, _ = run_tiny(model, [["p1", "p4", "p4", "p2"], ["p3", "p0"]])
    assert_matches_oracle(model, batch)


def test_update_ps_zero_gate_annihilates_code():
    # W_7 = b_7 = 0 closes the PS gate: the code branch contributes nothing,
    # so PS is the same bitwise under any code vectors.
    model = with_tensors(make_params(8), W_7=np.zeros((8, 8)), b_7=np.zeros(8))
    ids = [["p0", "p2", "p2", "p5"], ["p1", "p3", "p4", "p4"]]
    run1, _, _ = run_tiny(model, ids)
    run2, _, _ = run_tiny(model, ids, code_seed=1)
    assert np.all(run1.gate_ps.data == 0.0)
    assert run1.ps.data.tobytes() == run2.ps.data.tobytes()
    assert not np.array_equal(run1.pa.data, run2.pa.data)  # the code inputs did change


def test_update_ps_gate_strictly_inside_unit_interval():
    for seed in range(5):
        run, _, _ = run_tiny(make_params(9 + seed), [["p0", "p1", "p0", "p2"], ["p3", "p3", "p3", "p3"]])
        assert np.all(run.gate_ps.data > -1.0) and np.all(run.gate_ps.data < 1.0)


def test_update_ps_matches_oracle():
    model = make_params(10)
    _, batch, _ = run_tiny(model, [["p5", "p5", "p1", "p9", "p1"]])
    run = perscell.run_window(model, batch)
    states, _, _ = step_oracle(model, batch)
    assert rel_err(run.row_states(0)[1], states[0][1]) <= 1e-12


def test_update_us_zero_gate_keeps_state_bitwise():
    # W_9 = b_9 = 0 closes the US gate: US stays bitwise zero across the window.
    model = with_tensors(make_params(11), W_9=np.zeros((8, 8)), b_9=np.zeros(8))
    run, _, _ = run_tiny(model, [["p0", "p1", "p1", "p7", "p2"], ["p3", "p4"]])
    assert np.all(run.gate_us.data == 0.0)
    assert np.all(run.us.data == 0.0)
    assert np.any(run.pa.data != 0.0)


def test_update_us_single_step_unrolling():
    model = make_params(12)
    params = model.tensors
    _, batch, _ = run_tiny(model, [["p3", "p6"]])
    run = perscell.run_window(model, batch)
    x = np.concatenate([params["E_p"].data[batch.exercise_idx[0, 0]], encoder.positional_encoding(0, 8)])
    e_p = params["W_1"].data.T @ x + params["b_1"].data
    us = run.row_states(0)[2][0]
    expected = params["W_10"].data.T @ (run.gate_us.data[0] * e_p)
    np.testing.assert_allclose(us, expected, atol=1e-12)


def test_update_us_constant_over_zero_gated_run():
    # A zero difference signal (W_3 = b_3 = 0) with b_9 = 0 also closes the
    # US gate, whatever W_9 is: US holds its zero start at every step.
    model = with_tensors(make_params(13), W_3=np.zeros((24, 8)), b_3=np.zeros(8), b_9=np.zeros(8))
    run, _, _ = run_tiny(model, [["p0", "p4", "p4", "p2", "p9", "p1"]])
    assert np.any(model.tensors["W_9"].data != 0.0)
    assert np.all(run.us.data == 0.0)


# --- predicting -------------------------------------------------------------


def softmax_masked(logits, vocab_size):
    mask = perscell.output_class_mask(vocab_size)
    z = np.where(mask, logits, -np.inf)
    e = np.exp(z - z[mask].max())
    return e / e.sum()


def test_predict_zero_state_zero_params_uniform_over_real_exercises(rng):
    model = make_params(14)
    model = with_tensors(model, **{n: np.zeros_like(model.tensors[n].data) for n in ("W_11", "b_11", "W_12", "b_12")})
    zeros = tk.tensor(np.zeros((1, 8)))
    logits = perscell.predict(model.tensors, perscell.head(model.tensors, zeros, zeros, zeros))
    probs = softmax_masked(logits.data[0], model.hyper.vocab_size)
    np.testing.assert_allclose(probs[2:], np.full(10, 1.0 / 10.0), atol=1e-12)
    assert probs[0] == 0.0 and probs[1] == 0.0


def test_predict_masked_indices_never_in_topk(rng):
    model = make_params(15)
    logits = perscell.predict(model.tensors, perscell.head(model.tensors, *(rand_node(rng, (3, 8)) for _ in range(3))))
    mask = perscell.output_class_mask(model.hyper.vocab_size)
    z = np.where(mask, logits.data, -np.inf)
    top = np.argsort(-z, axis=1)[:, :10]
    assert not np.any(top <= 1)


def test_predict_softmax_sums_to_one_and_matches_oracle(rng):
    model = make_params(16)
    params = model.tensors
    pa, ps, us = (rng.normal(size=(2, 8)) for _ in range(3))
    logits = perscell.predict(params, perscell.head(params, tk.tensor(pa), tk.tensor(ps), tk.tensor(us)))
    for row in range(2):
        pre = params["W_11"].data.T @ np.concatenate([pa[row], ps[row], us[row]]) + params["b_11"].data
        expected = params["W_12"].data.T @ pre + params["b_12"].data
        np.testing.assert_allclose(logits.data[row], expected, atol=1e-12)
        probs = softmax_masked(logits.data[row], model.hyper.vocab_size)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_predict_ablated_latent_is_ignored(rng):
    model = make_params(17, variant="PERS-pa")
    ps, us = rand_node(rng, (1, 8)), rand_node(rng, (1, 8))
    la = perscell.predict(model.tensors, perscell.head(model.tensors, rand_node(rng, (1, 8)), ps, us, variant="PERS-pa"))
    lb = perscell.predict(model.tensors, perscell.head(model.tensors, rand_node(rng, (1, 8)), ps, us, variant="PERS-pa"))
    np.testing.assert_array_equal(la.data, lb.data)


# --- full unroll ------------------------------------------------------------


def test_all_padding_rows_keep_zero_state():
    model = make_params(18)
    # Row 1 has a single event against row 0's four: its trailing padding
    # must not reach its one real state, which equals the row unrolled alone.
    run, batch, vocab = run_tiny(model, [["p0", "p1", "p2", "p3"], ["p5"]])
    alone = table_windows(vocab, [window_spec(["p5"], lid="u1", with_refs=True)])
    solo = perscell.run_window(model, perscell.assemble_batch(alone, vocab, model.hyper, batch.code_source))
    assert batch.valid[1, 1:].sum() == 0
    for got, want in zip(run.row_states(1), solo.row_states(0)):
        assert got.shape == (1, 8) and np.all(np.isfinite(got))
        assert rel_err(got, want) <= 1e-12


def test_repeat_exercise_gives_bitwise_zero_delta():
    model = make_params(19, layers=2)
    run, _, _ = run_tiny(model, [["p2", "p2", "p4", "p4", "p1"]])
    deltas = run.delta_exercise.data
    assert np.all(deltas[1] == 0.0)  # repeat of p2
    assert np.all(deltas[3] == 0.0)  # repeat of p4
    assert np.any(deltas[2] != 0.0) and np.any(deltas[4] != 0.0)
    # Many long ragged windows in one batch, with and without dropout.
    batch = ragged_batch(model, [30, 17, 30, 1, 25] * 8, 19, "precomputed")
    idx = batch.exercise_idx
    rows, steps = np.nonzero((idx[:, 1:] == idx[:, :-1]) & (batch.valid[:, 1:] > 0))
    assert rows.size > 100
    for dropout in (0.0, 0.5):
        deltas = perscell.run_window(model, batch, dropout, np.random.default_rng(0)).delta_exercise.data
        assert np.all(deltas[rows * batch.length + steps + 1] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(perscell.VARIANTS),
    layers=st.integers(1, 2),
    code_source=st.sampled_from(["precomputed", "hashed"]),
    lengths=st.lists(st.integers(1, 7), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_three_step_unroll_matches_hand_composition(variant, layers, code_source, lengths, seed):
    # The batched unroll equals the step-by-step oracle on target logits,
    # the states at every real step (final latents included), the loss
    # and every parameter gradient, for ragged windows.
    model = make_params(seed, variant=variant, layers=layers, buckets=16 if code_source == "hashed" else None)
    assert_matches_oracle(model, ragged_batch(model, lengths, seed, code_source))


def test_unroll_matches_step_oracle_for_every_variant():
    for variant in perscell.VARIANTS:
        for layers in (1, 2):
            for code_source in ("precomputed", "hashed"):
                model = make_params(20, variant=variant, layers=layers, buckets=16 if code_source == "hashed" else None)
                assert_matches_oracle(model, ragged_batch(model, [5, 2, 4, 1], 3, code_source))


def full_row_bce(logits, targets, negatives):
    """The sampled objective read off full (N, M) logit rows, as it was
    computed before the loss scored only its own columns: the oracle."""
    b = len(targets)
    rows = np.arange(b)
    z_t = logits.data[rows, targets]
    z_n = logits.data[rows[:, None], negatives]
    value = (np.logaddexp(0.0, -z_t) + np.logaddexp(0.0, z_n).sum(axis=1)).sum() / b

    def vjp(g):
        w = float(g) / b
        grad = np.zeros_like(logits.data)
        np.add.at(grad, (rows, targets), (1.0 / (1.0 + np.exp(-z_t)) - 1.0) * w)
        np.add.at(grad, (rows[:, None], negatives), 1.0 / (1.0 + np.exp(-z_n)) * w)
        return (grad,)

    return tk.Tensor(np.asarray(value), (logits,), vjp)


def test_sampled_loss_matches_full_row_oracle():
    # For the same negatives and dropout masks, scoring only the target
    # and negative columns gives the loss and every gradient that reading
    # them off full logit rows gives.
    for variant in perscell.VARIANTS:
        for layers in (1, 2):
            for code_source in ("precomputed", "hashed"):
                model = make_params(40, variant=variant, layers=layers, buckets=16 if code_source == "hashed" else None)
                batch = ragged_batch(model, [6, 2, 5, 1, 3], 8, code_source)
                vocab_size = model.hyper.vocab_size
                negatives = training._batch_negatives(batch, vocab_size, 4, np.random.default_rng(layers))
                rows, steps = batch.target_cells()
                columns = training.sampled_columns(batch, negatives)
                assert columns.shape == (rows.size, 5)
                run = perscell.run_window(model, batch, 0.3, np.random.default_rng(9), columns)
                loss = training.sequence_loss(run, batch, vocab_size, "sampled_bce", negatives)
                full = perscell.run_window(model, batch, 0.3, np.random.default_rng(9))
                assert full.logits[0].data.shape == (rows.size, vocab_size)
                oracle = full_row_bce(full.logits[0], batch.targets[rows, steps], negatives[rows, steps])
                assert rel_err(loss.data, oracle.data) <= 1e-12
                got_g = tk.backward(loss, model.tensors)
                want_g = tk.backward(oracle, model.tensors)
                for name in model.tensors:
                    assert rel_err(got_g[name], want_g[name]) <= 1e-12, (variant, layers, code_source, name)


def test_sampled_loss_rejects_full_row_run():
    model = make_params(41)
    batch = ragged_batch(model, [4, 3], 2, "precomputed")
    negatives = training._batch_negatives(batch, model.hyper.vocab_size, 4, np.random.default_rng(0))
    with pytest.raises(ValueError, match="negative columns"):
        training.sequence_loss(perscell.run_window(model, batch), batch, model.hyper.vocab_size, "sampled_bce", negatives)
    with pytest.raises(tk.ShapeError, match="cols must be"):
        perscell.run_window(model, batch, columns=training.sampled_columns(batch, negatives)[1:])


def test_all_padding_row_keeps_exact_zero_state():
    model = make_params(30)
    hp = model.hyper
    length = 4
    z = np.zeros((2, length), dtype=np.int64)
    valid = np.zeros((2, length))
    valid[0, :] = 1.0  # row 1 is padding from the first step on
    batch = perscell.WindowBatch(
        exercise_idx=z.copy(), status_idx=z.copy(), time_idx=z.copy(), memory_idx=z.copy(),
        valid=valid, targets=z.copy(), loss_mask=np.zeros((2, length)),
        learner_ids=["real", "ghost"], code_bags=np.where(valid > 0, 0, -1),
        code_source=PrecomputedSource({"v": np.zeros(hp.d_c)}, hp.d_c),
    )
    run = perscell.run_window(model, batch)
    assert run.logits == []  # no target steps, no logits
    assert all(s.shape == (0, hp.d_k) for s in run.row_states(1))
    assert all(s.shape == (4, hp.d_k) and np.all(np.isfinite(s)) for s in run.row_states(0))


def test_gates_bounded_on_unroll():
    model = make_params(21)
    run, _, _ = run_tiny(model, [["p0", "p1", "p0", "p2"], ["p3", "p3", "p3", "p3"]])
    assert np.all(np.abs(run.gate_ps.data) < 1.0)
    assert np.all(np.abs(run.gate_us.data) < 1.0)


def test_excluded_params_by_variant():
    names = make_params(22).tensors.keys()
    assert excluded_params("PERS", names) == set()
    assert "W_2" in excluded_params("ERS", names)
    assert "status_table" in excluded_params("PERS-cr", names)
    assert excluded_params("PERS-pa", names) == {"W_5", "b_5", "W_6", "b_6"}
    assert excluded_params("PERS-us", names) == {"W_9", "b_9", "W_10"}
    assert "W_4" in excluded_params("PERS-ps", names)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        make_params(variant="PERS-xx")


@settings(max_examples=40, deadline=None)
@given(
    widths=st.lists(st.integers(1, 7), min_size=6, max_size=6),
    half_pos=st.integers(1, 4),
    n_exercises=st.integers(1, 9),
    layers=st.integers(1, 3),
    buckets=st.one_of(st.none(), st.integers(1, 40)),
    seed=st.integers(0, 2**16),
)
def test_init_walks_the_shape_table(widths, half_pos, n_exercises, layers, buckets, seed):
    d_p, d_c, d_k, d_ct, d_cm, d_cs = widths
    hp = HyperParams(d_p, d_c, d_k, 2 * half_pos, d_ct, d_cm, d_cs, 10, n_exercises)
    shapes = perscell.param_shapes(hp, layers, buckets)
    tensors = perscell.init_model_params(np.random.default_rng(seed), hp, layers=layers, code_buckets=buckets).tensors
    assert list(shapes.items()) == [(name, t.data.shape) for name, t in tensors.items()]
    assert ("code_table" in shapes) == (buckets is not None)
    assert sum(name.startswith("W_11.") for name in shapes) == layers - 1
    drawn = {name: t.data for name, t in tensors.items()}
    drawn["W_6"], drawn["W_8"] = drawn["W_6"][:d_k], drawn["W_8"][d_k:]  # the carry blocks are set, not drawn
    for name, shape in shapes.items():
        if name.startswith("b_"):
            assert np.all(drawn[name] == 0.0), name
        else:
            fan_in = shape[0] if name.startswith("W_") else shape[1]
            assert np.all(np.abs(drawn[name]) <= 1.0 / np.sqrt(fan_in)), name
    assert np.all(tensors["E_p"].data[:2] == 0.0)
    assert np.array_equal(tensors["W_6"].data[d_k:], np.eye(d_k))
    assert np.array_equal(tensors["W_8"].data[:d_k], np.eye(d_k))


def variant_loss_fn(model, batch):
    def fn(tensors):
        probe = model.replace_tensors(dict(tensors))
        run = perscell.run_window(probe, batch)
        return add(sum_all(run.logits[0]), sum_all(tk.tanh(run.us)))
    return fn


@pytest.mark.parametrize("variant", ["PERS", "ERS", "PERS-us"])
def test_cell_gradients_match_finite_differences(variant):
    model = make_params(23, variant=variant, n_exercises=6)
    vocab = vocab_for([f"p{i}" for i in range(6)])
    windows = table_windows(vocab, [window_spec(["p0", "p1", "p1"], with_refs=True)])
    batch = perscell.assemble_batch(windows, vocab, model.hyper, source_for(windows, model.hyper.d_c))
    fn = variant_loss_fn(model, batch)
    dead = excluded_params(variant, model.tensors.keys())
    for name in model.tensors:
        if name in dead:
            continue
        err = tk.finite_diff_check(fn, model.tensors, name, h=1e-5)
        assert err < 1e-4, f"{variant}/{name}: {err}"
