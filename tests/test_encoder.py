from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sum_all
from pers import dataio, encoder, perscell
from pers import tensorkit as tk


def small_hp(**over):
    defaults = dict(d_p=6, d_c=5, d_k=4, d_pos=4, d_ct=3, d_cm=3, d_cs=3, max_len=10, n_exercises=8)
    defaults.update(over)
    return encoder.HyperParams(**defaults)


def init_arrays(seed, hp, layers=1):
    """The model's tensors as fresh arrays; the encoder's are drawn first."""
    model = perscell.init_model_params(np.random.default_rng(seed), hp, layers=layers)
    return {name: t.data.copy() for name, t in model.tensors.items()}


def as_tensors(arrays):
    return {k: tk.parameter(v, k) for k, v in arrays.items()}


def test_positional_encoding_t0():
    np.testing.assert_array_equal(encoder.positional_encoding(0, 4), [0.0, 1.0, 0.0, 1.0])


def test_positional_encoding_t1_matches_closed_form():
    out = encoder.positional_encoding(1, 4)
    np.testing.assert_allclose(out, [0.841471, 0.540302, 0.010000, 0.999950], atol=1e-6)


def test_positional_encoding_pythagorean_identity():
    for t in (0, 1, 7, 49, 1000):
        out = encoder.positional_encoding(t, 128)
        pair_sq = out[0::2] ** 2 + out[1::2] ** 2
        np.testing.assert_allclose(pair_sq, np.ones(64), atol=1e-12)


def test_positional_encoding_entries_bounded():
    for t in range(60):
        out = encoder.positional_encoding(t, 16)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


@pytest.mark.parametrize("length, batch, d_pos", [(50, 64, 32), (450, 64, 32), (451, 37, 32), (50, 512, 128), (7, 3, 6)])
def test_position_table_gather_is_bitwise_the_per_row_code(length, batch, d_pos):
    positions = np.tile(np.arange(length), batch)
    table = encoder.position_table(length, d_pos)
    assert table is encoder.position_table(length, d_pos) and not table.flags.writeable
    assert table[positions].tobytes() == encoder.positional_encoding(positions, d_pos).tobytes()
    hp = encoder.HyperParams(d_p=4, d_c=2, d_k=4, d_pos=d_pos, n_exercises=5)
    params = as_tensors(init_arrays(0, hp))
    idx = np.arange(positions.size) % 7
    x = np.concatenate([params["E_p"].data[idx], encoder.positional_encoding(positions, d_pos)], axis=1)
    out = encoder.enhance_exercise(params, hp, idx, positions)
    assert out.data.tobytes() == (x @ params["W_1"].data + params["b_1"].data).tobytes()


def test_enhance_exercise_rejects_negative_position():
    hp = small_hp()
    with pytest.raises(ValueError, match="position must be >= 0"):
        encoder.enhance_exercise(as_tensors(init_arrays(0, hp)), hp, np.array([2, 3]), np.array([0, -1]))


def test_positional_encoding_rejects_odd_dim():
    with pytest.raises(ValueError):
        encoder.positional_encoding(3, 5)
    with pytest.raises(ValueError):
        encoder.HyperParams(d_pos=7)


def test_bucketization_boundaries():
    assert dataio.time_bucket(0) == 0
    assert dataio.time_bucket(1) == 1
    assert dataio.time_bucket(2) == 1
    assert dataio.time_bucket(3) == 2
    assert dataio.time_bucket(10**12) == 31
    assert dataio.memory_bucket(0) == 0
    assert dataio.memory_bucket(10**12) == 31


def test_status_index_unknown_maps_to_other():
    got = dataio.status_index(["accepted", "weird_verdict", "other"])
    assert got.dtype == np.int64 and got[0] == 0
    assert got[1] == got[2] == len(dataio.STATUSES) - 1


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.integers(0, 2**70),
    st.sampled_from([2**k + d for k in (0, 1, 31, 32, 62, 63, 64) for d in (-1, 0, 1)] + [10**30]),
), max_size=20))
def test_buckets_match_bit_length_rule_for_any_int(counts):
    # The parser accepts any non-negative Python int; the array buckets
    # must agree with the integer rule and not overflow int64.
    want = [min(31, (c + 1).bit_length() - 1) for c in counts]
    for bucket in (dataio.time_bucket, dataio.memory_bucket):
        got = bucket(counts)
        assert got.dtype == np.int64 and got.tolist() == want
        assert [int(bucket(c)) for c in counts] == want


def test_init_shapes_and_reserved_rows():
    hp = small_hp()
    params = init_arrays(0, hp)
    assert params["E_p"].shape == (10, 6)
    assert np.all(params["E_p"][0] == 0.0) and np.all(params["E_p"][1] == 0.0)
    assert np.any(params["E_p"][2:] != 0.0)
    assert params["W_1"].shape == (6 + 4, 4)
    assert params["W_2"].shape == (5 + 3 + 3 + 3, 4)
    assert np.all(params["b_1"] == 0.0)
    bound = 1.0 / np.sqrt(10)
    assert np.all(np.abs(params["W_1"]) <= bound)


def test_init_extra_layers():
    params = init_arrays(0, small_hp(), layers=3)
    assert params["W_1.2"].shape == (4, 4)
    assert params["W_1.3"].shape == (4, 4)
    assert "W_2.3" in params


def test_enhance_exercise_padding_row_with_zero_params_is_zero():
    hp = small_hp()
    params = init_arrays(0, hp)
    params["W_1"] = np.zeros_like(params["W_1"])
    out = encoder.enhance_exercise(as_tensors(params), hp, np.array([0]), t=0)
    assert np.all(out.data == 0.0) and out.dims == [1, 4]


def test_enhance_exercise_identity_block_recovers_embedding():
    # W_1 selecting the e_p slot (d_p == d_k here) reproduces the raw row.
    hp = small_hp(d_p=4)
    params = init_arrays(1, hp)
    w = np.zeros((4 + 4, 4))
    w[:4, :4] = np.eye(4)
    params["W_1"] = w
    out = encoder.enhance_exercise(as_tensors(params), hp, np.array([3, 5]), t=2)
    np.testing.assert_array_equal(out.data, params["E_p"][[3, 5]])


def test_enhance_exercise_matches_matvec_oracle():
    hp = small_hp()
    params = init_arrays(2, hp)
    idx = np.array([2, 7, 4])
    t = 3
    out = encoder.enhance_exercise(as_tensors(params), hp, idx, t)
    pos = encoder.positional_encoding(t, hp.d_pos)
    for row, i in enumerate(idx):
        x = np.concatenate([params["E_p"][i], pos])
        expected = params["W_1"].T @ x + params["b_1"]
        np.testing.assert_allclose(out.data[row], expected, atol=1e-12)


def test_enhance_exercise_position_ablation_zeroes_pos_slot():
    hp = small_hp()
    params = init_arrays(3, hp)
    tensors = as_tensors(params)
    idx = np.array([4])
    with_pos = encoder.enhance_exercise(tensors, hp, idx, t=5, use_position=True)
    without = encoder.enhance_exercise(tensors, hp, idx, t=5, use_position=False)
    expected = params["W_1"].T @ np.concatenate([params["E_p"][4], np.zeros(4)]) + params["b_1"]
    np.testing.assert_allclose(without.data[0], expected, atol=1e-12)
    assert not np.allclose(with_pos.data, without.data)


def test_enhance_exercise_rejects_out_of_range_index():
    hp = small_hp()
    tensors = as_tensors(init_arrays(0, hp))
    with pytest.raises(tk.ShapeError):
        encoder.enhance_exercise(tensors, hp, np.array([10]), t=0)


def test_enhance_code_all_zero_features_gives_bias():
    hp = small_hp()
    params = init_arrays(4, hp)
    params["status_table"][:] = 0.0
    params["time_table"][:] = 0.0
    params["memory_table"][:] = 0.0
    params["b_2"][:] = 0.0
    out = encoder.enhance_code(
        as_tensors(params),
        hp,
        tk.tensor(np.zeros((2, hp.d_c))),
        np.array([0, 1]),
        np.array([0, 0]),
        np.array([0, 0]),
    )
    assert np.all(out.data == 0.0)


def test_enhance_code_status_changes_output():
    hp = small_hp()
    params = as_tensors(init_arrays(5, hp))
    code = tk.tensor(np.ones((1, hp.d_c)))
    a = encoder.enhance_code(params, hp, code, np.array([0]), np.array([2]), np.array([2]))
    b = encoder.enhance_code(params, hp, code, np.array([1]), np.array([2]), np.array([2]))
    assert not np.allclose(a.data, b.data)


def test_enhance_code_matches_concat_matvec_oracle():
    hp = small_hp()
    params = init_arrays(6, hp)
    rng = np.random.default_rng(7)
    code = rng.normal(size=(3, hp.d_c))
    st, ti, me = np.array([1, 0, 6]), np.array([2, 0, 31]), np.array([0, 5, 9])
    out = encoder.enhance_code(as_tensors(params), hp, tk.tensor(code), st, ti, me)
    for row in range(3):
        x = np.concatenate(
            [code[row], params["status_table"][st[row]], params["time_table"][ti[row]], params["memory_table"][me[row]]]
        )
        np.testing.assert_allclose(out.data[row], params["W_2"].T @ x + params["b_2"], atol=1e-12)


def test_enhance_outputs_have_width_dk():
    hp = small_hp()
    tensors = as_tensors(init_arrays(8, hp))
    for b in (1, 4):
        out = encoder.enhance_exercise(tensors, hp, np.zeros(b, dtype=int), t=0)
        assert out.dims == [b, hp.d_k]


def test_padding_row_gets_zero_gradient_when_masked():
    # Padding rows are gathered but their downstream loss weight is 0.
    hp = small_hp()
    params = as_tensors(init_arrays(9, hp))
    idx = np.array([0, 3])  # row 0 is padding
    out = encoder.enhance_exercise(params, hp, idx, t=0)
    masked = tk.hadamard(out, tk.tensor(np.repeat([[0.0], [1.0]], hp.d_k, axis=1)))
    grads = tk.backward(sum_all(masked), {"E_p": params["E_p"]})
    assert np.all(grads["E_p"][0] == 0.0)
    assert np.any(grads["E_p"][3] != 0.0)


def test_multilayer_mlp_matches_manual_composition():
    hp = small_hp()
    params = init_arrays(10, hp, layers=2)
    tensors = as_tensors(params)
    idx = np.array([2])
    out = encoder.enhance_exercise(tensors, hp, idx, t=1, layers=2)
    x = np.concatenate([params["E_p"][2], encoder.positional_encoding(1, hp.d_pos)])
    h1 = params["W_1"].T @ x + params["b_1"]
    expected = params["W_1.2"].T @ np.tanh(h1) + params["b_1.2"]
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)
