from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import add, affine_columns_bce, affine_cross_entropy, padded_bags, padded_gather, store_of, sum_all
from pers import tensorkit as tk


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def test_matmul_identity():
    x = tk.tensor([[3.0], [4.0]])
    eye = tk.tensor(np.eye(2))
    out = tk.matmul(eye, x)
    assert out.data.tolist() == [[3.0], [4.0]]


def test_tanh_of_zero_is_zero():
    z = tk.tensor(np.zeros(5))
    assert np.all(tk.tanh(z).data == 0.0)


def test_concat_matrices_columnwise():
    a = tk.tensor([[1.0, 2.0], [3.0, 4.0]])
    b = tk.tensor([[5.0], [6.0]])
    out = tk.concat([a, b])
    assert out.data.tolist() == [[1.0, 2.0, 5.0], [3.0, 4.0, 6.0]]


def test_matmul_shape_error_names_operand():
    w = tk.parameter(np.zeros((2, 3)), "W_1")
    x = tk.tensor(np.zeros((4, 5)))
    with pytest.raises(tk.ShapeError, match="W_1"):
        tk.matmul(w, x)


@pytest.mark.parametrize("op", [add, tk.sub, tk.hadamard])
def test_elementwise_ops_reject_mismatched_shapes(op):
    with pytest.raises(tk.ShapeError):
        op(tk.tensor(np.zeros(3)), tk.tensor(np.zeros(4)))


def test_ops_preserve_documented_dims():
    g = rng(1)
    a = tk.tensor(g.normal(size=(3, 4)))
    b = tk.tensor(g.normal(size=(4, 5)))
    assert tk.matmul(a, b).dims == [3, 5]
    assert tk.sub(a, a).dims == [3, 4]
    assert tk.hadamard(a, a).dims == [3, 4]
    assert tk.tanh(a).dims == [3, 4]
    assert tk.linear_scan(a, None, 3).dims == [3, 4]
    assert tk.linear_scan(a, tk.tensor(g.normal(size=(4, 4))), 1).dims == [3, 4]
    assert tk.affine(a, b, tk.tensor(g.normal(size=5))).dims == [3, 5]


def test_forward_is_deterministic_bitwise():
    g = rng(2)
    a_data = g.normal(size=(6, 6))
    b_data = g.normal(size=(6, 6))
    outs = []
    for _ in range(2):
        a, b = tk.tensor(a_data), tk.tensor(b_data)
        outs.append(tk.tanh(tk.matmul(a, b)).data)
    assert outs[0].tobytes() == outs[1].tobytes()


def test_backward_linear_map_gradient():
    # root = sum(W @ x), x fixed: dW[i, j] = x[j]
    w = tk.parameter(rng(3).normal(size=(3, 4)), "W")
    x = tk.tensor(rng(4).normal(size=(4, 1)))
    grads = tk.backward(sum_all(tk.matmul(w, x)), {"W": w})
    expected = np.tile(x.data[:, 0], (3, 1))
    np.testing.assert_array_equal(grads["W"], expected)


def test_backward_tanh_at_zero_gives_ones():
    z = tk.parameter(np.zeros(7), "z")
    grads = tk.backward(sum_all(tk.tanh(z)), {"z": z})
    np.testing.assert_array_equal(grads["z"], np.ones(7))


def test_backward_requires_scalar_root():
    a = tk.parameter(np.ones((2, 2)), "a")
    with pytest.raises(tk.NonScalarRootError):
        tk.backward(tk.tanh(a), {"a": a})


def test_backward_zero_gradient_for_unused_parameter():
    used = tk.parameter(np.ones(3), "used")
    unused = tk.parameter(np.ones((2, 2)), "unused")
    grads = tk.backward(sum_all(used), {"used": used, "unused": unused})
    assert grads["unused"].shape == (2, 2)
    assert np.all(grads["unused"] == 0.0)


def _random_five_param_graph(params):
    # Mixes every core op so the finite-difference oracle covers them all.
    h1 = tk.tanh(tk.affine(params["x"], params["w1"], params["b1"]))
    h2 = tk.hadamard(h1, tk.tanh(tk.matmul(params["x"], params["w2"])))
    h3 = tk.concat([h2, tk.sub(h1, h2)])
    h4 = tk.affine(tk.gather_rows(h3, np.array([2, 0, 2, 1])), tk.tensor(np.eye(10)[::-1]), params["s"])
    return sum_all(tk.tanh(h4))


def test_gradients_match_finite_differences():
    g = rng(5)
    params = {
        "x": tk.parameter(g.uniform(-1, 1, size=(3, 4)), "x"),
        "w1": tk.parameter(g.uniform(-1, 1, size=(4, 5)), "w1"),
        "w2": tk.parameter(g.uniform(-1, 1, size=(4, 5)), "w2"),
        "b1": tk.parameter(g.uniform(-1, 1, size=5), "b1"),
        "s": tk.parameter(g.uniform(-1, 1, size=10), "s"),
    }
    for name in params:
        err = tk.finite_diff_check(_random_five_param_graph, params, name, h=1e-5)
        assert err < 1e-4, f"{name}: {err}"


def test_finite_diff_exact_for_linear_graph():
    g = rng(6)
    params = {"w": tk.parameter(g.uniform(-1, 1, size=(3, 2)), "w")}
    x = tk.tensor(g.uniform(-1, 1, size=(2, 1)))
    err = tk.finite_diff_check(lambda p: sum_all(tk.matmul(p["w"], x)), params, "w", h=1e-4)
    assert err < 1e-10


def test_finite_diff_rejects_bad_h():
    params = {"w": tk.parameter(np.ones((1, 1)), "w")}
    fn = lambda p: sum_all(p["w"])
    with pytest.raises(ValueError):
        tk.finite_diff_check(fn, params, "w", h=0.0)
    with pytest.raises(ValueError):
        tk.finite_diff_check(fn, params, "w", h=1e-2)


def test_gather_rows_and_scatter_gradient():
    table = tk.parameter(np.arange(12.0).reshape(4, 3), "E")
    out = tk.gather_rows(table, np.array([1, 1, 3]))
    np.testing.assert_array_equal(out.data, [[3, 4, 5], [3, 4, 5], [9, 10, 11]])
    grads = tk.backward(sum_all(out), {"E": table})
    np.testing.assert_array_equal(grads["E"], [[0, 0, 0], [2, 2, 2], [0, 0, 0], [1, 1, 1]])


def test_backward_skips_ops_no_parameter_feeds():
    w = tk.parameter(np.ones((2, 2)), "w")
    const = tk.tensor(np.ones((2, 2)))

    def never(g):
        raise AssertionError("vjp of an op on constants only was called")

    frozen = tk.Tensor(const.data * 2.0, (const,), never)
    grads = tk.backward(sum_all(tk.hadamard(w, frozen)), {"w": w})
    np.testing.assert_array_equal(grads["w"], np.full((2, 2), 2.0))


def test_ops_on_constants_alone_record_nothing():
    g = rng(12)
    a, b = tk.tensor(g.normal(size=(3, 4))), tk.tensor(g.normal(size=(4, 4)))
    consts = [
        tk.matmul(a, b),
        tk.tanh(a),
        tk.linear_scan(a, b, 3),
        tk.concat([a, a]),
        tk.gather_rows(b, np.array([0, 3])),
        sum_all(tk.hadamard(tk.sub(a, a), a)),
    ]
    assert all(t.parents == () and t.vjp is None for t in consts)
    # A parameter anywhere upstream keeps the tape, through a constant op too.
    w = tk.parameter(g.normal(size=(4, 4)), "w")
    taped = sum_all(tk.tanh(tk.matmul(tk.tanh(a), w)))
    assert taped.parents and taped.vjp is not None
    assert type(tk.parameter(np.zeros(2), "p")) is tk.Parameter and type(tk.tensor(np.zeros(2))) is tk.Tensor


def test_backward_rejects_non_parameters_and_untaped_roots():
    w = tk.parameter(np.ones((2, 2)), "w")
    const = tk.tensor(np.ones((2, 2)))
    root = sum_all(tk.hadamard(w, const))
    with pytest.raises(ValueError, match="not a Parameter"):
        tk.backward(root, {"w": w, "c": const})
    with pytest.raises(ValueError, match="no tape"):
        tk.backward(sum_all(const), {"w": w})


def test_gather_rows_index_out_of_range():
    table = tk.parameter(np.zeros((4, 3)), "E")
    with pytest.raises(tk.ShapeError, match="out of range"):
        tk.gather_rows(table, np.array([4]))


def test_gather_rows_bags_match_loop_oracle_and_finite_differences():
    # Ids repeat within a bag (bag 0) and across bags (0, 1, 3); bag 2 is
    # empty, and number -1 is an empty bag outside the store.
    table = tk.parameter(rng(9).normal(size=(5, 3)), "E")
    bags = [((1, 1, 4), (0.25, 0.5, 0.25)), ((1,), (1.0,)), ((), ()), ((4, 2), (0.5, 0.5))]
    store = store_of(bags)
    numbers = np.array([0, 1, 2, 3, -1, 3])
    out = tk.gather_bags(table, store, numbers)
    want = np.array([sum((w * table.data[i] for i, w in zip(*bags[n])), np.zeros(3)) if n >= 0 else np.zeros(3)
                     for n in numbers])
    np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-15)
    assert np.all(out.data[[2, 4]] == 0.0)
    assert out.data[1].tobytes() == table.data[1].tobytes()
    # The first entry is assigned, not added to 0.0, so a -0.0 survives.
    signed = tk.gather_bags(tk.tensor([[-0.0, 1.0]]), store_of([((0,), (1.0,)), ((0, 0), (-1.0, 0.0))]), np.array([0, 1]))
    assert np.signbit(signed.data[:, 0]).tolist() == [True, False]
    grads = tk.backward(sum_all(out), {"E": table})
    np.testing.assert_allclose(grads["E"][:, 0], [0.0, 1.75, 1.0, 0.0, 1.25], atol=1e-15)
    probe = rng(10).normal(size=(6, 3))
    fn = lambda p: sum_all(tk.hadamard(tk.tanh(tk.gather_bags(p["E"], store, numbers)), tk.tensor(probe)))
    assert tk.finite_diff_check(fn, {"E": table}, "E") < 1e-8
    # A batch whose every bag is empty yields zeros, with or without a store.
    for empty, numbers in ((store_of([]), [-1, -1]), (store_of([((), ())]), [0, -1])):
        out = tk.gather_bags(table, empty, np.array(numbers))
        assert out.data.shape == (2, 3) and np.all(out.data == 0.0)


def test_gather_rows_bag_shape_errors():
    table = tk.parameter(np.zeros((4, 3)), "E")
    store = store_of([((0, 1), (0.5, 0.5)), ((3,), (1.0,))])
    with pytest.raises(tk.ShapeError, match="1-D"):
        tk.gather_rows(table, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(tk.ShapeError, match="1-D integer array of bags -1..1"):
        tk.gather_bags(table, store, np.zeros((2, 3), dtype=np.int64))
    for numbers in (np.zeros(3), np.array([0, 2]), np.array([-2, 0])):
        with pytest.raises(tk.ShapeError, match="integer array of bags"):
            tk.gather_bags(table, store, numbers)
    with pytest.raises(tk.ShapeError, match="out of range"):
        tk.gather_rows(table, np.array([0, 4]))


@settings(max_examples=150, deadline=None)
@given(
    v=st.integers(1, 6),
    d=st.integers(1, 4),
    n=st.integers(0, 12),
    k=st.sampled_from([None, 0, 1, 3]),
    seed=st.integers(0, 2**16),
)
def test_gather_rows_gradient_bytes_match_add_at_oracle(v, d, n, k, seed):
    # Few table rows, so indices repeat within and across bags; the
    # upstream gradient and weights span magnitudes, so a different
    # summation order would show in the bits. k bounds the bag size.
    g = rng(seed)
    table = tk.parameter(g.normal(size=(v, d)), "E")
    upstream = g.normal(size=(n, d)) * 10.0 ** g.integers(-8, 8, size=(n, d))
    want = np.zeros((v, d))
    if k is None:
        idx = g.integers(0, v, size=n)
        (got,) = tk.gather_rows(table, idx).vjp(upstream)
        np.add.at(want, idx, upstream)
    else:
        bags = [(g.integers(0, v, size=s), g.normal(size=s) * 10.0 ** g.integers(-8, 8, size=s))
                for s in g.integers(0, k + 1, size=4)]
        numbers = g.integers(-1, len(bags), size=n)
        (got,) = tk.gather_bags(table, store_of(bags), numbers).vjp(upstream)
        for row, number in enumerate(numbers):
            if number >= 0:
                ids, weights = bags[number]
                np.add.at(want, ids, upstream[row] * weights[:, None])
    assert got.shape == (v, d) and got.tobytes() == want.tobytes()


@st.composite
def bag_stores(draw):
    """A store of bags of 0 to 25 entries over a few table rows, so ids
    repeat within and across bags, with weights spanning magnitudes."""
    g = rng(draw(st.integers(0, 2**16)))
    v = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 3, 7, 20, 21, 22, 25]), min_size=1, max_size=8))
    bags = [(g.integers(0, v, size=s), g.normal(size=s) * 10.0 ** g.integers(-6, 6, size=s)) for s in sizes]
    numbers = np.array(draw(st.lists(st.integers(-1, len(bags) - 1), max_size=40)), dtype=np.int64)
    return g, v, store_of(bags), numbers


@settings(max_examples=200, deadline=None)
@given(case=bag_stores(), d=st.integers(1, 5))
def test_gather_bags_matches_padded_oracle_bitwise(case, d):
    g, v, store, numbers = case
    table = tk.parameter(g.normal(size=(v, d)) * 10.0 ** g.integers(-6, 6, size=(v, d)), "E")
    out = tk.gather_bags(table, store, numbers)
    want = padded_gather(table, *padded_bags(store, numbers))
    sizes = np.where(numbers < 0, 0, store[2][numbers + 1] - store[2][numbers])
    real = sizes > 0
    assert out.data.shape == (len(numbers), d)
    assert out.data[real].tobytes() == want.data[real].tobytes()
    assert np.all(out.data[~real] == 0.0)
    upstream = g.normal(size=(len(numbers), d)) * 10.0 ** g.integers(-6, 6, size=(len(numbers), d))
    assert out.vjp(upstream)[0].tobytes() == want.vjp(upstream)[0].tobytes()


def identity_head(logits: np.ndarray) -> tuple[tk.Tensor, tk.Tensor]:
    """An output layer that passes (B, M) head rows through as logits,
    bit for bit."""
    m = logits.shape[1]
    return tk.tensor(np.eye(m), "W"), tk.tensor(np.zeros(m), "b")


def test_bce_with_negatives_columns_match_full_affine_and_finite_differences():
    # Column 3 repeats within row 0 and across rows 0, 1 and 3.
    g = rng(11)
    x = tk.parameter(g.normal(size=(4, 3)), "x")
    w = tk.parameter(g.normal(size=(3, 6)), "W")
    b = tk.parameter(g.normal(size=6), "b")
    cols = np.array([[3, 3, 0], [5, 3, 1], [2, 4, 0], [3, 0, 5]])
    loss = tk.bce_with_negatives(x, w, b, cols)
    z = np.take_along_axis(tk.affine(x, w, b).data, cols, axis=1)
    sig = 1.0 / (1.0 + np.exp(-z))
    want = (-np.log(sig[:, 0]) - np.log(1.0 - sig[:, 1:]).sum(axis=1)).mean()
    assert float(loss.data) == pytest.approx(want, rel=1e-13)
    params = {"x": x, "W": w, "b": b}
    fn = lambda p: tk.bce_with_negatives(p["x"], p["W"], p["b"], cols)
    for name in params:
        assert tk.finite_diff_check(fn, params, name) < 1e-8, name
    grads = tk.backward(loss, params)
    dz = sig.copy()
    dz[:, 0] -= 1.0
    dz /= len(cols)
    want_w, want_b = np.zeros((3, 6)), np.zeros(6)
    for i, row in enumerate(cols):
        for j, c in enumerate(row):
            want_w[:, c] += dz[i, j] * x.data[i]
            want_b[c] += dz[i, j]
    np.testing.assert_allclose(grads["W"], want_w, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(grads["b"], want_b, rtol=1e-12, atol=1e-14)


def test_bce_with_negatives_shape_errors():
    x, w, b = tk.tensor(np.zeros((2, 3))), tk.parameter(np.zeros((3, 5)), "W"), tk.tensor(np.zeros(5))
    with pytest.raises(tk.ShapeError, match="out of range"):
        tk.bce_with_negatives(x, w, b, np.array([[0, 5], [1, 2]]))
    with pytest.raises(tk.ShapeError, match="integer"):
        tk.bce_with_negatives(x, w, b, np.zeros((2, 2)))
    with pytest.raises(tk.ShapeError, match=r"\(2,1\+K\)"):
        tk.bce_with_negatives(x, w, b, np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(tk.ShapeError, match=r"\(2,1\+K\)"):
        tk.bce_with_negatives(x, w, b, np.zeros((2, 0), dtype=np.int64))
    with pytest.raises(tk.ShapeError, match="chain"):
        tk.bce_with_negatives(x, w, tk.tensor(np.zeros(4)), np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(tk.ShapeError, match="at least 1 row"):
        tk.bce_with_negatives(tk.tensor(np.zeros((0, 3))), w, b, np.zeros((0, 2), dtype=np.int64))


def test_cross_entropy_uniform_logits_is_log_k():
    # 5 allowed classes with equal logits: loss = ln 5 per the softmax definition.
    mask = np.array([False, False, True, True, True, True, True])
    loss = tk.cross_entropy(tk.tensor(np.zeros((2, 3))), tk.tensor(np.ones((3, 7))), tk.tensor(np.zeros(7)),
                            np.array([2, 4]), mask)
    assert loss.data == pytest.approx(np.log(5.0), abs=1e-12)


def test_cross_entropy_matches_naive_oracle():
    g = rng(7)
    keep = np.array([0, 1, 3, 5])  # of six drawn rows, the ones with a target
    logits_data = g.normal(size=(6, 9))[keep]
    targets = g.integers(2, 9, size=6)[keep]
    class_mask = np.ones(9, dtype=bool)
    class_mask[:2] = False

    logits = tk.parameter(logits_data, "logits")
    w, b = identity_head(logits_data)
    loss = tk.cross_entropy(logits, w, b, targets, class_mask)

    # Definitional oracle: explicit softmax over allowed classes.
    total = 0.0
    for i in range(keep.size):
        z = logits_data[i, class_mask]
        p = np.exp(logits_data[i, targets[i]]) / np.exp(z).sum()
        total += -np.log(p)
    assert float(loss.data) == pytest.approx(total / keep.size, abs=1e-12)

    err = tk.finite_diff_check(
        lambda p: tk.cross_entropy(p["logits"], w, b, targets, class_mask),
        {"logits": logits},
        "logits",
    )
    assert err < 1e-4


def test_cross_entropy_rejects_masked_target():
    w, b = identity_head(np.zeros((1, 4)))
    mask = np.array([False, False, True, True])
    with pytest.raises(ValueError, match="masked-out"):
        tk.cross_entropy(tk.tensor(np.zeros((1, 4))), w, b, np.array([0]), mask)
    with pytest.raises(tk.ShapeError, match="at least 1 row"):
        tk.cross_entropy(tk.tensor(np.zeros((0, 4))), w, b, np.zeros(0, dtype=np.int64), mask)
    with pytest.raises(tk.ShapeError, match="chain"):
        tk.cross_entropy(tk.tensor(np.zeros((1, 3))), w, b, np.array([2]), mask)
    with pytest.raises(tk.ShapeError, match="line up"):
        tk.cross_entropy(tk.tensor(np.zeros((1, 4))), w, b, np.array([2, 3]), mask)


def test_bce_with_negatives_matches_naive_oracle():
    # Column 0 of each row is its target, columns 1..2 its negatives.
    logits_data = rng(8).normal(size=(3, 3))
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    total = 0.0
    for row in logits_data:
        total += -np.log(sig(row[0])) - np.log(1.0 - sig(row[1:])).sum()
    logits = tk.parameter(logits_data, "logits")
    w, b = identity_head(logits_data)
    cols = np.tile(np.arange(3), (3, 1))
    loss = tk.bce_with_negatives(logits, w, b, cols)
    assert float(loss.data) == pytest.approx(total / 3.0, abs=1e-12)
    grad = tk.backward(loss, {"logits": logits})["logits"]
    want = sig(logits_data)
    want[:, 0] -= 1.0
    np.testing.assert_allclose(grad, want / 3.0, rtol=1e-14)
    err = tk.finite_diff_check(lambda p: tk.bce_with_negatives(p["logits"], w, b, cols), {"logits": logits}, "logits")
    assert err < 1e-4


@st.composite
def head_cases(draw):
    """(x, w, b) of a random output layer, each row's target under a
    random class mask, and (B, 1+K) columns that repeat within and across
    rows."""
    bsz, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    m = draw(st.integers(3, 12))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 2))
    x, w, b = (scale * g.normal(size=shape) for shape in ((bsz, d), (d, m), (m,)))
    class_mask = g.random(m) < 0.7
    class_mask[g.integers(m)] = True
    targets = g.choice(np.flatnonzero(class_mask), size=bsz)
    pool = g.integers(0, m, size=draw(st.integers(1, m)))  # a small pool makes many repeats
    cols = g.choice(pool, size=(bsz, draw(st.integers(1, 6))))
    return x, w, b, targets, class_mask, cols


def assert_same_node(fused: tk.Tensor, oracle: tk.Tensor, params: dict) -> None:
    assert fused.data.tobytes() == oracle.data.tobytes()
    got, want = tk.backward(fused, params), tk.backward(oracle, params)
    for name in params:
        assert got[name].tobytes() == want[name].tobytes(), name


@settings(max_examples=60, deadline=None)
@given(head_cases())
def test_fused_losses_match_unfused_oracles_bitwise(case):
    x, w, b, targets, class_mask, cols = case
    params = {"x": tk.parameter(x, "x"), "W": tk.parameter(w, "W"), "b": tk.parameter(b, "b")}
    head = (params["x"], params["W"], params["b"])
    with np.errstate(over="ignore"):  # a sigmoid of a large logit saturates in both
        assert_same_node(
            tk.cross_entropy(*head, targets, class_mask), affine_cross_entropy(*head, targets, class_mask), params
        )
        assert_same_node(tk.bce_with_negatives(*head, cols), affine_columns_bce(*head, cols), params)


def test_adam_zero_gradient_leaves_params_unchanged():
    p = {"w": tk.parameter(np.array([1.0, -2.0]), "w")}
    state = tk.AdamState()
    out = tk.adam_step(p, {"w": np.zeros(2)}, state, lr=0.1)
    np.testing.assert_array_equal(out["w"].data, p["w"].data)


def test_adam_first_step_matches_hand_formula():
    # t=1, g=1: mhat=1, vhat=1, so the step is lr/(1+eps).
    p = {"w": tk.parameter(np.array([0.5]), "w")}
    state = tk.AdamState()
    out = tk.adam_step(p, {"w": np.ones(1)}, state, lr=0.01, eps=1e-8)
    expected = 0.5 - 0.01 / (1.0 + 1e-8)
    assert out["w"].data[0] == pytest.approx(expected, abs=1e-15)


def test_adam_descends_convex_quadratic():
    params = {"w": tk.parameter(np.array([3.0, -2.0]), "w")}
    state = tk.AdamState()

    def loss_of(p):
        return float((p["w"].data ** 2).sum())

    losses = [loss_of(params)]
    for _ in range(2):
        grads = {"w": 2.0 * params["w"].data}
        params = tk.adam_step(params, grads, state, lr=0.05)
        losses.append(loss_of(params))
    assert losses[1] < losses[0] and losses[2] < losses[1]


def test_adam_returns_parameters_that_train_again():
    params = {"w": tk.parameter(np.array([3.0, -2.0]), "w")}
    x = tk.tensor(np.array([1.0, 0.5]))
    state = tk.AdamState()
    seen = [params["w"].data]
    for _ in range(2):
        grads = tk.backward(sum_all(tk.hadamard(tk.hadamard(params["w"], params["w"]), x)), params)
        params = tk.adam_step(params, grads, state, lr=0.1)
        assert isinstance(params["w"], tk.Parameter)
        seen.append(params["w"].data)
    assert np.all(seen[2] != seen[1]) and np.all(seen[1] != seen[0])


def test_adam_shape_mismatch():
    p = {"w": tk.parameter(np.zeros(3), "w")}
    with pytest.raises(tk.ShapeError):
        tk.adam_step(p, {"w": np.zeros(4)}, tk.AdamState(), lr=0.1)


def test_gradient_accumulates_over_shared_subexpression():
    x = tk.parameter(np.array([2.0]), "x")
    y = add(x, x)  # dy/dx = 2
    grads = tk.backward(sum_all(y), {"x": x})
    np.testing.assert_array_equal(grads["x"], [2.0])


def test_add_gives_each_parent_its_own_gradient():
    # a's second contribution must not leak into b's gradient.
    a = tk.parameter(np.array([1.0, 2.0]), "a")
    b = tk.parameter(np.array([3.0, 4.0]), "b")
    c = tk.tensor(np.array([5.0, 6.0]))
    grads = tk.backward(sum_all(add(add(a, b), a)), {"a": a, "b": b})
    np.testing.assert_array_equal(grads["a"], [2.0, 2.0])
    np.testing.assert_array_equal(grads["b"], [1.0, 1.0])
    grads = tk.backward(sum_all(add(add(a, b), tk.hadamard(a, c))), {"a": a, "b": b})
    np.testing.assert_array_equal(grads["a"], [6.0, 7.0])
    np.testing.assert_array_equal(grads["b"], [1.0, 1.0])


def _scan_graph(carry_name):
    def fn(params):
        carry = None if carry_name is None else params[carry_name]
        h = tk.linear_scan(params["x"], carry, 4)
        return sum_all(tk.tanh(tk.hadamard(h, params["w"])))
    return fn


@pytest.mark.parametrize("carry_name", ["c", None])
def test_linear_scan_gradients_match_finite_differences(carry_name):
    # Three sequences of four steps; once with a carry matrix, once with
    # the identity (carry None).
    g = rng(9)
    params = {
        "x": tk.parameter(g.uniform(-1, 1, size=(12, 3)), "x"),
        "w": tk.parameter(g.uniform(-1, 1, size=(12, 3)), "w"),
        "c": tk.parameter(g.uniform(-0.8, 0.8, size=(3, 3)), "c"),
    }
    for name in params:
        err = tk.finite_diff_check(_scan_graph(carry_name), params, name, h=1e-5)
        assert err < 1e-6, f"{name}: {err}"


def test_linear_scan_matches_step_loop():
    g = rng(10)
    x = g.normal(size=(2 * 5, 3))
    c = g.normal(size=(3, 3))
    out = tk.linear_scan(tk.tensor(x), tk.tensor(c), 5).data
    ident = tk.linear_scan(tk.tensor(x), None, 5).data
    for b in range(2):
        h = np.zeros(3)
        s = np.zeros(3)
        for t in range(5):
            h = h @ c + x[b * 5 + t]
            s = s + x[b * 5 + t]
            np.testing.assert_allclose(out[b * 5 + t], h, rtol=1e-13, atol=1e-13)
            assert ident[b * 5 + t].tobytes() == s.tobytes()  # a running sum, added in order


def test_linear_scan_rejects_partial_sequences():
    with pytest.raises(tk.ShapeError, match="whole sequences"):
        tk.linear_scan(tk.tensor(np.zeros((5, 2))), None, 2)
    with pytest.raises(tk.ShapeError, match="carry"):
        tk.linear_scan(tk.tensor(np.zeros((4, 2))), tk.tensor(np.zeros((3, 3))), 2)
