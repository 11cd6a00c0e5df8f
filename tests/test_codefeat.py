from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import precomputed_bag, store_of
from pers import codefeat, tensorkit as tk
from pers.dataio import Interaction


def interaction(code=None, ref=None):
    return Interaction("u1", "p1", 0, "accepted", 10, 100, code=code, code_vec_ref=ref)


def test_fnv1a64_reference_values():
    # Published FNV-1a test vectors.
    assert codefeat.fnv1a64(b"") == 0xCBF29CE484222325
    assert codefeat.fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert codefeat.fnv1a64(b"foobar") == 0x85944171F73967E8


def test_tokenize_lowercases_and_splits():
    assert codefeat.tokenize("int Main_2(x); // x") == ["int", "main", "2", "x", "x"]
    assert codefeat.tokenize("!!!") == []


def dense(bag, buckets):
    """The bag as the dense per-bucket histogram the hashed source once
    built: each token adds 1 to its bucket, then the row is divided by the
    token count. The oracle for the bag path."""
    w = np.zeros(buckets)
    for i, share in zip(*bag):
        w[i] += share
    return w


def dense_oracle(code, buckets):
    w = np.zeros(buckets)
    tokens = codefeat.tokenize(code)
    for tok in tokens:
        w[codefeat.fnv1a64(tok.encode("utf-8")) % buckets] += 1.0
    return w / len(tokens) if tokens else w


def test_precomputed_lookup_is_bit_exact():
    vec = np.array([0.5, -1.25, 3.0])
    src = codefeat.PrecomputedSource({"v0": np.zeros(3), "v17": vec}, 3)
    rows, weights = precomputed_bag(src, interaction(ref="v17"))
    assert rows == (1,) and weights == (1.0,)
    table = src.table_for({})
    assert table.data[1].tobytes() == vec.tobytes()
    out = tk.gather_bags(table, store_of([(rows, weights)]), np.array([0]))
    assert out.data[0].tobytes() == vec.tobytes()


def test_precomputed_missing_ref():
    src = codefeat.PrecomputedSource({}, 3)
    with pytest.raises(codefeat.CodeFeatureError, match="v9"):
        precomputed_bag(src, interaction(ref="v9"))
    with pytest.raises(codefeat.CodeFeatureError):
        precomputed_bag(src, interaction())


def test_hashed_empty_code_gives_zero_vector():
    src = codefeat.HashedTokenSource(buckets=8, dim=4)
    assert src.weights(interaction(code="  !! ")) == ((), ())
    table = tk.tensor(np.ones((8, 4)))
    out = tk.gather_bags(table, store_of([((), ())]), np.array([0]))
    assert out.data.shape == (1, 4) and np.all(out.data == 0.0)


def test_hashed_mean_matches_hand_evaluation():
    # "a a b": (2*emb[h(a)] + emb[h(b)]) / 3 with reference FNV-1a buckets.
    src = codefeat.HashedTokenSource(buckets=16, dim=3)
    rng = np.random.default_rng(0)
    table = rng.normal(size=(16, 3))
    h_a = codefeat.fnv1a64(b"a") % 16
    h_b = codefeat.fnv1a64(b"b") % 16
    expected = (2.0 * table[h_a] + table[h_b]) / 3.0
    rows, weights = src.weights(interaction(code="a a b"))
    assert dict(zip(rows, weights)) == {h_a: pytest.approx(2.0 / 3.0), h_b: pytest.approx(1.0 / 3.0)}
    out = tk.gather_bags(tk.tensor(table), store_of([(rows, weights)]), np.array([0]))
    np.testing.assert_allclose(out.data[0], expected, atol=1e-15)


def test_hashed_missing_code_text():
    src = codefeat.HashedTokenSource(buckets=8, dim=4)
    with pytest.raises(codefeat.CodeFeatureError, match="no code text"):
        src.weights(interaction(ref="v1"))


def test_same_code_same_vector():
    src = codefeat.HashedTokenSource(buckets=32, dim=5)
    a = src.weights(interaction(code="for i in range(9)"))
    b = src.weights(interaction(code="for i in range(9)"))
    assert a == b


def test_hashed_output_norm_bounded_by_max_bucket_norm():
    # The weights are convex, so the code embedding is a convex combination
    # of bucket rows and no longer than the longest of them.
    src = codefeat.HashedTokenSource(buckets=8, dim=4)
    rng = np.random.default_rng(2)
    table = rng.normal(size=(8, 4))
    max_norm = np.linalg.norm(table, axis=1).max()
    for code in ("a b c d", "x", "loop while loop", "alpha beta gamma delta epsilon"):
        rows, weights = src.weights(interaction(code=code))
        assert len(set(rows)) == len(rows) and all(w > 0.0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-15)
        out = tk.gather_bags(tk.tensor(table), store_of([(rows, weights)]), np.array([0]))
        assert np.linalg.norm(out.data[0]) <= max_norm + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    code=st.text(alphabet="abcxyz019 _(){};=+\nAB", max_size=80),
    buckets=st.sampled_from([1, 2, 7, 64, 2048]),
    seed=st.integers(0, 2**16),
)
def test_bag_matches_dense_histogram_times_table(code, buckets, seed):
    src = codefeat.HashedTokenSource(buckets=buckets, dim=5)
    bag = src.weights(interaction(code=code))
    oracle = dense_oracle(code, buckets)
    np.testing.assert_array_equal(dense(bag, buckets), oracle)
    assert sum(bag[1]) == pytest.approx(1.0 if codefeat.tokenize(code) else 0.0, abs=1e-12)
    table = np.random.default_rng(seed).normal(size=(buckets, 5))
    got = tk.gather_bags(tk.tensor(table), store_of([bag]), np.array([0])).data[0]
    want = oracle @ table
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_token_hash_is_memoised():
    codefeat._token_hash.cache_clear()
    src = codefeat.HashedTokenSource(buckets=64, dim=2)
    for _ in range(3):
        src.weights(interaction(code="x = x + y; x = y"))
    info = codefeat._token_hash.cache_info()
    assert info.misses == 2 and info.hits == 3 * 5 - 2 and info.maxsize is not None


def test_vectors_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    table = {f"ref{i}": rng.normal(size=6) for i in range(4)}
    path = tmp_path / "vecs.txt"
    codefeat.write_vectors(path, table, 6)
    src = codefeat.read_vectors(path)
    assert src.dim == 6
    for ref, vec in table.items():
        assert src.matrix[src.rows[ref]].tobytes() == vec.tobytes()


def test_vectors_file_bad_header(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("WRONG 6\nref0 1 2 3 4 5 6\n")
    with pytest.raises(codefeat.CodeFeatureError, match="header"):
        codefeat.read_vectors(path)
    # A width below 1, a bad float, a byte that is not UTF-8 or a ref on a
    # second line (which would silently replace the first vector): one
    # line naming the file and the line.
    for content, fragment in (
        (b"PERSVEC1 d_c=-1\nref0\n", "vecs.txt: bad d_c in header: 'PERSVEC1 d_c=-1'; need an integer >= 1"),
        (b"PERSVEC1 d_c=0\nref0\n", "bad d_c in header: 'PERSVEC1 d_c=0'"),
        (b"PERSVEC1 d_c=x\nref0 1\n", "bad d_c in header"),
        (b"PERSVEC1 d_c=2\nref0 1 2\n\nref1 1x5 2\n", "vecs.txt: line 4: could not convert string to float: '1x5'"),
        (b"PERSVEC1 d_c=2\nref0 1 2\nref1 1.\xb6 2\n", "vecs.txt: line 3 is not UTF-8 text"),
        (b"PERSVEC1 d_c=2\xb6\nref0 1 2\n", "vecs.txt: line 1 is not UTF-8 text"),
        (b"PERSVEC1 d_c=2\nr0 1 2\nr1 5 6\nr0 3 4\n", "vecs.txt: line 4: ref 'r0' is listed twice"),
    ):
        path.write_bytes(content)
        with pytest.raises(codefeat.CodeFeatureError) as info:
            codefeat.read_vectors(path)
        assert fragment in str(info.value) and "\n" not in str(info.value)


def test_vectors_file_wrong_width(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("PERSVEC1 d_c=3\nref0 1.0 2.0\n")
    with pytest.raises(codefeat.CodeFeatureError, match="line 2"):
        codefeat.read_vectors(path)
