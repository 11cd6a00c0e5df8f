from __future__ import annotations

import numpy as np
import pytest

from pers import codefeat
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


def test_precomputed_lookup_is_bit_exact():
    vec = np.array([0.5, -1.25, 3.0])
    src = codefeat.PrecomputedSource({"v17": vec}, 3)
    out = src.vector(interaction(ref="v17"))
    assert out.tobytes() == vec.tobytes()


def test_precomputed_missing_ref():
    src = codefeat.PrecomputedSource({}, 3)
    with pytest.raises(codefeat.CodeFeatureError, match="v9"):
        src.vector(interaction(ref="v9"))
    with pytest.raises(codefeat.CodeFeatureError):
        src.vector(interaction())


def test_hashed_empty_code_gives_zero_vector():
    src = codefeat.HashedTokenSource(buckets=8, dim=4)
    w = src.weights(interaction(code="  !! "))
    assert np.all(w == 0.0) and w.shape == (8,)


def test_hashed_mean_matches_hand_evaluation():
    # "a a b": (2*emb[h(a)] + emb[h(b)]) / 3 with reference FNV-1a buckets.
    src = codefeat.HashedTokenSource(buckets=16, dim=3)
    rng = np.random.default_rng(0)
    table = rng.normal(size=(16, 3))
    h_a = codefeat.fnv1a64(b"a") % 16
    h_b = codefeat.fnv1a64(b"b") % 16
    expected = (2.0 * table[h_a] + table[h_b]) / 3.0
    w = src.weights(interaction(code="a a b"))
    assert w[h_a] == pytest.approx(2.0 / 3.0) and w[h_b] == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(w @ table, expected, atol=1e-15)


def test_hashed_missing_code_text():
    src = codefeat.HashedTokenSource(buckets=8, dim=4)
    with pytest.raises(codefeat.CodeFeatureError, match="no code text"):
        src.weights(interaction(ref="v1"))


def test_same_code_same_vector():
    src = codefeat.HashedTokenSource(buckets=32, dim=5)
    a = src.weights(interaction(code="for i in range(9)"))
    b = src.weights(interaction(code="for i in range(9)"))
    assert a.tobytes() == b.tobytes()


def test_hashed_output_norm_bounded_by_max_bucket_norm():
    # The weights are convex, so the code embedding is a convex combination
    # of bucket rows and no longer than the longest of them.
    src = codefeat.HashedTokenSource(buckets=8, dim=4)
    rng = np.random.default_rng(2)
    table = rng.normal(size=(8, 4))
    max_norm = np.linalg.norm(table, axis=1).max()
    for code in ("a b c d", "x", "loop while loop", "alpha beta gamma delta epsilon"):
        w = src.weights(interaction(code=code))
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(w @ table) <= max_norm + 1e-12


def test_vectors_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    table = {f"ref{i}": rng.normal(size=6) for i in range(4)}
    path = tmp_path / "vecs.txt"
    codefeat.write_vectors(path, table, 6)
    src = codefeat.read_vectors(path)
    assert src.dim == 6
    for ref, vec in table.items():
        assert src.table[ref].tobytes() == vec.tobytes()


def test_vectors_file_bad_header(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("WRONG 6\nref0 1 2 3 4 5 6\n")
    with pytest.raises(codefeat.CodeFeatureError, match="header"):
        codefeat.read_vectors(path)


def test_vectors_file_wrong_width(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("PERSVEC1 d_c=3\nref0 1.0 2.0\n")
    with pytest.raises(codefeat.CodeFeatureError, match="line 2"):
        codefeat.read_vectors(path)
