"""Sources for the initial code embedding.

The reference pipeline consumes frozen pretrained code vectors; at desk
scale we substitute two sources behind one interface: a precomputed
vector table keyed by code_vec_ref, and a trainable hashed token bag for
raw code text. Token hashing is pinned to 64-bit FNV-1a so stored tables
stay portable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .dataio import Interaction

VECTORS_MAGIC = "PERSVEC1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TOKEN_RE = re.compile(r"[0-9a-z]+")


class CodeFeatureError(ValueError):
    """Missing or inconsistent code features for the active source."""


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def tokenize(code: str) -> list[str]:
    """Lowercased alphanumeric runs; everything else separates tokens."""
    return _TOKEN_RE.findall(code.lower())


@dataclass(frozen=True)
class PrecomputedSource:
    """Frozen ref -> vector table (no gradient flows into these)."""

    table: dict[str, np.ndarray]
    dim: int

    kind = "precomputed"

    def vector(self, interaction: Interaction) -> np.ndarray:
        ref = interaction.code_vec_ref
        if ref is None:
            raise CodeFeatureError(
                f"interaction of {interaction.learner_id} at t={interaction.timestamp} has no code_vec_ref"
            )
        vec = self.table.get(ref)
        if vec is None:
            raise CodeFeatureError(f"code_vec_ref '{ref}' not in vector table")
        return vec


class HashedTokenSource:
    """Mean of hash-bucket embeddings over the code's tokens.

    The bucket table is a trainable parameter; `weights` returns the
    per-bucket convex weights so the model can route gradients through a
    plain matmul. An empty token list yields the zero vector.
    """

    kind = "hashed_tokens"

    def __init__(self, buckets: int, dim: int):
        if buckets < 1:
            raise ValueError("need at least one hash bucket")
        self.buckets = buckets
        self.dim = dim

    def bucket(self, token: str) -> int:
        return fnv1a64(token.encode("utf-8")) % self.buckets

    def weights(self, interaction: Interaction) -> np.ndarray:
        if interaction.code is None:
            raise CodeFeatureError(
                f"interaction of {interaction.learner_id} at t={interaction.timestamp} has no code text"
            )
        w = np.zeros(self.buckets)
        tokens = tokenize(interaction.code)
        if not tokens:
            return w
        for tok in tokens:
            w[self.bucket(tok)] += 1.0
        return w / len(tokens)


def write_vectors(path, table: dict[str, np.ndarray], dim: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VECTORS_MAGIC} d_c={dim}\n")
        for ref, vec in table.items():
            fh.write(ref + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def read_vectors(path) -> PrecomputedSource:
    """Load a vectors file: header 'PERSVEC1 d_c=<int>', then ref + floats."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        parts = header.split()
        if len(parts) != 2 or parts[0] != VECTORS_MAGIC or not parts[1].startswith("d_c="):
            raise CodeFeatureError(f"bad vectors header: {header!r}")
        try:
            dim = int(parts[1][4:])
        except ValueError:
            raise CodeFeatureError(f"bad d_c in header: {header!r}") from None
        table: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != dim + 1:
                raise CodeFeatureError(f"line {lineno}: expected {dim} floats after ref")
            table[fields[0]] = np.array([float(x) for x in fields[1:]])
    return PrecomputedSource(table, dim)
