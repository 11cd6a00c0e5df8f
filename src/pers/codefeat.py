"""Sources for the initial code embedding.

The reference pipeline consumes frozen pretrained code vectors; at desk
scale we substitute two sources behind one interface: a precomputed
vector table keyed by code_vec_ref, and a trainable hashed token bag for
raw code text. Both describe an event's code as a weighted bag of rows
of one table, and `table_for` returns that table, so the model has a
single code path. Each source numbers the bags it has seen
(`bag_numbers`) and keeps them in one CSR `store`: flat table rows,
flat weights, and offsets with bag n at [offsets[n], offsets[n+1]).
A batch carries bag numbers only; `tk.gather_bags` sums the bags from
the store. The hashed source tokenizes a submission once per source. Token hashing is pinned to 64-bit FNV-1a so
stored tables stay portable.
"""

from __future__ import annotations

import array
import functools
import re
from collections import Counter
from itertools import chain
from typing import Sequence

import numpy as np

from . import tensorkit as tk
from .dataio import Interaction, numbered_lines

VECTORS_MAGIC = "PERSVEC1"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_TOKEN_RE = re.compile(r"[0-9a-z]+")

Bag = tuple[tuple[int, ...], tuple[float, ...]]  # (table rows, their weights)


class CodeFeatureError(ValueError):
    """Missing or inconsistent code features for the active source."""


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@functools.lru_cache(maxsize=1 << 16)  # code reuses a small token vocabulary
def _token_hash(token: str) -> int:
    return fnv1a64(token.encode("utf-8"))


def tokenize(code: str) -> list[str]:
    """Lowercased alphanumeric runs; everything else separates tokens."""
    return _TOKEN_RE.findall(code.lower())


def _lookup(index: dict, keys: list) -> np.ndarray:
    """index[key] for every key, -1 where the key is absent."""
    return np.fromiter(map(index.get, keys, [-1] * len(keys)), dtype=np.int64, count=len(keys))


def _missing(interaction: Interaction, what: str) -> CodeFeatureError:
    return CodeFeatureError(f"interaction of {interaction.learner_id} at t={interaction.timestamp} has no {what}")


class PrecomputedSource:
    """Frozen pretrained vectors: row `rows[ref]` of `matrix` (R, dim) is
    the vector of ref. No gradient flows into them. Bag n is row n alone,
    with weight 1."""

    def __init__(self, table: dict[str, np.ndarray], dim: int):
        matrix = np.array(list(table.values()), dtype=np.float64).reshape(len(table), dim)
        self._adopt({ref: i for i, ref in enumerate(table)}, matrix)

    @classmethod
    def from_matrix(cls, rows: dict[str, int], matrix: np.ndarray) -> PrecomputedSource:
        """The source over `matrix` (R, dim) as it is, without a copy: the
        vector of ref is row rows[ref]."""
        source = cls.__new__(cls)
        source._adopt(rows, matrix)
        return source

    def _adopt(self, rows: dict[str, int], matrix: np.ndarray) -> None:
        self.dim = matrix.shape[1]
        self.rows = rows
        self.matrix = matrix
        self.matrix.flags.writeable = False
        offsets = np.arange(len(rows) + 1, dtype=np.int64)
        # Views, not copies: the store holds one array of len(rows) + 1.
        self.store = (offsets[:-1], np.broadcast_to(1.0, (len(rows),)), offsets)

    def bag_numbers(self, events: Sequence[Interaction]) -> np.ndarray:
        """The bag number of each event's code: its vector's row."""
        numbers = _lookup(self.rows, [ev.code_vec_ref for ev in events])
        if (numbers < 0).any():
            ev = events[int(np.argmax(numbers < 0))]
            if ev.code_vec_ref is None:
                raise _missing(ev, "code_vec_ref")
            raise CodeFeatureError(f"code_vec_ref '{ev.code_vec_ref}' not in vector table")
        return numbers

    def table_for(self, tensors: dict[str, tk.Tensor]) -> tk.Tensor:
        if "code_table" in tensors:
            raise CodeFeatureError("the checkpoint was trained on hashed code tokens; use code_source=hashed")
        return tk.tensor(self.matrix)


class HashedTokenSource:
    """Mean of hash-bucket embeddings over the code's tokens.

    The bucket table is the model's trainable `code_table`; `weights`
    returns the distinct buckets of the code's tokens with each one's
    share of the tokens. An empty token list is an empty bag, the zero
    vector.

    Bags are interned by code text: `bag_numbers` sends only a text it
    has not seen through `weights` and appends its bag to the store, so
    each distinct submission is tokenized once per source.
    """

    def __init__(self, buckets: int, dim: int):
        if buckets < 1:
            raise ValueError("need at least one hash bucket")
        self.buckets = buckets
        self.dim = dim
        self._numbers: dict[str, int] = {}  # code text -> bag number
        self.store = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(1, dtype=np.int64))

    def weights(self, interaction: Interaction) -> Bag:
        if interaction.code is None:
            raise _missing(interaction, "code text")
        tokens = tokenize(interaction.code)
        counts = Counter(_token_hash(tok) % self.buckets for tok in tokens)
        return tuple(counts), tuple(c / len(tokens) for c in counts.values())

    def bag_numbers(self, events: Sequence[Interaction]) -> np.ndarray:
        """The bag number of each event's code, interning unseen texts."""
        texts = [ev.code for ev in events]
        numbers = _lookup(self._numbers, texts)
        new: list[Bag] = []
        try:
            for i in np.flatnonzero(numbers < 0).tolist():
                n = self._numbers.get(texts[i])
                if n is None:
                    new.append(self.weights(events[i]))  # raises on a missing text
                    n = self._numbers[texts[i]] = len(self._numbers)
                numbers[i] = n
        finally:  # bags numbered before a raise still enter the store
            if new:
                self._append(new)
        return numbers

    def _append(self, bags: list[Bag]) -> None:
        ids, weights, offsets = self.store
        sizes = np.fromiter((len(rows) for rows, _ in bags), dtype=np.int64, count=len(bags))
        self.store = (
            np.concatenate([ids, np.fromiter(chain.from_iterable(r for r, _ in bags), dtype=np.int64)]),
            np.concatenate([weights, np.fromiter(chain.from_iterable(w for _, w in bags), dtype=np.float64)]),
            np.concatenate([offsets, offsets[-1] + np.cumsum(sizes)]),
        )

    def table_for(self, tensors: dict[str, tk.Tensor]) -> tk.Tensor:
        table = tensors.get("code_table")
        if table is None:
            raise CodeFeatureError("the checkpoint was trained on precomputed vectors; use code_source=precomputed")
        if table.data.shape != (self.buckets, self.dim):
            rows, dim = table.data.shape
            raise CodeFeatureError(f"checkpoint has {rows} hash buckets x {dim}, source {self.buckets} x {self.dim}")
        return table


def write_vectors(path, table: dict[str, np.ndarray], dim: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{VECTORS_MAGIC} d_c={dim}\n")
        for ref, vec in table.items():
            fh.write(ref + " " + " ".join(repr(float(x)) for x in vec) + "\n")


def read_vectors(path) -> PrecomputedSource:
    """Load a vectors file: header 'PERSVEC1 d_c=<int>' with d_c >= 1, then
    a ref and d_c floats per line, each ref on one line only."""
    with open(path, "rb") as fh:
        lines = numbered_lines(fh)
        _, header = next(lines, (1, ""))
        if header is None:
            raise CodeFeatureError(f"{path}: line 1 is not UTF-8 text")
        header = header.rstrip("\n")
        parts = header.split()
        if len(parts) != 2 or parts[0] != VECTORS_MAGIC or not parts[1].startswith("d_c="):
            raise CodeFeatureError(f"{path}: bad vectors header: {header!r}")
        try:
            dim = int(parts[1][4:])
        except ValueError:
            dim = 0  # refused below
        if dim < 1:
            raise CodeFeatureError(f"{path}: bad d_c in header: {header!r}; need an integer >= 1")
        rows: dict[str, int] = {}
        values = array.array("d")  # every vector's floats, row after row
        for lineno, line in lines:
            if line is None:
                raise CodeFeatureError(f"{path}: line {lineno} is not UTF-8 text")
            fields = line.split()
            if not fields:
                continue
            if len(fields) != dim + 1:
                raise CodeFeatureError(f"{path}: line {lineno}: expected {dim} floats after ref")
            ref = fields[0]
            if ref in rows:
                raise CodeFeatureError(f"{path}: line {lineno}: ref {ref!r} is listed twice")
            try:
                values.extend(map(float, fields[1:]))
            except ValueError as exc:
                raise CodeFeatureError(f"{path}: line {lineno}: {exc}") from None
            rows[ref] = len(rows)
    matrix = np.frombuffer(values, dtype=np.float64).reshape(len(rows), dim)
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise CodeFeatureError(f"{path}: vector of '{list(rows)[int(np.argmax(bad))]}' is not finite")
    return PrecomputedSource.from_matrix(rows, matrix)
