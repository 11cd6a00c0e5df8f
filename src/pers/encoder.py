"""Representing module: enhanced exercise and code embeddings.

Exercise ids index an embedding table whose row is concatenated with a
sinusoidal position code, gathered from a table built once per shape,
and projected to width d_k; code vectors are concatenated with status /
execution-time / memory embeddings (bucketed by `dataio`) and projected
likewise. All functions operate on batches: index arrays of shape (B,)
produce (B, d_k) graph nodes, where a row may be any step of any window.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import tensorkit as tk


@dataclass(frozen=True)
class HyperParams:
    """Model widths. d_pos must be even (sin/cos pairs); defaults mirror
    the reference configuration with d_pos tied to d_p."""

    d_p: int = 128
    d_c: int = 128
    d_k: int = 128
    d_pos: int | None = None
    d_ct: int = 16
    d_cm: int = 16
    d_cs: int = 16
    max_len: int = 50
    n_exercises: int = 0

    def __post_init__(self):
        if self.d_pos is None:
            object.__setattr__(self, "d_pos", self.d_p)
        if self.d_pos % 2 != 0:
            raise ValueError(f"d_pos must be even, got {self.d_pos}")
        for name in ("d_p", "d_c", "d_k", "d_ct", "d_cm", "d_cs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")

    def with_exercises(self, n: int) -> "HyperParams":
        return replace(self, n_exercises=n)

    @property
    def vocab_size(self) -> int:
        """Output / embedding table height: N real exercises + 2 pads."""
        return self.n_exercises + 2


def positional_encoding(t, d_pos: int) -> np.ndarray:
    """Sinusoid position code: entry 2i = sin(t/10000^(2i/d)), 2i+1 = cos.

    t is one position or an array of positions; the code is the last axis.
    """
    if d_pos % 2 != 0:
        raise ValueError(f"d_pos must be even, got {d_pos}")
    t = np.asarray(t)
    if np.any(t < 0):
        raise ValueError(f"position must be >= 0, got {t.min()}")
    i = np.arange(d_pos // 2)
    angle = t[..., None] / np.power(10000.0, 2.0 * i / d_pos)
    out = np.empty(angle.shape[:-1] + (d_pos,))
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return out


@functools.lru_cache(maxsize=8)  # one length per training and eval, a few per export
def position_table(length: int, d_pos: int) -> np.ndarray:
    """The read-only (length, d_pos) codes of positions 0..length-1, built
    once per shape: row t is positional_encoding(t, d_pos), bitwise."""
    table = positional_encoding(np.arange(length), d_pos)
    table.flags.writeable = False
    return table


def apply_mlp(params: dict[str, tk.Tensor], tag: str, x: tk.Tensor, layers: int = 1) -> tk.Tensor:
    """Affine projection, deepened by (tanh, affine) pairs when layers > 1."""
    y = tk.affine(x, params[f"W_{tag}"], params[f"b_{tag}"])
    for l in range(2, layers + 1):
        y = tk.affine(tk.tanh(y), params[f"W_{tag}.{l}"], params[f"b_{tag}.{l}"])
    return y


def enhance_exercise(
    params: dict[str, tk.Tensor],
    hp: HyperParams,
    indices: np.ndarray,
    t,
    use_position: bool = True,
    layers: int = 1,
) -> tk.Tensor:
    """Position-aware exercise embedding for a batch of (B,) indices.

    t is the position of every row: one int, or a (B,) int array. With
    use_position=False (position-encoding ablation) the position slot is
    zeros, keeping the projection shape unchanged.
    """
    idx = np.asarray(indices)
    e_p = tk.gather_rows(params["E_p"], idx)
    if use_position:
        t = np.broadcast_to(t, idx.shape)
        if t.size and t.min() < 0:
            raise ValueError(f"position must be >= 0, got {t.min()}")
        pos = position_table(int(t.max(initial=0)) + 1, hp.d_pos)[t]
    else:
        pos = np.zeros((idx.shape[0], hp.d_pos))
    return apply_mlp(params, "1", tk.concat([e_p, tk.tensor(pos)]), layers)


def enhance_code(
    params: dict[str, tk.Tensor],
    hp: HyperParams,
    code_vec: tk.Tensor,
    status_idx: np.ndarray,
    time_idx: np.ndarray,
    memory_idx: np.ndarray,
    layers: int = 1,
) -> tk.Tensor:
    """Code embedding enriched with status / time / memory lookups.

    code_vec is a (B, d_c) node: each row's weighted bag of code-table
    rows (frozen vectors or trainable hash buckets), or zeros for the
    code-ablated variants.
    """
    es = tk.gather_rows(params["status_table"], np.asarray(status_idx))
    et = tk.gather_rows(params["time_table"], np.asarray(time_idx))
    em = tk.gather_rows(params["memory_table"], np.asarray(memory_idx))
    return apply_mlp(params, "2", tk.concat([code_vec, es, et, em]), layers)
