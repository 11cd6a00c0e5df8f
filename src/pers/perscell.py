"""The recurrence cell: differencing, latent-state updates, prediction.

Each step consumes the enhanced exercise/code embeddings of the current
and previous events, updates the three latent vectors (programming
ability PA, processing style PS, understanding style US), and maps
them through the W_11 MLP to the head, the input of the output layer
W_12. The cell is linear in its latent state:
PA_t = dPA_t W_6a + PA_{t-1} W_6b + b_6, PS_t = PS_{t-1} W_8a +
(g_ps * dc_t) W_8b + b_8 and US_t = US_{t-1} + (g_us * e_p,t) W_10, where
every gate, difference and embedding reads only the inputs. `run_window`
therefore computes those over all B*L steps of a batch at once and
leaves three linear scans as the only sequential work. Padding is
trailing, so it never reaches a real step's state. The unroll ends at
the head of each step that has a target: the training loss applies W_12
inside its one tape node (`tk.cross_entropy`, `tk.bce_with_negatives`),
and evaluation applies it one block of targets at a time.

Ablation variants share this single code path and only flip inputs:
position or code inputs collapse to zeros, or one latent is replaced by
zeros in the prediction concat.

A batch's arrays are index gathers from the columns of the one
`dataio.EventTable` that holds its windows' events, which encodes each
row once and keeps it for later passes. `assemble_batch` refuses windows
from more than one table and a vocabulary other than the table's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import tensorkit as tk
from .codefeat import HashedTokenSource, PrecomputedSource
from .dataio import N_MEMORY_BUCKETS, N_TIME_BUCKETS, PAD_INDEX, STATUSES, EventTable, MaskedWindow, Vocabulary
from .encoder import HyperParams, apply_mlp, enhance_code, enhance_exercise

VARIANTS = ("PERS", "ERS", "PERS-ep", "PERS-cr", "PERS-pa", "PERS-ps", "PERS-us")


def uses_code(variant: str) -> bool:
    return variant not in ("ERS", "PERS-cr")


def uses_position(variant: str) -> bool:
    return variant != "PERS-ep"


def ablated_latent(variant: str) -> str | None:
    return {"PERS-pa": "pa", "PERS-ps": "ps", "PERS-us": "us"}.get(variant)


@dataclass
class ModelParams:
    """Every named tensor plus the knobs needed to rebuild the graph."""

    hyper: HyperParams
    variant: str = "PERS"
    layers: int = 1
    code_buckets: int | None = None
    tensors: dict[str, tk.Tensor] = field(default_factory=dict)

    def replace_tensors(self, tensors: dict[str, tk.Tensor]) -> "ModelParams":
        return ModelParams(self.hyper, self.variant, self.layers, self.code_buckets, tensors)

    def frozen(self) -> "ModelParams":
        """The same model with every tensor rewrapped, uncopied, as a
        constant: a run on it records no tape, so inference keeps only the
        arrays it still reads."""
        return self.replace_tensors({name: tk.tensor(t.data, name) for name, t in self.tensors.items()})


def param_shapes(hp: HyperParams, layers: int = 1, code_buckets: int | None = None) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every model tensor, in the order `init_model_params`
    draws them: the one definition of the model's tensor set.

    The exercise and code encoders (E_p, the status/time/memory tables,
    W_1, W_2), differencing (W_3, W_4), the PA/PS/US updates (W_5-W_10)
    and the predictor (W_11, W_12), plus the hash-bucket code table when
    the code source is hashed. W_1, W_2 and W_11 gain a (d_k, d_k) layer
    per extra layer. W_10 carries no bias: the understanding-style
    recurrence is a pure accumulation, so a bias term would break its
    hold-when-gated-shut property.
    """
    if hp.n_exercises < 1:
        raise ValueError("hyperparams need n_exercises set (use hp.with_exercises)")
    d = hp.d_k
    shapes = {
        "E_p": (hp.vocab_size, hp.d_p),
        "status_table": (len(STATUSES), hp.d_cs),
        "time_table": (N_TIME_BUCKETS, hp.d_ct),
        "memory_table": (N_MEMORY_BUCKETS, hp.d_cm),
    }

    def affine(tag: str, d_in: int, d_out: int = d, depth: int = 1) -> None:
        shapes[f"W_{tag}"], shapes[f"b_{tag}"] = (d_in, d_out), (d_out,)
        for l in range(2, depth + 1):
            shapes[f"W_{tag}.{l}"], shapes[f"b_{tag}.{l}"] = (d_out, d_out), (d_out,)

    affine("1", hp.d_p + hp.d_pos, depth=layers)
    affine("2", hp.d_c + hp.d_cs + hp.d_ct + hp.d_cm, depth=layers)
    for tag, d_in in (("3", 3 * d), ("4", 3 * d), ("5", 2 * d), ("6", 2 * d), ("7", d), ("8", 2 * d), ("9", d)):
        affine(tag, d_in)
    shapes["W_10"] = (d, d)
    affine("11", 3 * d, depth=layers)
    affine("12", d, hp.vocab_size)
    if code_buckets is not None:
        shapes["code_table"] = (code_buckets, hp.d_c)
    return shapes


def init_model_params(
    rng: np.random.Generator,
    hp: HyperParams,
    variant: str = "PERS",
    layers: int = 1,
    code_buckets: int | None = None,
) -> ModelParams:
    """Draw every tensor of `param_shapes` in its order.

    Weight matrices use uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) with
    their row count as fan-in; the embedding and code tables follow the
    same rule with their row width as fan-in. Biases start at zero, and
    so do exercise rows 0 (padding) and 1 (unknown).

    The state-carry blocks of the ability and processing-style updates
    start at identity. Small random carries forget the past within a few
    steps, and the latents then never learn to integrate behaviour over a
    window; an identity carry makes them running accumulators (like the
    understanding-style update is by construction) that training reshapes.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    arrays = {}
    for name, shape in param_shapes(hp, layers, code_buckets).items():
        if name.startswith("b_"):
            arrays[name] = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0] if name.startswith("W_") else shape[1])
            arrays[name] = rng.uniform(-bound, bound, size=shape)
    d = hp.d_k
    arrays["E_p"][[PAD_INDEX, 1]] = 0.0
    arrays["W_6"][d:, :] = np.eye(d)  # PA_{t-1} slot
    arrays["W_8"][:d, :] = np.eye(d)  # PS_{t-1} slot
    tensors = {name: tk.parameter(a, name) for name, a in arrays.items()}
    return ModelParams(hp, variant, layers, code_buckets, tensors)


def _affine(params: dict[str, tk.Tensor], tag: str, x: tk.Tensor) -> tk.Tensor:
    return tk.affine(x, params[f"W_{tag}"], params[f"b_{tag}"])


def difference(
    params: dict[str, tk.Tensor],
    tag: str,
    enh_t: tk.Tensor,
    enh_prev: tk.Tensor,
    delta: tk.Tensor | None = None,
) -> tuple[tk.Tensor, tk.Tensor]:
    """Difference embedding and its MLP fusion W_tag [delta; enh_t; enh_prev]
    + b_tag: tag "3" for exercises, "4" for code.

    `delta` defaults to enh_t - enh_prev; the unroll passes a
    position-cancelled exercise difference instead so that a repeated
    exercise yields an exactly zero delta regardless of its window
    position.
    """
    if delta is None:
        delta = tk.sub(enh_t, enh_prev)
    return delta, _affine(params, tag, tk.concat([delta, enh_t, enh_prev]))


def output_class_mask(vocab_size: int) -> np.ndarray:
    """Real exercises only: padding (0) and unknown (1) never predicted."""
    mask = np.ones(vocab_size, dtype=bool)
    mask[:2] = False
    return mask


def head(
    params: dict[str, tk.Tensor],
    pa: tk.Tensor,
    ps: tk.Tensor,
    us: tk.Tensor,
    variant: str = "PERS",
    layers: int = 1,
) -> tk.Tensor:
    """The W_11 MLP over the concat of (R, d_k) latent rows: the (R, d_k)
    input of the output layer W_12, whose (R, M) logits the consumers mask
    at classes 0 and 1. The variant's ablated latent enters the concat as
    zeros."""
    slots = {"pa": pa, "ps": ps, "us": us}
    dropped = ablated_latent(variant)
    if dropped is not None:
        slots[dropped] = tk.tensor(np.zeros_like(slots[dropped].data))
    return apply_mlp(params, "11", tk.concat([slots["pa"], slots["ps"], slots["us"]]), layers)


@dataclass
class WindowBatch:
    """Dense per-step arrays for a batch of windows, padded to length L.

    exercise_idx uses 0 for padding steps; valid marks real events;
    targets holds the next exercise index where loss_mask is 1 and 0
    elsewhere. code_bags holds each step's code as a bag number of
    code_source (-1 at padding steps); both are None when the variant
    ignores code entirely.
    """

    exercise_idx: np.ndarray  # (B, L) int
    status_idx: np.ndarray  # (B, L) int
    time_idx: np.ndarray  # (B, L) int
    memory_idx: np.ndarray  # (B, L) int
    valid: np.ndarray  # (B, L) float 0/1
    targets: np.ndarray  # (B, L) int
    loss_mask: np.ndarray  # (B, L) float 0/1
    learner_ids: list[str]
    code_bags: np.ndarray | None = None  # (B, L) int bag numbers of code_source
    code_source: PrecomputedSource | HashedTokenSource | None = None

    @property
    def batch(self) -> int:
        return self.exercise_idx.shape[0]

    @property
    def length(self) -> int:
        return self.exercise_idx.shape[1]

    def target_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, steps) of the loss_mask cells in (step, row) order, the
        row order of a run's head."""
        steps, rows = np.nonzero(self.loss_mask.T > 0.0)
        return rows, steps

    def take(self, rows: np.ndarray) -> "WindowBatch":
        """Row-sliced view for mini-batching an assembled dataset."""
        arrays = {name: a[rows] for name, a in vars(self).items() if isinstance(a, np.ndarray)}
        return replace(self, learner_ids=[self.learner_ids[r] for r in rows], **arrays)


@dataclass
class WindowRun:
    """An unrolled window batch. Every (B*L, .) node has row b*L + t for
    step t of window b; rows at padding steps are computed but mean
    nothing, and no real step reads them."""

    head: tk.Tensor | None  # (N_targets, d_k) input of the output layer in target_cells order; None without targets
    pa: tk.Tensor  # (B*L, d_k) state after each step
    ps: tk.Tensor
    us: tk.Tensor
    delta_exercise: tk.Tensor  # (B*L, d_k) exercise difference embedding
    gate_ps: tk.Tensor  # (B*L, d_k)
    gate_us: tk.Tensor
    valid: np.ndarray  # (B, L) float 0/1
    # Always []: no run computes logits. The benchmark's `_logits_computed`
    # hook still reads it; ROADMAP item 3's benchmark change drops it.
    logits: list[tk.Tensor] = field(default_factory=list)

    def row_states(self, row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(PA, PS, US) after each real step of one window, each
        (n_valid, d_k) views; the last row is the window's final state."""
        length = self.valid.shape[1]
        lo = row * length
        hi = lo + int(self.valid[row].sum())
        return self.pa.data[lo:hi], self.ps.data[lo:hi], self.us.data[lo:hi]


def assemble_batch(
    windows: list[MaskedWindow],
    vocab: Vocabulary,
    hp: HyperParams,
    code_source: PrecomputedSource | HashedTokenSource | None = None,
) -> WindowBatch:
    """Pack masked windows into dense arrays, padded to the longest.

    Every array is a gather from the columns of the event table that
    holds the windows' events (`_event_rows`), which encodes each row
    once under its own vocabulary: `vocab` must equal it. Each event's
    code becomes a bag number of code_source; None skips the code, which
    is only legal for the code-ablated variants.
    """
    if not windows:
        raise ValueError("assemble_batch: no windows")
    if code_source is not None and code_source.dim != hp.d_c:
        raise ValueError(f"code source width {code_source.dim} != d_c {hp.d_c}")
    b = len(windows)
    table, rows, lengths = _event_rows(windows)
    if vocab is not table.vocab and vocab != table.vocab:
        raise ValueError("assemble_batch: vocabulary differs from the event table's")
    length = int(lengths.max())
    valid = (np.arange(length) < lengths[:, None]).astype(np.float64)
    cells = np.nonzero(valid)  # (rows, steps) of every event, row-major like `rows`
    exercise_idx, status_idx, time_idx, mem_idx, targets = (np.zeros((b, length), dtype=np.int64) for _ in range(5))
    for out, column in zip((exercise_idx, status_idx, time_idx, mem_idx), table.columns[:, rows]):
        out[cells] = column

    counts = [len(mw.target_steps) for mw in windows]
    target_rows = np.repeat(np.arange(b), counts)
    target_steps = np.fromiter(
        chain.from_iterable(mw.target_steps for mw in windows), dtype=np.int64, count=sum(counts)
    )
    if (target_steps + 1 >= lengths[target_rows]).any():
        raise ValueError("target step has no following event")
    targets[target_rows, target_steps] = exercise_idx[target_rows, target_steps + 1]
    loss_mask = np.zeros((b, length))
    loss_mask[target_rows, target_steps] = 1.0

    code_bags = None
    if code_source is not None:
        code_bags = np.full((b, length), -1, dtype=np.int64)
        code_bags[cells] = table.bag_numbers(code_source, rows)
    return WindowBatch(
        exercise_idx, status_idx, time_idx, mem_idx, valid, targets, loss_mask,
        [mw.window.learner_id for mw in windows], code_bags, code_source,
    )


def _event_rows(windows: list[MaskedWindow]) -> tuple[EventTable, np.ndarray, np.ndarray]:
    """The event table of the windows, the table row of each of their
    events, window after window, and each window's length.

    Each window is one row range of the table; windows of more than one
    table raise ValueError.
    """
    table = windows[0].window.table
    if any(mw.window.table is not table for mw in windows):
        raise ValueError("assemble_batch: windows from more than one event table")
    starts = np.fromiter((mw.window.start for mw in windows), dtype=np.int64, count=len(windows))
    lengths = np.fromiter((len(mw.window) for mw in windows), dtype=np.int64, count=len(windows))
    ends = np.cumsum(lengths)
    rows = np.arange(ends[-1]) + np.repeat(starts - (ends - lengths), lengths)
    return table, rows, lengths


def run_window(
    params: ModelParams,
    batch: WindowBatch,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> WindowRun:
    """Unroll the cell over a window batch in one pass over all steps.

    Dropout (training only) hits the enhanced embeddings, with masks drawn
    once per batch; the same exercise-side mask covers the current
    embedding and the position-matched previous one, so the
    intra-exercise zero-delta property survives dropout.

    The run ends at the head of the target cells; whoever reads the
    logits applies the output layer W_12 to it.
    """
    hp = params.hyper
    tensors = params.tensors
    layers = params.layers
    b, length = batch.exercise_idx.shape
    n = b * length
    d = hp.d_k
    positions = np.tile(np.arange(length), b)
    # 1 where a step has a predecessor in its window, 0 at t = 0.
    not_first = tk.tensor(np.repeat((positions > 0).astype(np.float64)[:, None], d, axis=1))
    prev_row = np.maximum(np.arange(n) - 1, 0)
    use_pos = uses_position(params.variant)

    enh_p = enhance_exercise(tensors, hp, batch.exercise_idx.reshape(n), positions, use_pos, layers)
    # The previous exercise re-embedded at the current position: the
    # positional and bias terms cancel in the subtraction, so a repeat
    # gives a bitwise-zero difference. It must be a second call of the
    # same shape and row order, so that equal rows round equally.
    prev_idx = np.roll(batch.exercise_idx, 1, axis=1).reshape(n)
    prev_at_t = enhance_exercise(tensors, hp, prev_idx, positions, use_pos, layers)
    if uses_code(params.variant):
        source = batch.code_source
        if source is None:
            raise ValueError("windows carry no code features but the variant needs them")
        enh_c = enhance_code(
            tensors,
            hp,
            tk.gather_bags(source.table_for(tensors), source.store, batch.code_bags.reshape(n)),
            batch.status_idx.reshape(n),
            batch.time_idx.reshape(n),
            batch.memory_idx.reshape(n),
            layers,
        )
    else:
        # Code-ablated variants: all code-side inputs collapse to zeros,
        # so the projection reduces to its bias and no table is touched.
        zeros_in = tk.tensor(np.zeros((n, tensors["W_2"].data.shape[0])))
        enh_c = apply_mlp(tensors, "2", zeros_in, layers)
    if rng is not None and dropout > 0.0:
        keep = (rng.random((2, n, d)) >= dropout) / (1.0 - dropout)
        mask_p, mask_c = tk.tensor(keep[0]), tk.tensor(keep[1])
        enh_p = tk.hadamard(enh_p, mask_p)
        prev_at_t = tk.hadamard(prev_at_t, mask_p)
        enh_c = tk.hadamard(enh_c, mask_c)

    delta_p = tk.sub(enh_p, tk.hadamard(prev_at_t, not_first))
    enh_p_prev = tk.hadamard(tk.gather_rows(enh_p, prev_row), not_first)
    enh_c_prev = tk.hadamard(tk.gather_rows(enh_c, prev_row), not_first)
    delta_p, delta_p_mlp = difference(tensors, "3", enh_p, enh_p_prev, delta_p)
    _, delta_c_mlp = difference(tensors, "4", enh_c, enh_c_prev)

    # W_6 and W_8 split into their input and carry row blocks.
    top, bottom = np.arange(d), np.arange(d, 2 * d)
    w_6, w_8 = tensors["W_6"], tensors["W_8"]
    delta_pa = _affine(tensors, "5", tk.concat([enh_p, enh_c]))
    pa_in = tk.affine(delta_pa, tk.gather_rows(w_6, top), tensors["b_6"])
    pa = tk.linear_scan(pa_in, tk.gather_rows(w_6, bottom), length)

    gate_ps = tk.tanh(_affine(tensors, "7", delta_p_mlp))
    ps_in = tk.affine(tk.hadamard(gate_ps, delta_c_mlp), tk.gather_rows(w_8, bottom), tensors["b_8"])
    ps = tk.linear_scan(ps_in, tk.gather_rows(w_8, top), length)

    gate_us = tk.tanh(_affine(tensors, "9", delta_p_mlp))
    us = tk.linear_scan(tk.matmul(tk.hadamard(gate_us, enh_p), tensors["W_10"]), None, length)

    rows, target_steps = batch.target_cells()
    pre = None
    if rows.size:
        at = rows * length + target_steps
        pre = head(tensors, *(tk.gather_rows(s, at) for s in (pa, ps, us)), params.variant, layers)
    return WindowRun(pre, pa, ps, us, delta_p, gate_ps, gate_us, batch.valid)
