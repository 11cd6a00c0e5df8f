"""Training: objective, negative sampling, epoch loop, checkpoints.

The trainer is deterministic by construction: parameter init, epoch
shuffles, dropout masks and negative draws all come from generators
seeded by (seed, purpose, epoch, batch), so resuming from a checkpoint
replays the identical randomness an uninterrupted run would have used.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import perscell, tensorkit as tk
from .codefeat import HashedTokenSource, PrecomputedSource
from .dataio import EventTable, Interaction, LearnerSequence, MaskedWindow, Vocabulary
from .encoder import HyperParams
from .perscell import ModelParams, WindowBatch, assemble_batch, output_class_mask, run_window

CHECKPOINT_MAGIC = b"PERS1\n"
FORMAT_VERSION = 1

LOSS_MODES = ("full_softmax", "sampled_bce")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


@dataclass(frozen=True)
class TrainConfig:
    """Trainer knobs. The reference grids are lr {0.1, 0.01, 0.001},
    layers {1, 2, 3} and dropout {0.1, 0.3, 0.5}; batch sizes default to
    2048 (train) and 4096 (eval)."""

    lr: float = 0.01
    layers: int = 1
    dropout: float = 0.1
    batch_size: int = 2048
    eval_batch_size: int = 4096
    epochs: int = 10
    seed: int = 0
    loss_mode: str = "full_softmax"
    negatives_per_positive: int = 4
    variant: str = "PERS"
    grad_clip: float = 5.0

    def __post_init__(self):
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss_mode must be one of {LOSS_MODES}")
        if self.variant not in perscell.VARIANTS:
            raise ValueError(f"variant must be one of {perscell.VARIANTS}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr >= 0.0):  # lr 0 keeps the initial parameters
            raise ValueError("lr must be a finite number >= 0")
        if not self.grad_clip > 0.0:
            raise ValueError("grad_clip must be positive")
        for name in ("layers", "batch_size", "eval_batch_size", "epochs", "negatives_per_positive"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def _rng(seed: int, purpose: int, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, purpose, *extra])


def _batch_negatives(batch: WindowBatch, vocab_size: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """(B, L, k) negatives, set at the loss_mask cells: for each target, k
    distinct real-exercise indices (>= 2) other than the target, drawn
    uniformly without replacement.

    Floyd's algorithm over every target at once: the pool is the n_real - 1
    real exercises that are not the target, numbered 0..n-1; draw j picks
    uniformly from 0..j and, if that number is taken, takes j itself.
    """
    n = vocab_size - 3  # the pool: real exercises without the target
    if n < k:
        raise ValueError(f"catalog too small: {vocab_size - 2} real exercises for k={k}")
    negs = np.zeros((batch.batch, batch.length, k), dtype=np.int64)
    rows, steps = np.nonzero(batch.loss_mask > 0.0)
    picked = np.empty((rows.size, k), dtype=np.int64)
    for i, j in enumerate(range(n - k, n)):
        draw = rng.integers(0, j + 1, size=rows.size)
        taken = (picked[:, :i] == draw[:, None]).any(axis=1)
        picked[:, i] = np.where(taken, j, draw)
    picked += 2
    picked += picked >= batch.targets[rows, steps][:, None]  # step over the target
    negs[rows, steps] = picked
    return negs


def sampled_columns(batch: WindowBatch, negatives: np.ndarray) -> np.ndarray:
    """(N_targets, 1+k) logit columns in target_cells order: each
    target's own exercise, then its negatives."""
    rows, steps = batch.target_cells()
    return np.concatenate([batch.targets[rows, steps][:, None], negatives[rows, steps]], axis=1)


def sequence_loss(
    run: perscell.WindowRun,
    batch: WindowBatch,
    vocab_size: int,
    mode: str = "full_softmax",
    negatives: np.ndarray | None = None,
) -> tk.Tensor:
    """Scalar mean loss over every masked step of a window batch.

    Under sampled_bce, negatives is (B, L, k) and the run must have been
    scored at `sampled_columns(batch, negatives)`.
    """
    rows, steps = batch.target_cells()
    if rows.size == 0:
        raise ValueError("batch has no loss steps")
    targets = batch.targets[rows, steps]
    if np.any(targets < 2):
        raise ValueError("loss target is a padding/unknown index")
    (logits,) = run.logits
    if mode == "full_softmax":
        return tk.cross_entropy(logits, targets, output_class_mask(vocab_size))
    if logits.data.shape != (rows.size, 1 + negatives.shape[2]):
        raise ValueError("sampled_bce needs a run scored at the target and negative columns only")
    return tk.bce_with_negatives(logits)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Global-norm clipping; the accumulating state update can grow with
    sequence length, so this is the minimal guard against blowups."""
    sq = sum(float((g * g).sum()) for g in grads.values())
    norm = np.sqrt(sq)
    if norm <= max_norm or norm == 0.0:
        return grads
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}


@dataclass
class Checkpoint:
    """A run's final state. The seed, variant and layers are read from
    `config`, and the epochs done are `len(loss_log)`."""

    model: ModelParams  # final-epoch parameters; resume continues from these
    adam: tk.AdamState
    config: TrainConfig
    vocab: Vocabulary
    loss_log: list[float]  # mean training loss of each epoch done


def train(
    train_windows: list[MaskedWindow],
    vocab: Vocabulary,
    hp: HyperParams,
    config: TrainConfig,
    code_source: PrecomputedSource | HashedTokenSource | None = None,
    resume: Checkpoint | None = None,
) -> Checkpoint:
    """Run shuffled mini-batch epochs up to `config.epochs`; returns the
    final checkpoint with the per-epoch mean-loss log. A resumed run
    continues after the checkpoint's last epoch with the same variant and
    layers.
    """
    if not train_windows:
        raise ValueError("train split is empty")
    hp = hp.with_exercises(vocab.n_exercises)
    needs_code = perscell.uses_code(config.variant)
    dataset = assemble_batch(train_windows, vocab, hp, code_source if needs_code else None)

    if resume is not None:
        model, loss_log = resume.model, list(resume.loss_log)
        adam = copy.deepcopy(resume.adam)  # adam_step advances it in place; the checkpoint keeps its own
        if model.hyper != hp or resume.vocab != vocab:
            raise CheckpointError("resume checkpoint does not match the dataset/hyperparams")
        if (model.variant, model.layers) != (config.variant, config.layers):
            raise CheckpointError(
                f"resume checkpoint is a {model.layers}-layer {model.variant} model, "
                f"not {config.layers}-layer {config.variant}"
            )
        if len(loss_log) > config.epochs:
            raise CheckpointError(f"resume checkpoint has {len(loss_log)} epochs done, past epochs={config.epochs}")
    else:
        buckets = code_source.buckets if isinstance(code_source, HashedTokenSource) and needs_code else None
        model = perscell.init_model_params(
            _rng(config.seed, 0), hp, config.variant, config.layers, buckets
        )
        adam = tk.AdamState()
        loss_log = []

    n = dataset.batch
    for epoch in range(len(loss_log), config.epochs):
        order = _rng(config.seed, 1, epoch).permutation(n)
        epoch_loss = 0.0
        epoch_count = 0.0
        for bi, lo in enumerate(range(0, n, config.batch_size)):
            rows = order[lo : lo + config.batch_size]
            batch = dataset.take(rows)
            if not (batch.loss_mask > 0).any():
                continue
            negatives = columns = None
            if config.loss_mode == "sampled_bce":
                negatives = _batch_negatives(
                    batch, hp.vocab_size, config.negatives_per_positive, _rng(config.seed, 4, epoch, bi)
                )
                columns = sampled_columns(batch, negatives)
            run = run_window(model, batch, config.dropout, _rng(config.seed, 2, epoch, bi), columns)
            loss = sequence_loss(run, batch, hp.vocab_size, config.loss_mode, negatives)
            value = float(loss.data)
            if not np.isfinite(value):
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {bi}")
            count = float((batch.loss_mask > 0).sum())
            epoch_loss += value * count
            epoch_count += count

            grads = tk.backward(loss, model.tensors)
            grads["E_p"][0, :] = 0.0  # the padding row is never trained
            grads = clip_gradients(grads, config.grad_clip)
            model = model.replace_tensors(tk.adam_step(model.tensors, grads, adam, config.lr))
        loss_log.append(epoch_loss / max(epoch_count, 1.0))

    return Checkpoint(model, adam, config, vocab, loss_log)


# --- checkpoint file format --------------------------------------------------
#
# magic "PERS1\n", then a little-endian uint64 byte length, then that many
# bytes of UTF-8 JSON (hyperparams, code bucket count, train config,
# vocabulary, Adam step count, loss log, tensor manifest), then the raw
# little-endian float64 payloads of the model tensors and Adam moments in
# manifest order. The manifest's extents must tile the payload exactly, and
# every stored value must be finite.
# The model's variant and layers are those of the stored config.


def save_checkpoint(path, cp: Checkpoint) -> None:
    names = sorted(cp.model.tensors)
    entries = []
    offset = 0
    payload_parts = []

    def push(name: str, arr: np.ndarray):
        nonlocal offset
        data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "dims": list(arr.shape), "offset": offset})
        payload_parts.append(data)
        offset += len(data)

    for name in names:
        push(name, cp.model.tensors[name].data)
    for name in names:
        if name in cp.adam.m:
            push(f"m:{name}", cp.adam.m[name])
            push(f"v:{name}", cp.adam.v[name])

    header = {
        "format_version": FORMAT_VERSION,
        "hyper": asdict(cp.model.hyper),
        "code_buckets": cp.model.code_buckets,
        "config": asdict(cp.config),
        "vocab": cp.vocab.ids(),
        "adam_t": cp.adam.t,
        "loss_log": cp.loss_log,
        "manifest": entries,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for part in payload_parts:
            fh.write(part)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; not a version-1 checkpoint")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise CheckpointError("truncated header length")
        header_len = int.from_bytes(raw_len, "little")
        if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError(f"header length {header_len} runs past the end of the file")
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise CheckpointError("truncated header")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError("header is not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(f"unsupported format version {header.get('format_version')}")
        _check_header(header)
        payload = fh.read()

    try:
        hyper = HyperParams(**header["hyper"])
        config = TrainConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"stored settings are invalid: {exc}") from exc
    manifest = header["manifest"]
    _check_extents(manifest, len(payload))
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest:
        dims = tuple(entry["dims"])
        start = entry["offset"]
        chunk = payload[start : start + 8 * math.prod(dims)]
        arr = np.frombuffer(chunk, dtype="<f8").reshape(dims).copy()
        if not np.isfinite(arr).all():
            raise CheckpointError(f"stored tensor '{entry['name']}' holds a non-finite value")
        arrays[entry["name"]] = arr

    tensors = {}
    adam = tk.AdamState(t=header["adam_t"])
    for name, arr in arrays.items():
        if name.startswith("m:"):
            adam.m[name[2:]] = arr
        elif name.startswith("v:"):
            adam.v[name[2:]] = arr
        else:
            tensors[name] = tk.parameter(arr, name)

    if len(header["vocab"]) != hyper.n_exercises:
        raise CheckpointError("vocabulary size does not match the stored hyperparams")
    model = ModelParams(hyper, config.variant, config.layers, header["code_buckets"], tensors)
    _check_tensor_shapes(model, adam)
    return Checkpoint(model, adam, config, Vocabulary(header["vocab"]), list(header["loss_log"]))


# JSON types of the header fields. Fields not listed here, such as those
# of earlier version-1 files, are ignored.
_HEADER_TYPES = {
    "hyper": (dict,), "code_buckets": (int, type(None)), "config": (dict,), "vocab": (list,),
    "adam_t": (int,), "loss_log": (list,), "manifest": (list,),
}


def _check_header(header: dict) -> None:
    for name, kinds in _HEADER_TYPES.items():
        if name not in header:
            raise CheckpointError(f"header lacks field '{name}'")
        if type(header[name]) not in kinds:
            want = " or ".join(k.__name__ for k in kinds)
            raise CheckpointError(f"header field '{name}' is a {type(header[name]).__name__}, not {want}")
    if not all(type(v) is int for v in header["hyper"].values()):
        raise CheckpointError("header field 'hyper' holds a value that is not an integer")
    for i, entry in enumerate(header["manifest"]):
        if not (
            type(entry) is dict and type(entry.get("name")) is str and type(entry.get("offset")) is int
            and type(entry.get("dims")) is list and all(type(d) is int for d in entry["dims"])
        ):
            raise CheckpointError(f"manifest entry {i} is not a name, integer dims and an integer offset")


def _check_extents(manifest: list[dict], payload_size: int) -> None:
    """The manifest's byte extents must tile the payload exactly: no
    negative offset or dimension, no name twice, no two extents sharing a
    byte, no byte that no extent covers."""
    names = set()
    extents = []
    for entry in manifest:
        name = entry["name"]
        if name in names:
            raise CheckpointError(f"manifest names tensor '{name}' twice")
        names.add(name)
        if entry["offset"] < 0 or any(d < 0 for d in entry["dims"]):
            raise CheckpointError(f"manifest entry '{name}' has a negative offset or dimension")
        extents.append((entry["offset"], 8 * math.prod(entry["dims"]), name))
    end, last = 0, None
    for start, size, name in sorted(extents):
        if start < end:
            raise CheckpointError(f"manifest extents of '{last}' and '{name}' overlap")
        if start > end:
            raise CheckpointError(f"payload bytes {end}..{start - 1} belong to no manifest entry")
        end, last = start + size, name
    if end > payload_size:
        raise CheckpointError(f"truncated payload: tensor '{last}' ends at byte {end} of {payload_size}")
    if end < payload_size:
        raise CheckpointError(f"{payload_size - end} trailing payload bytes belong to no manifest entry")


def _check_tensor_shapes(model: ModelParams, adam: tk.AdamState) -> None:
    """Every stored tensor set must be exactly the one the stored
    hyperparams, layers and bucket count define. Only the model tensors
    are always stored: a run that never stepped has no moments. The
    comparison is of shapes alone, so a header whose widths disagree with
    the payload fails here without anything sized by it being allocated."""
    if model.layers > len(model.tensors):  # each layer adds tensors, so the file bounds the table
        raise CheckpointError(f"stored tensors cannot hold a {model.layers}-layer model")
    try:
        want = perscell.param_shapes(model.hyper, model.layers, model.code_buckets)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"stored model settings are invalid: {exc}") from exc
    groups = {
        "tensors": {name: t.data.shape for name, t in model.tensors.items()},
        "adam first moments": {name: a.shape for name, a in adam.m.items()},
        "adam second moments": {name: a.shape for name, a in adam.v.items()},
    }
    for what, got in groups.items():
        if got != want and (got or what == "tensors"):
            bad = sorted(n for n in want.keys() | got.keys() if got.get(n) != want.get(n))
            raise CheckpointError(f"stored {what} differ from the stored model settings at {bad}")


def run_gradcheck(d_k: int = 8, n_exercises: int = 10, steps: int = 3, seed: int = 0) -> dict[str, float]:
    """Finite-difference check of the full model loss on a micro instance.

    The probe sequence contains a repeat attempt and an exercise switch so
    every update path is exercised; returns max relative error per
    parameter (vocabulary size is n_exercises + 2).
    """
    hp = HyperParams(
        d_p=d_k, d_c=6, d_k=d_k, d_pos=d_k, d_ct=3, d_cm=3, d_cs=3,
        max_len=max(steps, 2), n_exercises=n_exercises,
    )
    model = perscell.init_model_params(_rng(seed, 0), hp)
    vocab = Vocabulary([f"p{i}" for i in range(n_exercises)])
    # p0, p0, p1, p0, ...: a repeat attempt then switches, so both the
    # intra- and inter-exercise update paths carry gradient.
    ids = ["p0", "p0"] + [f"p{t % 2}" for t in range(1, steps - 1)]
    gen = _rng(seed, 3)
    events = tuple(
        Interaction(
            "probe", eid, t, "accepted" if t % 2 == 0 else "wrong_answer",
            5 * t + 1, 64 + t, code_vec_ref=f"probe:{t}",
        )
        for t, eid in enumerate(ids[:steps])
    )
    window = MaskedWindow(LearnerSequence("probe", EventTable(events, vocab), 0, len(events)), tuple(range(steps - 1)))
    source = PrecomputedSource({f"probe:{t}": gen.normal(size=hp.d_c) for t in range(steps)}, hp.d_c)
    batch = assemble_batch([window], vocab, hp, source)

    def loss_fn(tensors):
        probe = model.replace_tensors(dict(tensors))
        run = run_window(probe, batch)
        return sequence_loss(run, batch, hp.vocab_size)

    return {
        name: tk.finite_diff_check(loss_fn, model.tensors, name, h=1e-5)
        for name in sorted(model.tensors)
    }
