"""Latent-state export and linear style probes.

After training, each learner's history (one row range of the event
table) is unrolled and its final-step latent vectors are exported; a
logistic probe is fit per style dimension: the processing probe reads
the processing-style vector, the understanding probe the
understanding-style vector. Held-out probe accuracy far above the
permuted-label baseline is the quantitative stand-in for the qualitative
latent-trajectory claims.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .codefeat import HashedTokenSource, PrecomputedSource
from .dataio import LearnerSequence, MaskedWindow
from .perscell import assemble_batch, run_window, uses_code
from .training import Checkpoint, DivergenceError

DIMENSIONS = ("processing", "understanding")
EXPORT_BATCH = 64  # learners per export unroll


class LatentRow(NamedTuple):
    learner_id: str
    length: int  # total events of the learner
    pa: np.ndarray
    ps: np.ndarray
    us: np.ndarray


def _history_states(
    checkpoint: Checkpoint,
    sequences: list[LearnerSequence],
    code_source: PrecomputedSource | HashedTokenSource | None,
    batch_size: int,
):
    """Yield (full history, (PA, PS, US) after each of its events) per
    learner, in first-seen order.

    Training chunks histories into windows, but the style vectors are a
    property of the learner, so the export unrolls the recurrence over
    its history, the rows from the first start to the last stop of its
    windows in any order, in one stateful pass; windows of more than one
    table raise ValueError. Batches are small because full histories can
    be an order of magnitude longer than a training window. The model's
    tensors are constants here, so the unroll records no tape. Raises
    DivergenceError if a real step's latents are not finite.
    """
    model = checkpoint.model.frozen()
    source = code_source if uses_code(model.variant) else None
    spans: dict[str, LearnerSequence] = {}
    for seq in sequences:
        if seq.table is not sequences[0].table:
            raise ValueError("export: windows from more than one event table")
        span = spans.setdefault(seq.learner_id, seq)
        spans[seq.learner_id] = replace(span, start=min(span.start, seq.start), stop=max(span.stop, seq.stop))
    histories = list(spans.values())
    for lo in range(0, len(histories), batch_size):
        chunk = histories[lo : lo + batch_size]
        windows = [MaskedWindow(history, ()) for history in chunk]
        with np.errstate(all="ignore"):  # an overflow shows as non-finite latents, checked below
            run = run_window(model, assemble_batch(windows, checkpoint.vocab, model.hyper, source))
        for i, history in enumerate(chunk):
            states = run.row_states(i)
            if not all(np.isfinite(s).all() for s in states):
                raise DivergenceError(f"non-finite latents in the history of {history.learner_id}")
            yield history, states
        del run  # free this batch's states before the next batch builds its own


def export_latents(
    checkpoint: Checkpoint,
    sequences: list[LearnerSequence],
    code_source: PrecomputedSource | HashedTokenSource | None = None,
    batch_size: int = EXPORT_BATCH,
) -> list[LatentRow]:
    """Latents at the last time step of each learner's full history."""
    return [
        LatentRow(history.learner_id, len(history), *(s[-1].copy() for s in states))
        for history, states in _history_states(checkpoint, sequences, code_source, batch_size)
    ]


def export_step_latents(
    checkpoint: Checkpoint,
    sequences: list[LearnerSequence],
    code_source: PrecomputedSource | HashedTokenSource | None = None,
) -> list[tuple[str, int, np.ndarray, np.ndarray, np.ndarray]]:
    """Per-step latents (learner, step, PA, PS, US) for external plotting.

    Uses the same stateful full-history unroll as export_latents, so the
    final row of each learner matches their exported final-step latents.
    """
    out = []
    for history, states in _history_states(checkpoint, sequences, code_source, EXPORT_BATCH):
        for t, (pa, ps, us) in enumerate(zip(*states)):
            out.append((history.learner_id, t, pa.copy(), ps.copy(), us.copy()))
    return out


def write_latents(path, rows: list[tuple], count: str = "length") -> None:
    """Write (learner_id, n, PA, PS, US) rows as TSV: export_latents rows,
    whose n is the event count, or export_step_latents rows with
    count="step"."""
    if not rows:
        raise ValueError("no latent rows to write")
    d_k = rows[0][2].shape[0]
    cols = ["learner_id", count] + [f"{name}_{i}" for name in ("pa", "ps", "us") for i in range(d_k)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for learner_id, n, *states in rows:
            fh.write("\t".join([learner_id, str(n)] + [f"{v:.9g}" for v in np.concatenate(states)]) + "\n")


def _stratified_split(labels: np.ndarray, rng: np.random.Generator, test_frac: float = 0.2):
    train_idx, test_idx = [], []
    for cls in np.unique(labels):
        idx = np.nonzero(labels == cls)[0]
        idx = idx[rng.permutation(len(idx))]
        n_test = max(1, int(round(test_frac * len(idx))))
        test_idx.extend(idx[:n_test])
        train_idx.extend(idx[n_test:])
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


class _Fits(NamedTuple):
    """One descent over every (label vector, split seed) pair: arrays
    indexed [label vector, split]."""

    weights: np.ndarray  # (L, S, d)
    bias: np.ndarray  # (L, S)
    accuracy: np.ndarray  # (L, S) held-out accuracy
    n_train: int
    n_test: int


def _check_classes(labels: np.ndarray, min_per_class: int) -> tuple[str, str]:
    classes = tuple(sorted(np.unique(labels).tolist()))
    if len(classes) != 2:
        raise ValueError(f"probe needs exactly two classes, got {classes}")
    for cls in classes:
        n_cls = int((labels == cls).sum())
        if n_cls < min_per_class:
            raise ValueError(f"class '{cls}' has {n_cls} learners; need >= {min_per_class}")
    return classes


def _fit_stack(
    features: np.ndarray,
    label_vectors: list[np.ndarray],
    seeds: list[int],
    l2: float = 0.1,
    lr: float = 0.3,
    iterations: int = 400,
) -> _Fits:
    """Fit one logistic probe per (label vector, split seed) pair, all
    in one full-batch gradient descent over a (T, n, d) stack.

    Each fit takes its 80/20 stratified split from `default_rng(seed)`
    and standardises with its train rows' mean and std. The label vectors
    share one pair of classes and their counts (a permutation keeps
    them), so every split has the same train size and the stack is
    rectangular. The caller checks the classes.

    L2 keeps the probe from memorising noise, which pins permuted-label
    accuracy near chance without hurting genuinely separable latents.
    Raises DivergenceError if standardised features are not finite, as
    finite latents near the largest float make them.
    """
    if not label_vectors or not seeds:
        raise ValueError("probe splits and trials must be at least 1")
    features = np.asarray(features, dtype=np.float64)
    x_train, x_test, y_train, y_test = [], [], [], []
    # An overflow in the mean or std leaves a non-finite feature, which the
    # check below turns into DivergenceError; numpy's warnings would only
    # repeat it.
    with np.errstate(all="ignore"):
        for labels in label_vectors:
            positive = labels == np.unique(labels)[1]
            for seed in seeds:
                train_idx, test_idx = _stratified_split(labels, np.random.default_rng(seed))
                mu = features[train_idx].mean(axis=0)
                sd = features[train_idx].std(axis=0)
                sd[sd < 1e-8] = 1.0
                x_train.append((features[train_idx] - mu) / sd)
                x_test.append((features[test_idx] - mu) / sd)
                y_train.append(positive[train_idx].astype(np.float64))
                y_test.append(positive[test_idx])
    n_train, n_test = len(y_train[0]), len(y_test[0])
    assert all(len(y) == n_train for y in y_train), "probe splits differ in train size"
    x, y, x_test = np.stack(x_train), np.stack(y_train), np.stack(x_test)
    if not (np.isfinite(x).all() and np.isfinite(x_test).all()):
        raise DivergenceError("non-finite probe features after standardisation")

    t, n, d = x.shape
    w = np.zeros((t, d))
    b = np.zeros(t)
    for _ in range(iterations):
        z = np.matmul(x, w[:, :, None])[:, :, 0] + b[:, None]
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - y
        w -= lr * (np.matmul(err[:, None, :], x)[:, 0, :] / n + l2 * w)
        b -= lr * err.mean(axis=1)

    pred = (np.matmul(x_test, w[:, :, None])[:, :, 0] + b[:, None]) > 0.0
    accuracy = (pred == np.stack(y_test)).mean(axis=1)
    shape = (len(label_vectors), len(seeds))
    return _Fits(w.reshape(*shape, d), b.reshape(shape), accuracy.reshape(shape), n_train, n_test)


def mean_probe_accuracy(
    features: np.ndarray,
    labels: list[str],
    seed: int = 0,
    splits: int = 1,
    min_per_class: int = 20,
) -> float:
    """Held-out accuracy averaged over `splits` stratified splits, drawn
    with seeds seed, seed + 1, ...

    A single 20% holdout of a desk-scale population is only a few dozen
    learners, so one split's accuracy carries binomial noise of several
    points; averaging split seeds estimates the same quantity with a
    tighter spread.
    """
    labels_arr = np.asarray(labels)
    _check_classes(labels_arr, min_per_class)
    fits = _fit_stack(features, [labels_arr], [seed + s for s in range(splits)])
    return float(np.mean(fits.accuracy[0]))


def dimension_features(
    rows: list[LatentRow], labels: dict[str, tuple[str, str]], dimension: str
) -> tuple[np.ndarray, list[str]]:
    """The latent matrix aligned with a style dimension: the processing
    probe reads PS, the understanding probe reads US."""
    if dimension not in DIMENSIONS:
        raise ValueError(f"dimension must be one of {DIMENSIONS}")
    feats, labs = [], []
    for row in rows:
        if row.learner_id not in labels:
            continue
        processing, understanding = labels[row.learner_id]
        if dimension == "processing":
            feats.append(row.ps)
            labs.append(processing)
        else:
            feats.append(row.us)
            labs.append(understanding)
    return np.array(feats), labs


def permutation_null(
    features: np.ndarray,
    labels: list[str],
    trials: int = 20,
    seed: int = 0,
    min_per_class: int = 20,
    splits: int = 5,
) -> list[float]:
    """Split-averaged held-out accuracies after destroying the
    label-feature pairing; the leakage check compares these to 0.65.
    Trial i permutes the labels with `default_rng([seed, i])` and is
    scored like `mean_probe_accuracy(..., seed=seed, splits=splits)`."""
    labels_arr = np.asarray(labels)
    _check_classes(labels_arr, min_per_class)
    permuted = [
        labels_arr[np.random.default_rng([seed, trial]).permutation(len(labels_arr))] for trial in range(trials)
    ]
    fits = _fit_stack(features, permuted, [seed + s for s in range(splits)])
    return [float(np.mean(row)) for row in fits.accuracy]
