"""Ranking evaluation: per-event ranks over the full catalog and the
HR@k / MRR@k / NDCG@k metrics, plus the variant-ablation harness.

Candidates are never filtered: resubmitting the current exercise is part
of the behaviour under study, so repeats stay in the candidate set. Ties
break toward the smaller index so reports are reproducible everywhere.

Targets are ranked a block of rows at a time: each block's logits are
computed from the model's head rows into one reused buffer, so no
(targets x catalog) array exists. BLAS may round a row of a small block
differently from the same row of one large product, so a logit can
differ from the unblocked one in its last bits.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import perscell, training
from .codefeat import HashedTokenSource, PrecomputedSource
from .dataio import MaskedWindow, Vocabulary
from .encoder import HyperParams
from .perscell import assemble_batch, run_window
from .training import Checkpoint, DivergenceError, TrainConfig


class VocabularyMismatch(ValueError):
    """Checkpoint and dataset disagree about the exercise catalog."""


@dataclass(frozen=True)
class RankResult:
    learner_id: str
    rank: int


def contributions(rank: int, k: int = 10) -> tuple[float, float, float]:
    """(hit, reciprocal-rank, discounted-gain) for one event at cutoff k."""
    if rank <= k:
        return 1.0, 1.0 / rank, 1.0 / np.log2(rank + 1.0)
    return 0.0, 0.0, 0.0


@dataclass(frozen=True)
class Metrics:
    hr: float
    mrr: float
    ndcg: float
    events: int
    k: int = 10


def metrics_at_k(ranks, k: int = 10) -> Metrics:
    ranks = list(ranks)
    if not ranks:
        raise ValueError("metrics_at_k: no ranks")
    hits = rr = gain = 0.0
    for r in ranks:
        h, m, g = contributions(r, k)
        hits += h
        rr += m
        gain += g
    n = len(ranks)
    return Metrics(hits / n, rr / n, gain / n, n, k)


def evaluate(
    checkpoint: Checkpoint,
    test_windows: list[MaskedWindow],
    vocab: Vocabulary,
    code_source: PrecomputedSource | HashedTokenSource | None = None,
    batch_size: int | None = None,
) -> tuple[Metrics, list[RankResult]]:
    """Rank every held-out next-item target under the checkpoint model.

    Raises DivergenceError if any target step's logits are not finite: a
    NaN target would otherwise rank first.
    """
    if vocab != checkpoint.vocab:
        raise VocabularyMismatch("checkpoint vocabulary differs from the dataset's")
    if not test_windows:
        raise ValueError("evaluate: empty test split")
    model = checkpoint.model.frozen()
    hp = model.hyper
    if batch_size is None:
        batch_size = checkpoint.config.eval_batch_size
    needs_code = perscell.uses_code(model.variant)
    results: list[RankResult] = []
    # An overflow surfaces as a non-finite logit, which _target_ranks turns
    # into DivergenceError; numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        for lo in range(0, len(test_windows), batch_size):
            chunk = test_windows[lo : lo + batch_size]
            results.extend(_rank_batch(model, assemble_batch(chunk, vocab, hp, code_source if needs_code else None)))
    return metrics_at_k([r.rank for r in results]), results


# Target rows per block: a block's logits and its boolean temporaries
# stay in cache while they are read four times.
RANK_BLOCK = 64


def _rank_batch(model: perscell.ModelParams, batch: perscell.WindowBatch) -> list[RankResult]:
    """Rank a batch's targets in target_cells order. The model's tensors
    are constants, so the run records no tape; it dies on return, before
    the next batch is built."""
    run = run_window(model, batch, logits=False)
    if run.head is None:
        return []
    rows, steps = batch.target_cells()
    tensors = model.tensors
    ranks = _target_ranks(run.head.data, tensors["W_12"].data, tensors["b_12"].data, batch.targets[rows, steps])
    return [RankResult(batch.learner_ids[row], int(rank)) for row, rank in zip(rows, ranks)]


def _target_ranks(
    pre: np.ndarray, w: np.ndarray, b: np.ndarray, targets: np.ndarray, block: int = RANK_BLOCK
) -> np.ndarray:
    """The 1-based rank of each target among the logits `pre @ w + b` of
    its row, for (N, d) head rows, the (d, M) output weights and the (M,)
    bias. Each `block` rows' logits are computed into one reused buffer,
    in `tk.affine`'s order (product, then bias), and counted there: 1 +
    the columns >= 2 that score above the target + the columns
    2..target-1 that score equal to it, so ties go to the smaller index.
    Columns 0 and 1 are left out of the count instead of masked to -inf.
    The target is one of the equal columns, so only a row with another
    equal one needs its ties before the target counted.

    Raises DivergenceError if a block holds a non-finite logit: a NaN
    target would otherwise rank first.
    """
    if targets.min() < 2:
        raise ValueError(f"target {int(targets.min())} is a masked index")
    ranks = np.empty(targets.size, dtype=np.int64)
    buf = np.empty((min(block, targets.size), w.shape[1]))
    for lo in range(0, targets.size, block):
        rows = pre[lo : lo + block]
        scores = buf[: len(rows)]
        np.matmul(rows, w, out=scores)
        scores += b
        # min/max propagate NaN and expose +-inf without a boolean temporary.
        if not (np.isfinite(scores.min()) and np.isfinite(scores.max())):
            raise DivergenceError("non-finite logits at an evaluation target")
        t = targets[lo : lo + block]
        s_t = np.take_along_axis(scores, t[:, None], axis=1)
        scores = scores[:, 2:]
        rank = 1 + np.count_nonzero(scores > s_t, axis=1)
        equal = scores == s_t
        for row in np.flatnonzero(np.count_nonzero(equal, axis=1) > 1).tolist():
            rank[row] += np.count_nonzero(equal[row, : t[row] - 2])  # columns 2..t-1
        ranks[lo : lo + block] = rank
    return ranks


@dataclass(frozen=True)
class AblationRow:
    variant: str
    metrics: Metrics


def ablate(
    train_windows: list[MaskedWindow],
    test_windows: list[MaskedWindow],
    vocab: Vocabulary,
    hp: HyperParams,
    config: TrainConfig,
    code_source: PrecomputedSource | HashedTokenSource | None = None,
    variants: tuple[str, ...] = perscell.VARIANTS,
) -> list[AblationRow]:
    """Train and evaluate each variant under one shared seed and budget so
    row differences are attributable to the ablation flags alone."""
    rows = []
    for variant in variants:
        cfg = TrainConfig(**{**asdict(config), "variant": variant})
        cp = training.train(train_windows, vocab, hp, cfg, code_source)
        metrics, _ = evaluate(cp, test_windows, vocab, code_source)
        rows.append(AblationRow(variant, metrics))
    return rows


REPORT_HEADER = ("variant", "HR@10", "MRR@10", "NDCG@10")


def report_tsv(rows: list[AblationRow]) -> str:
    lines = ["\t".join(REPORT_HEADER)]
    for row in rows:
        m = row.metrics
        lines.append(f"{row.variant}\t{m.hr:.6f}\t{m.mrr:.6f}\t{m.ndcg:.6f}")
    return "\n".join(lines) + "\n"


def report_json(rows: list[AblationRow]) -> str:
    payload = {
        "k": rows[0].metrics.k if rows else 10,
        "rows": [
            {
                "variant": row.variant,
                "hr": row.metrics.hr,
                "mrr": row.metrics.mrr,
                "ndcg": row.metrics.ndcg,
                "events": row.metrics.events,
            }
            for row in rows
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
