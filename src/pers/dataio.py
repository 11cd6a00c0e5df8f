"""Submission-log ingestion: parsing, vocabularies, windowing, split, stats.

Input is JSONL, one record per line, UTF-8, with keys exactly:
learner_id, exercise_id, timestamp, status, exec_time_ms, exec_memory_kb,
and optionally code and/or code_vec_ref.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

STATUSES = (
    "accepted",
    "wrong_answer",
    "compile_error",
    "runtime_error",
    "time_limit",
    "memory_limit",
    "other",
)

PAD_INDEX = 0
UNKNOWN_INDEX = 1


class DataError(ValueError):
    """Unusable input data (unreadable file, strict-mode parse failure)."""


@dataclass(slots=True, frozen=True)
class Interaction:
    """One submission event: the model's (exercise, code, result) triple."""

    learner_id: str
    exercise_id: str
    timestamp: int
    status: str
    exec_time_ms: int
    exec_memory_kb: int
    code: str | None = None
    code_vec_ref: str | None = None

    def to_record(self) -> dict:
        rec = {
            "learner_id": self.learner_id,
            "exercise_id": self.exercise_id,
            "timestamp": self.timestamp,
            "status": self.status,
            "exec_time_ms": self.exec_time_ms,
            "exec_memory_kb": self.exec_memory_kb,
        }
        if self.code is not None:
            rec["code"] = self.code
        if self.code_vec_ref is not None:
            rec["code_vec_ref"] = self.code_vec_ref
        return rec


@dataclass(slots=True, frozen=True)
class ParseIssue:
    line: int
    message: str


_REQUIRED = ("learner_id", "exercise_id", "timestamp", "status", "exec_time_ms", "exec_memory_kb")
_OPTIONAL = ("code", "code_vec_ref")


def _interaction_from_record(rec: dict) -> Interaction:
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    for key in _REQUIRED:
        if key not in rec:
            raise ValueError(f"missing key '{key}'")
    unknown = set(rec) - set(_REQUIRED) - set(_OPTIONAL)
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    status = rec["status"]
    if not isinstance(status, str):
        raise ValueError("status must be a string")
    if status not in STATUSES:
        status = "other"  # unseen judge verdicts collapse to the catch-all
    ts = rec["timestamp"]
    t_ms = rec["exec_time_ms"]
    m_kb = rec["exec_memory_kb"]
    if not isinstance(ts, int) or isinstance(ts, bool):
        raise ValueError("timestamp must be an integer")
    for name, v in (("exec_time_ms", t_ms), ("exec_memory_kb", m_kb)):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"{name} must be a non-negative integer")
    for name in ("learner_id", "exercise_id"):
        if not isinstance(rec[name], str) or not rec[name]:
            raise ValueError(f"{name} must be a non-empty string")
    for name in _OPTIONAL:
        if name in rec and not isinstance(rec[name], str):
            raise ValueError(f"{name} must be a string")
    return Interaction(
        learner_id=rec["learner_id"],
        exercise_id=rec["exercise_id"],
        timestamp=ts,
        status=status,
        exec_time_ms=t_ms,
        exec_memory_kb=m_kb,
        code=rec.get("code"),
        code_vec_ref=rec.get("code_vec_ref"),
    )


def parse_log(path, strict: bool = False) -> tuple[list[Interaction], list[ParseIssue]]:
    """Parse a JSONL submission log, preserving file order.

    Malformed lines are collected as ParseIssues with their 1-based line
    numbers; with strict=True the first issue aborts instead.
    """
    interactions: list[Interaction] = []
    issues: list[ParseIssue] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                interactions.append(_interaction_from_record(json.loads(line)))
            except ValueError as exc:
                issue = ParseIssue(lineno, str(exc))
                if strict:
                    raise DataError(f"line {lineno}: {exc}") from exc
                issues.append(issue)
    return interactions, issues


def write_log(path, interactions: Iterable[Interaction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for it in interactions:
            fh.write(json.dumps(it.to_record(), sort_keys=True) + "\n")


@dataclass(slots=True, frozen=True)
class LearnerSequence:
    """One chronological window (length <= max sequence length) of a learner."""

    learner_id: str
    events: tuple[Interaction, ...]

    def __len__(self) -> int:
        return len(self.events)


class Vocabulary:
    """Exercise id <-> dense index. Index 0 pads, index 1 is unknown."""

    def __init__(self, exercise_ids: Iterable[str]):
        self._ids: list[str] = []
        self._index: dict[str, int] = {}
        for eid in exercise_ids:
            if eid not in self._index:
                self._index[eid] = len(self._ids) + 2
                self._ids.append(eid)

    @property
    def size(self) -> int:
        """Total table size including the two reserved slots (N+2)."""
        return len(self._ids) + 2

    @property
    def n_exercises(self) -> int:
        return len(self._ids)

    def encode(self, exercise_id: str) -> int:
        return int(self.encode_all([exercise_id])[0])

    def encode_all(self, exercise_ids: Sequence[str]) -> np.ndarray:
        """The index of every id, as an int64 array; an unseen id is UNKNOWN_INDEX."""
        unknown = [UNKNOWN_INDEX] * len(exercise_ids)
        return np.fromiter(map(self._index.get, exercise_ids, unknown), dtype=np.int64, count=len(exercise_ids))

    def decode(self, index: int) -> str:
        if index < 2 or index >= self.size:
            raise KeyError(f"index {index} is not a real exercise")
        return self._ids[index - 2]

    def ids(self) -> list[str]:
        return list(self._ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._ids == other._ids


def build_sequences(
    interactions: Iterable[Interaction],
    max_len: int = 50,
    sliding: bool = False,
) -> tuple[list[LearnerSequence], Vocabulary]:
    """Sort each learner's events by time and chunk into windows.

    Windows are non-overlapping by default; sliding=True instead emits
    stride-1 windows of exactly max_len (plus the short head), which only
    makes sense for small data. Ties in timestamp keep input file order.
    Learners are emitted in first-appearance order so downstream batching
    is deterministic.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    by_learner: dict[str, list[Interaction]] = {}
    order: list[str] = []
    vocab_ids: list[str] = []
    for it in interactions:
        if it.learner_id not in by_learner:
            by_learner[it.learner_id] = []
            order.append(it.learner_id)
        by_learner[it.learner_id].append(it)
        vocab_ids.append(it.exercise_id)
    vocab = Vocabulary(vocab_ids)

    sequences: list[LearnerSequence] = []
    for lid in order:
        events = sorted(by_learner[lid], key=lambda it: it.timestamp)  # stable: ties keep file order
        if sliding and len(events) > max_len:
            starts = range(0, len(events) - max_len + 1)
            chunks = [tuple(events[s : s + max_len]) for s in starts]
        else:
            chunks = [tuple(events[i : i + max_len]) for i in range(0, len(events), max_len)]
        for chunk in chunks:
            sequences.append(LearnerSequence(lid, chunk))
    return sequences, vocab


@dataclass(slots=True, frozen=True)
class MaskedWindow:
    """A window plus the step positions whose next-item target is in play.

    Step t's target is the exercise of event t+1 in the same window, so
    the last step never carries a target.
    """

    window: LearnerSequence
    target_steps: tuple[int, ...]


def split(
    sequences: list[LearnerSequence], ratio: float = 0.2
) -> tuple[list[MaskedWindow], list[MaskedWindow]]:
    """Chronological per-learner split of next-item targets.

    For a learner with n events the last ceil(ratio*n) targets are test,
    the earlier ones train; learners with fewer than 3 events are
    train-only. A boundary window can appear in both outputs with
    disjoint target steps.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    by_learner: dict[str, list[LearnerSequence]] = {}
    order: list[str] = []
    for seq in sequences:
        if seq.learner_id not in by_learner:
            by_learner[seq.learner_id] = []
            order.append(seq.learner_id)
        by_learner[seq.learner_id].append(seq)

    train: list[MaskedWindow] = []
    test: list[MaskedWindow] = []
    for lid in order:
        windows = by_learner[lid]
        n_events = sum(len(w) for w in windows)
        targets = [(wi, t) for wi, w in enumerate(windows) for t in range(len(w) - 1)]
        if n_events < 3:
            n_test = 0
        else:
            n_test = min(len(targets), math.ceil(ratio * n_events))
        cut = len(targets) - n_test
        train_steps: dict[int, list[int]] = {}
        test_steps: dict[int, list[int]] = {}
        for pos, (wi, t) in enumerate(targets):
            (train_steps if pos < cut else test_steps).setdefault(wi, []).append(t)
        for wi, w in enumerate(windows):
            if wi in train_steps:
                train.append(MaskedWindow(w, tuple(train_steps[wi])))
            if wi in test_steps:
                test.append(MaskedWindow(w, tuple(test_steps[wi])))
    return train, test


@dataclass(slots=True, frozen=True)
class DatasetStats:
    learners: int
    interactions: int
    exercises: int
    sparsity: float
    pass_rate: float
    ape: float


def sparsity_from_counts(learners: int, exercises: int, interactions: int) -> float:
    return 1.0 - interactions / (learners * exercises)


def stats(interactions: Iterable[Interaction]) -> DatasetStats:
    """Corpus statistics: counts, sparsity, pass rate, attempts-per-exercise.

    sparsity = 1 - I/(U*E); pass_rate = accepted/I; ape = mean attempt
    count over distinct (learner, exercise) pairs, counting all attempts
    including post-acceptance resubmissions. Accepts any iterable and
    streams it, so counts-scale synthetic corpora need not be
    materialised.
    """
    learners: set[str] = set()
    exercises: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    total = 0
    accepted = 0
    for it in interactions:
        total += 1
        learners.add(it.learner_id)
        exercises.add(it.exercise_id)
        pairs.add((it.learner_id, it.exercise_id))
        if it.status == "accepted":
            accepted += 1
    if total == 0:
        raise DataError("stats: empty input")
    return DatasetStats(
        learners=len(learners),
        interactions=total,
        exercises=len(exercises),
        sparsity=sparsity_from_counts(len(learners), len(exercises), total),
        pass_rate=accepted / total,
        ape=total / len(pairs),
    )


STATS_COLUMNS = ("Dataset", "#Learners", "#Interactions", "#Exercises", "#Sparsity", "#Pass-Rate", "#APE")


def format_stats(name: str, s: DatasetStats) -> str:
    """One tab-separated table (header + row) in the corpus-table layout."""
    row = (
        name,
        str(s.learners),
        str(s.interactions),
        str(s.exercises),
        f"{100.0 * s.sparsity:.2f}%",
        f"{100.0 * s.pass_rate:.2f}%",
        f"{s.ape:.2f}",
    )
    return "\t".join(STATS_COLUMNS) + "\n" + "\t".join(row) + "\n"
