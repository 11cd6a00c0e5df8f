"""Submission-log ingestion: parsing, vocabularies, windowing, split,
the event table, stats.

Input is JSONL, one record per line, UTF-8, with keys exactly:
learner_id, exercise_id, timestamp, status, exec_time_ms, exec_memory_kb,
and optionally code and/or code_vec_ref.

`build_sequences` lays a dataset's events out once, learner after
learner in time order, as one `EventTable` under the dataset's
vocabulary, and encodes there every column the model reads but the code.
Every window it cuts is a row range of that table; a learner's windows
tile its rows, so its whole history is one row range too. The table
never changes after it is built, so a batch is a plain index gather from
its columns. Code bag numbers alone are kept per code source from the
first time a batch reads a row (see `EventTable`).
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter, itemgetter
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

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
N_TIME_BUCKETS = 32
N_MEMORY_BUCKETS = 32


class DataError(ValueError):
    """Unusable input data (unreadable file, strict-mode parse failure)."""


class Interaction(NamedTuple):
    """One submission event: the model's (exercise, code, result) triple.

    A tuple, so it is immutable and cheap to build; it also compares equal
    to the plain tuple of its fields.
    """

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
_REQUIRED_KEYS = frozenset(_REQUIRED)
_KEYS = frozenset(_REQUIRED + _OPTIONAL)
_required_values = itemgetter(*_REQUIRED)
_scan = json.JSONDecoder().scan_once  # the C scanner that json.loads runs
_JSON_SPACE = " \t\n\r"


def _interaction_from_record(rec: dict) -> Interaction:
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    for key in _REQUIRED:
        if key not in rec:
            raise ValueError(f"missing key '{key}'")
    unknown = set(rec) - _KEYS
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


def _parse_line(line: str | None) -> Interaction | None:
    """The reference reading of one log line: its record, or None for a
    blank line. Any other line raises a ValueError whose text is the
    line's parse message."""
    if line is None:
        raise ValueError("not UTF-8 text")
    if not line.strip():
        return None
    try:
        rec = json.loads(line)
    except RecursionError:
        raise ValueError("nested too deeply") from None
    return _interaction_from_record(rec)


def _scan_line(line: str) -> Interaction | None:
    """The record of a line that is one valid record as it stands: a JSON
    object from the first character on, with only JSON whitespace after
    it, exactly the allowed keys and fields of the exact types. None for
    any other line, whatever `_parse_line` makes of it.

    One call of the C scanner and a few type tests: the same record as
    `_parse_line` at a fraction of the cost."""
    try:
        rec, end = _scan(line, 0)
    except (StopIteration, ValueError, RecursionError):  # no value at 0, bad JSON, deep nesting
        return None
    if type(rec) is not dict or line[end:].strip(_JSON_SPACE) or not _REQUIRED_KEYS <= rec.keys() <= _KEYS:
        return None
    lid, eid, ts, status, t_ms, m_kb = _required_values(rec)
    code = rec.get("code")
    ref = rec.get("code_vec_ref")
    # JSON yields no int subclass but bool. An optional key present with
    # null makes the record longer than its non-null fields.
    if (type(lid) is str and lid and type(eid) is str and eid and type(ts) is int and type(status) is str
            and type(t_ms) is int and t_ms >= 0 and type(m_kb) is int and m_kb >= 0
            and (code is None or type(code) is str) and (ref is None or type(ref) is str)
            and len(rec) == len(_REQUIRED) + (code is not None) + (ref is not None)):
        return Interaction(lid, eid, ts, status if status in STATUSES else "other", t_ms, m_kb, code, ref)
    return None


def numbered_lines(fh: BinaryIO) -> Iterator[tuple[int, str | None]]:
    """Each line of a binary file, numbered from 1, with a CR LF ending read
    as LF as text mode reads it, decoded alone as UTF-8 (a newline byte is
    never part of a multi-byte character); None where it is not UTF-8."""
    for lineno, raw in enumerate(fh, start=1):
        if raw.endswith(b"\r\n"):
            raw = raw[:-2] + b"\n"
        try:
            yield lineno, raw.decode("utf-8")
        except UnicodeDecodeError:
            yield lineno, None


def parse_log(path, strict: bool = False) -> tuple[list[Interaction], list[ParseIssue]]:
    """Parse a JSONL submission log, preserving file order.

    Malformed lines, a line that is not UTF-8 text among them, are
    collected as ParseIssues with their 1-based line numbers; with
    strict=True the first issue aborts instead. A line that `_scan_line`
    does not take goes to `_parse_line`, which words every message.
    """
    interactions: list[Interaction] = []
    issues: list[ParseIssue] = []
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in numbered_lines(fh):
            record = None if line is None else _scan_line(line)
            if record is None:
                try:
                    record = _parse_line(line)
                except ValueError as exc:
                    if strict:
                        raise DataError(f"line {lineno}: {exc}") from exc
                    issues.append(ParseIssue(lineno, str(exc)))
                    continue
            if record is not None:
                interactions.append(record)
    return interactions, issues


def write_log(path, interactions: Iterable[Interaction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for it in interactions:
            fh.write(json.dumps(it.to_record(), sort_keys=True) + "\n")


@dataclass(slots=True, frozen=True)
class LearnerSequence:
    """A row range of one learner: rows start..stop of the dataset's
    `EventTable`, in time order. It is either a window (length <= max
    sequence length) or the whole history that the latent export reads.
    Two ranges are equal when they are the same rows of the same table."""

    learner_id: str
    table: EventTable
    start: int
    stop: int

    @property
    def events(self) -> tuple[Interaction, ...]:
        return self.table.events[self.start : self.stop]

    def __len__(self) -> int:
        return self.stop - self.start


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
    def n_exercises(self) -> int:
        return len(self._ids)

    def encode(self, exercise_id: str) -> int:
        return int(self.encode_all([exercise_id])[0])

    def encode_all(self, exercise_ids: Sequence[str]) -> np.ndarray:
        """The index of every id, as an int64 array; an unseen id is UNKNOWN_INDEX."""
        unknown = [UNKNOWN_INDEX] * len(exercise_ids)
        return np.fromiter(map(self._index.get, exercise_ids, unknown), dtype=np.int64, count=len(exercise_ids))

    def ids(self) -> list[str]:
        return list(self._ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self._ids == other._ids


_STATUS_INDEX = {status: i for i, status in enumerate(STATUSES)}


def status_index(statuses: Sequence[str]) -> np.ndarray:
    """The index in STATUSES of each status; an unseen verdict counts as
    "other"."""
    other = [_STATUS_INDEX["other"]] * len(statuses)
    return np.fromiter(map(_STATUS_INDEX.get, statuses, other), dtype=np.int64, count=len(statuses))


def _log2_bucket(counts, n_buckets: int) -> np.ndarray:
    """floor(log2(count + 1)) of each non-negative integer, capped at
    n_buckets - 1: Python's (count + 1).bit_length() - 1.

    counts may be one int or a sequence of Python ints of any size; they
    are clipped below 2**n_buckets before entering int64, which keeps the
    cap and never overflows.
    """
    clipped = np.asarray(np.minimum(np.asarray(counts), 2**n_buckets), dtype=np.int64)
    # frexp's exponent of an integer below 2**53 is its bit length.
    return np.minimum(np.frexp((clipped + 1).astype(np.float64))[1] - 1, n_buckets - 1).astype(np.int64)


def time_bucket(exec_time_ms) -> np.ndarray:
    """log2 bucket of each millisecond count, capped at 31."""
    return _log2_bucket(exec_time_ms, N_TIME_BUCKETS)


def memory_bucket(exec_memory_kb) -> np.ndarray:
    """log2 bucket of each kilobyte count, capped at 31."""
    return _log2_bucket(exec_memory_kb, N_MEMORY_BUCKETS)


def _field(events: Sequence[Interaction], name: str) -> list:
    """One field of every event. An index read of a tuple costs less than
    the attribute read of a named tuple's field."""
    return list(map(itemgetter(Interaction._fields.index(name)), events))


class EventTable:
    """A dataset's events in window order. Row r is `events[r]`, and the
    read-only (4, n) int64 `columns[:, r]`, encoded when the table is
    built, holds its exercise index under `vocab`, its status index and
    its time and memory buckets.

    Only a row's code bag number is encoded on demand, under each code
    source from the first time a batch reads the row, and kept: the code
    source is chosen after the dataset loads, and tokenizing code text is
    most of a cold pass over raw code, so one eval hashes only its rows.
    """

    def __init__(self, events: Iterable[Interaction], vocab: Vocabulary):
        self.events: tuple[Interaction, ...] = tuple(events)
        self.vocab = vocab
        events = self.events
        self.columns = np.stack((
            vocab.encode_all(_field(events, "exercise_id")),
            status_index(_field(events, "status")),
            time_bucket(_field(events, "exec_time_ms")),
            memory_bucket(_field(events, "exec_memory_kb")),
        ))
        self.columns.flags.writeable = False
        self._bags = weakref.WeakKeyDictionary()  # code source -> bag number of each row, -1 if not asked yet

    def bag_numbers(self, source, rows: np.ndarray) -> np.ndarray:
        """source's bag number of the code of each of `rows`. Rows not yet
        numbered go to `source.bag_numbers` in the order given, so a
        missing code raises for the first such row, as it would unkept."""
        numbers = self._bags.get(source)
        if numbers is None:
            numbers = self._bags[source] = np.full(len(self.events), -1, dtype=np.int64)
        todo = rows[numbers[rows] < 0]
        if todo.size:
            events = self.events
            numbers[todo] = source.bag_numbers([events[r] for r in todo.tolist()])
        return numbers[rows]


def build_sequences(
    interactions: Iterable[Interaction],
    max_len: int = 50,
) -> tuple[list[LearnerSequence], Vocabulary]:
    """Sort each learner's events by time and cut them into consecutive
    windows of max_len, the last one shorter.

    Ties in timestamp keep input file order. Learners are emitted in
    first-appearance order so downstream batching is deterministic. The
    sorted events form one `EventTable` under the returned vocabulary,
    learner after learner, and each window is a row range of it.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    by_learner: dict[str, list[Interaction]] = {}
    vocab_ids: list[str] = []
    for it in interactions:
        lid = it.learner_id
        if lid not in by_learner:
            by_learner[lid] = []
        by_learner[lid].append(it)
        vocab_ids.append(it.exercise_id)
    vocab = Vocabulary(vocab_ids)

    # dicts keep first-seen order; the sort is stable, so ties keep file order
    histories = {lid: sorted(events, key=attrgetter("timestamp")) for lid, events in by_learner.items()}
    table = EventTable(chain.from_iterable(histories.values()), vocab)
    sequences: list[LearnerSequence] = []
    base = 0
    for lid, events in histories.items():
        stop = base + len(events)
        sequences += [LearnerSequence(lid, table, lo, min(lo + max_len, stop)) for lo in range(base, stop, max_len)]
        base = stop
    return sequences, vocab


@dataclass(slots=True, frozen=True)
class MaskedWindow:
    """A window plus the step positions whose next-item target is in play.

    Step t's target is the exercise of event t+1 in the same window, so
    the last step never carries a target. The latent export wraps a
    learner's history with no targets.
    """

    window: LearnerSequence
    target_steps: tuple[int, ...]


def split(
    sequences: list[LearnerSequence], ratio: float = 0.2
) -> tuple[list[MaskedWindow], list[MaskedWindow]]:
    """Chronological per-learner split of next-item targets.

    For a learner with n events the last ceil(ratio*n) targets are test,
    the earlier ones train; learners with fewer than 3 events are
    train-only. Windows come in the order given, grouped by learner in
    first-seen order. A window's train steps and its test steps are two
    contiguous runs, so a boundary window can appear in both outputs.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    by_learner: dict[str, list[LearnerSequence]] = {}  # first-seen order
    for seq in sequences:
        by_learner.setdefault(seq.learner_id, []).append(seq)

    train: list[MaskedWindow] = []
    test: list[MaskedWindow] = []
    for windows in by_learner.values():
        n_events = sum(len(w) for w in windows)
        n_targets = n_events - len(windows)  # every step but each window's last
        n_test = 0 if n_events < 3 else min(n_targets, math.ceil(ratio * n_events))
        n_train = n_targets - n_test  # train targets not yet placed
        for w in windows:
            a = min(n_train, len(w) - 1)
            n_train -= a
            if a:
                train.append(MaskedWindow(w, tuple(range(a))))
            if a < len(w) - 1:
                test.append(MaskedWindow(w, tuple(range(a, len(w) - 1))))
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
