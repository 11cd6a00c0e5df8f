"""Synthetic trial-and-error submission logs with known learning styles.

Each learner follows a generative loop over a difficulty-rated catalog:
pass probability rises with ability and with repeated feedback on the
same exercise; reflective learners keep retrying after failures while
active learners deliberate first (a pass-probability boost) and abandon
sooner; sequential learners walk the catalog in index order while global
learners jump to random unsolved exercises. The emitted code vectors
carry the attempt-progress signal, so code differences are informative.

All constants here are simulator design values chosen to make the four
style cells statistically separable without being trivially so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codefeat import PrecomputedSource
from .dataio import DataError, Interaction, numbered_lines

PROCESSING = ("active", "reflective")
UNDERSTANDING = ("sequential", "global")

FEEDBACK_GAIN = 0.4  # pass-probability boost per prior attempt on the exercise
ACTIVE_BOOST = 0.8  # deliberation bonus for active learners
RETRY_PROB = {"reflective": 0.9, "active": 0.4}
NOISE_SCALE = 0.05  # noise half of the code vector; kept well below the progress-slot deltas


@dataclass(frozen=True)
class LearnerProfile:
    processing: str
    understanding: str
    base_ability: float  # in [-2, 2]
    learning_rate: float  # eta > 0, ability gain per solved exercise

    def __post_init__(self):
        if self.processing not in PROCESSING:
            raise ValueError(f"processing must be one of {PROCESSING}")
        if self.understanding not in UNDERSTANDING:
            raise ValueError(f"understanding must be one of {UNDERSTANDING}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class ExerciseCatalog:
    difficulties: np.ndarray  # index order defines the curriculum

    @classmethod
    def random(cls, size: int, rng: np.random.Generator) -> "ExerciseCatalog":
        return cls(rng.uniform(-2.0, 2.0, size=size))

    def __len__(self) -> int:
        return len(self.difficulties)

    def exercise_id(self, index: int) -> str:
        return f"p{index:04d}"


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-x))


def _code_vector(d_c: int, rng, attempt_index: int, ability: float, difficulty: float, passed: bool) -> np.ndarray:
    vec = np.zeros(d_c)
    half = d_c // 2
    vec[:half] = rng.normal(0.0, NOISE_SCALE, size=half)
    signal = [attempt_index / 5.0, ability, difficulty, 1.0 if passed else 0.0]
    vec[half : half + min(len(signal), d_c - half)] = signal[: d_c - half]
    return vec


def simulate_learner(
    profile: LearnerProfile,
    catalog: ExerciseCatalog,
    steps: int,
    rng: np.random.Generator,
    learner_id: str = "sim0",
    d_c: int = 16,
    t0: int = 1_600_000_000,
) -> tuple[list[Interaction], dict[str, np.ndarray]]:
    """Emit exactly `steps` submissions plus their synthetic code vectors."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if len(catalog) == 0:
        raise ValueError("catalog is empty")
    ability = profile.base_ability
    boost = ACTIVE_BOOST if profile.processing == "active" else 0.0
    retry_p = RETRY_PROB[profile.processing]
    unsolved = set(range(len(catalog)))
    shelved: set[int] = set()  # abandoned-but-unsolved; revisited only when nothing else is left
    attempts = np.zeros(len(catalog), dtype=np.int64)

    def pick_next() -> int:
        # Shelving makes "moving on" after a failure actually move on:
        # without it a sequential learner's lowest-index unsolved exercise
        # is the one just abandoned, and abandonment would be a no-op.
        candidates = unsolved - shelved
        if not candidates:
            shelved.clear()
            candidates = unsolved
        if not candidates:
            unsolved.update(range(len(catalog)))  # fresh pass once exhausted
            candidates = unsolved
        if profile.understanding == "sequential":
            return min(candidates)
        return int(rng.choice(sorted(candidates)))

    interactions: list[Interaction] = []
    vectors: dict[str, np.ndarray] = {}
    current = pick_next()
    for step in range(steps):
        difficulty = float(catalog.difficulties[current])
        p_pass = _sigmoid(ability - difficulty + FEEDBACK_GAIN * attempts[current] + boost)
        passed = rng.random() < p_pass
        ref = f"{learner_id}:{step}"
        vectors[ref] = _code_vector(d_c, rng, int(attempts[current]), ability, difficulty, passed)
        interactions.append(
            Interaction(
                learner_id=learner_id,
                exercise_id=catalog.exercise_id(current),
                timestamp=t0 + step,
                status="accepted" if passed else "wrong_answer",
                exec_time_ms=int(np.exp(rng.normal(3.0, 0.5))),
                exec_memory_kb=int(np.exp(rng.normal(6.0, 0.5))),
                code_vec_ref=ref,
            )
        )
        attempts[current] += 1
        if passed:
            ability += profile.learning_rate
            unsolved.discard(current)
            shelved.discard(current)
            current = pick_next()
        elif rng.random() >= retry_p:
            shelved.add(current)  # abandoned: still unsolved, but skipped for now
            current = pick_next()
    return interactions, vectors


@dataclass
class Population:
    interactions: list[Interaction]
    vectors: dict[str, np.ndarray]
    labels: dict[str, tuple[str, str]]  # learner_id -> (processing, understanding)
    d_c: int

    def source(self) -> PrecomputedSource:
        return PrecomputedSource(self.vectors, self.d_c)


def simulate_population(
    n: int,
    mix: dict[tuple[str, str], float],
    catalog: ExerciseCatalog,
    steps: int,
    seed: int,
    d_c: int = 16,
) -> Population:
    """n learners with profiles drawn from the mix, simulated on
    independent per-learner streams derived from (seed, learner index)."""
    cells = sorted(mix)
    probs = np.array([mix[c] for c in cells])
    if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs < 0):
        raise ValueError("mix proportions must be non-negative and sum to 1")
    assign_rng = np.random.default_rng([seed, 0])
    cell_idx = assign_rng.choice(len(cells), size=n, p=probs)

    interactions: list[Interaction] = []
    vectors: dict[str, np.ndarray] = {}
    labels: dict[str, tuple[str, str]] = {}
    for i in range(n):
        learner_rng = np.random.default_rng([seed, 1, i])
        processing, understanding = cells[cell_idx[i]]
        profile = LearnerProfile(
            processing=processing,
            understanding=understanding,
            base_ability=float(learner_rng.uniform(-2.0, 2.0)),
            # slow drift: ability should not saturate the pass probability
            # within a few hundred steps, or late-sequence behaviour stops
            # carrying any style signal
            learning_rate=float(learner_rng.uniform(0.002, 0.01)),
        )
        lid = f"sim{i:05d}"
        its, vecs = simulate_learner(profile, catalog, steps, learner_rng, lid, d_c)
        interactions.extend(its)
        vectors.update(vecs)
        labels[lid] = (processing, understanding)
    return Population(interactions, vectors, labels, d_c)


LABELS_HEADER = "learner_id\tprocessing\tunderstanding"


def write_labels(path, labels: dict[str, tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(LABELS_HEADER + "\n")
        for lid in sorted(labels):
            processing, understanding = labels[lid]
            fh.write(f"{lid}\t{processing}\t{understanding}\n")


def read_labels(path) -> dict[str, tuple[str, str]]:
    """Read a labels file: LABELS_HEADER, then per line a learner id and
    its processing and understanding labels, tab-separated. Blank lines
    are skipped. A bad header, a line without exactly three fields, a
    learner listed twice or a byte that is not UTF-8 raises DataError
    naming the file and the line."""
    labels: dict[str, tuple[str, str]] = {}
    with open(path, "rb") as fh:
        lines = numbered_lines(fh)
        _, header = next(lines, (1, ""))
        if header is None:
            raise DataError(f"{path}: line 1 is not UTF-8 text")
        header = header.rstrip("\n")
        if header != LABELS_HEADER:
            raise DataError(f"{path}: bad labels header: {header!r}")
        for lineno, line in lines:
            if line is None:
                raise DataError(f"{path}: line {lineno} is not UTF-8 text")
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 3:
                raise DataError(f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
            if fields[0] in labels:
                raise DataError(f"{path}: line {lineno}: learner {fields[0]!r} is listed twice")
            labels[fields[0]] = (fields[1], fields[2])
    return labels

