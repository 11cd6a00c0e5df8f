"""Seeded input generator for the pers benchmark.

Writes a submission log, a style-label file and a tally of what it wrote
(record count, learners, distinct exercises, per-learner history
lengths); for workloads with precomputed code features also a vectors
file, and for the raw-code workload synthetic code text inside the log.

It imports nothing from the program under test, so the inputs of a seed
stay the same whatever a change does to the program, and the tally is an
independent reference for the output checks. It runs in its own process
so that its time and memory stay out of every metric.

    python3 benchmarks/gen.py --spec SPEC_JSON --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os

import numpy as np

FEEDBACK_GAIN = 0.4  # pass-probability boost per prior attempt on the exercise
ACTIVE_BOOST = 0.8  # deliberation bonus for active learners
RETRY_PROB = {"reflective": 0.9, "active": 0.4}
NOISE_SCALE = 0.05
T0 = 1_600_000_000
STYLE_CELLS = (
    ("active", "sequential"),
    ("active", "global"),
    ("reflective", "sequential"),
    ("reflective", "global"),
)


def exercise_id(index: int) -> str:
    return f"p{index:04d}"


def simulate_learner(rng, n_steps, difficulties, processing, understanding):
    """(exercise index, attempt index, passed) per step for one learner.

    Active learners pass more often on a first try and abandon a failed
    exercise sooner; sequential learners take the lowest-index open
    exercise next, global learners a random open one. An abandoned
    exercise is shelved until nothing else is open.
    """
    m = len(difficulties)
    ability = float(rng.uniform(-2.0, 2.0))
    gain = float(rng.uniform(0.002, 0.01))
    boost = ACTIVE_BOOST if processing == "active" else 0.0
    retry = RETRY_PROB[processing]
    solved = np.zeros(m, dtype=bool)
    shelved = np.zeros(m, dtype=bool)
    attempts = np.zeros(m, dtype=np.int64)
    u_pass = rng.random(n_steps)
    u_retry = rng.random(n_steps)

    def pick() -> int:
        open_ = ~(solved | shelved)
        if not open_.any():
            shelved[:] = False
            open_ = ~solved
        if not open_.any():
            solved[:] = False  # a fresh pass once the catalog is exhausted
            open_[:] = True
        if understanding == "sequential":
            return int(np.argmax(open_))
        for _ in range(8):
            j = int(rng.integers(m))
            if open_[j]:
                return j
        return int(rng.choice(np.flatnonzero(open_)))

    steps = []
    current = pick()
    for s in range(n_steps):
        z = ability - difficulties[current] + FEEDBACK_GAIN * attempts[current] + boost
        passed = bool(u_pass[s] < 1.0 / (1.0 + math.exp(-z)))
        steps.append((current, int(attempts[current]), passed, ability))
        attempts[current] += 1
        if passed:
            ability += gain
            solved[current] = True
            shelved[current] = False
            current = pick()
        elif u_retry[s] >= retry:
            shelved[current] = True
            current = pick()
    return steps


def code_text(k: int, ex: int, attempt: int, passed: bool) -> str:
    """Synthetic program text: an exercise-specific skeleton plus debug
    lines that grow with the attempt count and vanish once it passes."""
    lines = [
        f"def solve_{exercise_id(ex)}(data, n):",
        "    acc = 0",
        "    for i in range(n):",
        f"        acc += data[i] * {k}",
    ]
    if not passed:
        lines += [f"    print(debug_{j}, acc, i)" for j in range(min(attempt, 4) + 1)]
    lines += [f"    if acc > {k * 7}:", "        return acc", "    return -1"]
    return "\n".join(lines) + "\n"


def generate(spec: dict, seed: int, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 7])
    n_learners = spec["learners"]
    catalog = spec["catalog"]
    d_c = spec["d_c"]
    raw_code = spec["code"] == "raw"
    difficulties = rng.uniform(-2.0, 2.0, size=catalog)
    cells = [STYLE_CELLS[i % 4] for i in range(n_learners)]
    cells = [cells[i] for i in rng.permutation(n_learners)]
    lo, hi = spec["steps"]
    # An evenly spread set of history lengths, dealt out by the seed: each
    # learner's length varies with the seed, their sum and spread do not.
    lengths = rng.permutation(np.linspace(lo, hi, n_learners).round().astype(np.int64))

    rows = []  # per learner: (json line, vectors line or None) per step
    accepted = 0
    visited: set[int] = set()
    for i in range(n_learners):
        lrng = np.random.default_rng([seed, 11, i])
        n = int(lengths[i])
        steps = simulate_learner(lrng, n, difficulties, *cells[i])
        exec_ms = np.exp(lrng.normal(3.0, 0.5, size=n)).astype(np.int64)
        exec_kb = np.exp(lrng.normal(6.0, 0.5, size=n)).astype(np.int64)
        noise = lrng.normal(0.0, NOISE_SCALE, size=(n, d_c // 2))
        consts = lrng.integers(2, 9, size=n)
        lid = f"u{i:04d}"
        learner_rows = []
        for s, (ex, attempt, passed, ability) in enumerate(steps):
            visited.add(ex)
            accepted += passed
            rec = {
                "learner_id": lid,
                "exercise_id": exercise_id(ex),
                "timestamp": T0 + 60 * s,
                "status": "accepted" if passed else "wrong_answer",
                "exec_time_ms": int(exec_ms[s]),
                "exec_memory_kb": int(exec_kb[s]),
            }
            vec_line = None
            if raw_code:
                rec["code"] = code_text(int(consts[s]), ex, attempt, passed)
            else:
                ref = f"{lid}:{s}"
                rec["code_vec_ref"] = ref
                signal = [attempt / 5.0, ability, difficulties[ex], 1.0 if passed else 0.0]
                vec = list(noise[s]) + signal[: d_c - d_c // 2]
                vec_line = ref + " " + " ".join(f"{v:.17g}" for v in vec)
            learner_rows.append((json.dumps(rec, sort_keys=True), vec_line))
        rows.append(learner_rows)

    # Interleave learners step by step, as a judge log would, so that
    # parsing must regroup records by learner.
    records, vec_lines = [], []
    for s in range(int(lengths.max())):
        for learner_rows in rows:
            if s < len(learner_rows):
                records.append(learner_rows[s][0])
                if learner_rows[s][1] is not None:
                    vec_lines.append(learner_rows[s][1])

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "data.jsonl"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(records) + "\n")
    if not raw_code:
        with open(os.path.join(out_dir, "vectors.txt"), "w", encoding="utf-8") as fh:
            fh.write(f"PERSVEC1 d_c={d_c}\n" + "\n".join(vec_lines) + "\n")
    with open(os.path.join(out_dir, "labels.tsv"), "w", encoding="utf-8") as fh:
        fh.write("learner_id\tprocessing\tunderstanding\n")
        for i, (processing, understanding) in enumerate(cells):
            fh.write(f"u{i:04d}\t{processing}\t{understanding}\n")
    tally = {
        "records": len(records),
        "learners": n_learners,
        "exercises": len(visited),
        "accepted": accepted,
        "lengths": {f"u{i:04d}": int(n) for i, n in enumerate(lengths)},
        "labels": {f"u{i:04d}": list(c) for i, c in enumerate(cells)},
    }
    with open(os.path.join(out_dir, "tally.json"), "w", encoding="utf-8") as fh:
        json.dump(tally, fh)
    return tally


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload input spec as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the generated files")
    args = parser.parse_args()
    generate(json.loads(args.spec), args.seed, args.out)


if __name__ == "__main__":
    main()
