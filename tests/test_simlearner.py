from __future__ import annotations

import numpy as np
import pytest

from conftest import uniform_mix
from pers import dataio, simlearner
from pers.codefeat import write_vectors


def catalog(size=30, seed=0):
    return simlearner.ExerciseCatalog.random(size, np.random.default_rng(seed))


def profile(processing="active", understanding="sequential", a0=0.0, eta=0.1):
    return simlearner.LearnerProfile(processing, understanding, a0, eta)


def mean_attempts_per_exercise(interactions):
    pairs = {}
    for it in interactions:
        pairs[it.exercise_id] = pairs.get(it.exercise_id, 0) + 1
    return len(interactions) / len(pairs)


def test_profile_validation():
    with pytest.raises(ValueError):
        profile(processing="bored")
    with pytest.raises(ValueError):
        profile(eta=-1.0)


def test_emits_exact_step_count_and_schema_fields():
    its, vectors = simlearner.simulate_learner(profile(), catalog(), 50, np.random.default_rng(1))
    assert len(its) == 50
    assert len(vectors) == 50
    for t, it in enumerate(its):
        assert it.status in ("accepted", "wrong_answer")
        assert it.code_vec_ref == f"sim0:{t}"
        assert it.exec_time_ms >= 0 and it.exec_memory_kb >= 0
    ts = [it.timestamp for it in its]
    assert ts == sorted(ts)


def test_high_ability_learner_passes_everything():
    its, _ = simlearner.simulate_learner(profile(a0=50.0), catalog(), 40, np.random.default_rng(2))
    assert all(it.status == "accepted" for it in its)


def test_sequential_first_submissions_follow_catalog_order():
    its, _ = simlearner.simulate_learner(
        profile(processing="reflective", a0=1.0), catalog(60), 200, np.random.default_rng(3)
    )
    seen = []
    for it in its:
        if it.exercise_id not in seen:
            seen.append(it.exercise_id)
    assert seen == sorted(seen)
    indices = [int(e[1:]) for e in seen]
    assert indices == list(range(indices[0], indices[-1] + 1))


def test_global_learner_jumps_around():
    its, _ = simlearner.simulate_learner(
        profile(understanding="global", a0=1.0), catalog(60), 100, np.random.default_rng(4)
    )
    first_seen = []
    for it in its:
        if it.exercise_id not in first_seen:
            first_seen.append(it.exercise_id)
    assert first_seen != sorted(first_seen)


def test_reflective_retries_more_than_active_same_seed():
    # Catalog larger than the step budget, so attempts-per-exercise is not
    # flattened by catalog exhaustion.
    cat = catalog(1200)
    active, _ = simlearner.simulate_learner(
        profile(processing="active", a0=-0.5, eta=0.005), cat, 1000, np.random.default_rng(5)
    )
    reflective, _ = simlearner.simulate_learner(
        profile(processing="reflective", a0=-0.5, eta=0.005), cat, 1000, np.random.default_rng(5)
    )
    assert mean_attempts_per_exercise(reflective) > mean_attempts_per_exercise(active)


def test_code_vectors_carry_progress_signal():
    its, vectors = simlearner.simulate_learner(
        profile(processing="reflective", a0=-1.0), catalog(), 100, np.random.default_rng(6), d_c=8
    )
    # slot half+3 is the pass flag
    for it in its:
        v = vectors[it.code_vec_ref]
        assert v.shape == (8,)
        assert v[7] == (1.0 if it.status == "accepted" else 0.0)


def test_population_rejects_bad_mix():
    with pytest.raises(ValueError, match="mix"):
        simlearner.simulate_population(
            4, {("active", "sequential"): 0.7}, catalog(), 5, seed=0
        )


def test_population_label_counts_within_binomial_bounds():
    pop = simlearner.simulate_population(100, uniform_mix(), catalog(), 5, seed=42)
    counts = {}
    for cell in pop.labels.values():
        counts[cell] = counts.get(cell, 0) + 1
    # Binomial(100, 1/4): 99% interval is roughly 25 +/- 2.58*sqrt(18.75)
    for cell, c in counts.items():
        assert 13 <= c <= 37, (cell, c)


def write_population(pop, log_path, vectors_path, labels_path):
    """The three files `pers simulate` writes."""
    dataio.write_log(log_path, pop.interactions)
    write_vectors(vectors_path, pop.vectors, pop.d_c)
    simlearner.write_labels(labels_path, pop.labels)


def test_population_same_seed_identical_files(tmp_path):
    for tag in ("a", "b"):
        pop = simlearner.simulate_population(6, uniform_mix(), catalog(), 30, seed=9)
        write_population(pop, tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.vec", tmp_path / f"{tag}.tsv")
    for ext in (".jsonl", ".vec", ".tsv"):
        assert (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()


def test_population_files_validate_against_schema(tmp_path):
    pop = simlearner.simulate_population(5, uniform_mix(), catalog(), 20, seed=7)
    write_population(pop, tmp_path / "d.jsonl", tmp_path / "d.vec", tmp_path / "d.tsv")
    interactions, issues = dataio.parse_log(tmp_path / "d.jsonl")
    assert issues == []
    assert len(interactions) == 100
    from pers.codefeat import read_vectors

    source = read_vectors(tmp_path / "d.vec")
    for it in interactions:
        assert it.code_vec_ref in source.rows
    labels = simlearner.read_labels(tmp_path / "d.tsv")
    assert set(labels) == {it.learner_id for it in interactions}


def test_read_labels_skips_blank_lines(tmp_path):
    labels = {"u1": ("active", "global"), "u2": ("reflective", "sequential")}
    simlearner.write_labels(tmp_path / "a.tsv", labels)
    text = (tmp_path / "a.tsv").read_text(encoding="utf-8")
    head, first, second = text.splitlines()
    (tmp_path / "b.tsv").write_text("\n".join([head, "", first, "  ", second, "", ""]), encoding="utf-8")
    # CR LF endings read as text mode reads them.
    (tmp_path / "c.tsv").write_bytes("\r\n".join([head, "", first, second, ""]).encode())
    assert simlearner.read_labels(tmp_path / "a.tsv") == simlearner.read_labels(tmp_path / "b.tsv") == labels
    assert simlearner.read_labels(tmp_path / "c.tsv") == labels


def test_ape_gap_holds_at_99pct_bootstrap_confidence():
    cat = catalog(600)
    n, steps = 50, 500
    refl = simlearner.simulate_population(
        n, {("reflective", "sequential"): 0.5, ("reflective", "global"): 0.5}, cat, steps, seed=17
    )
    act = simlearner.simulate_population(
        n, {("active", "sequential"): 0.5, ("active", "global"): 0.5}, cat, steps, seed=18
    )

    def per_learner(pop):
        counts = {}
        for it in pop.interactions:
            c = counts.setdefault(it.learner_id, [0, set()])
            c[0] += 1
            c[1].add(it.exercise_id)
        return [(n_i, len(pairs)) for n_i, pairs in counts.values()]

    stats_r, stats_a = per_learner(refl), per_learner(act)
    rng = np.random.default_rng(0)
    wins = 0
    trials = 300
    for _ in range(trials):
        rs = [stats_r[i] for i in rng.integers(0, n, size=n)]
        as_ = [stats_a[i] for i in rng.integers(0, n, size=n)]
        ape_r = sum(x for x, _ in rs) / sum(p for _, p in rs)
        ape_a = sum(x for x, _ in as_) / sum(p for _, p in as_)
        wins += ape_r > ape_a
    assert wins / trials >= 0.99


def test_reflective_population_has_higher_ape():
    cat = catalog(600)
    refl = simlearner.simulate_population(
        12, {("reflective", "sequential"): 0.5, ("reflective", "global"): 0.5}, cat, 400, seed=3
    )
    act = simlearner.simulate_population(
        12, {("active", "sequential"): 0.5, ("active", "global"): 0.5}, cat, 400, seed=3
    )
    ape_r = dataio.stats(refl.interactions).ape
    ape_a = dataio.stats(act.interactions).ape
    assert ape_r > ape_a
