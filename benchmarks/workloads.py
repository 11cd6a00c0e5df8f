"""The benchmark workloads: their inputs, the timed phases and the output
checks.

Each phase calls the documented entry points the `pers` CLI handlers
call, on inputs written by `gen.py`:

- setup: `cli.load_dataset` (parse, window, split) and
  `cli.load_code_source` (vectors file or hashed source), repeated
  SETUP_REPS times; the median is `setup_s`;
- train: one `training.train` call, as `pers train` makes it;
- checkpoint: `training.save_checkpoint` then `load_checkpoint`;
- then whole rounds of eval (`evalrank.evaluate` on the reloaded
  checkpoint), export (`probe.export_latents`) and probe
  (`probe.mean_probe_accuracy` and `permutation_null` on both style
  dimensions, with the CLI's default splits and trials), repeated until
  the run's seconds are spent and at least MIN_ROUNDS times; each round
  figure is work over time summed across the rounds after the first.

The checks compare outputs with computations made here, apart from the
program, or with properties the method must have; none compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import resource
import statistics
import tempfile
import time
from collections import Counter

import numpy as np

from pers import cli, dataio, evalrank, probe, simlearner, tensorkit, training

SETUP_REPS = 3
PROBE_SPLITS = cli.SCHEMA["probe_splits"][1]
PROBE_TRIALS = cli.SCHEMA["probe_trials"][1]
# The first round warms up: it runs on memory not yet touched and took up
# to twice as long as later rounds. Its outputs are checked, its time is
# not counted; the round figures are totals over the rounds after it.
MIN_ROUNDS = 3
SOLO_EXPORTS = 3  # learners exported alone to cross-check the batched export
ORACLE_WINDOWS = 64  # test windows ranked under the constant-logit oracle

# name -> (generator spec, CLI config overrides, panel). The export and
# the probes run on every learner when panel is None, else on the first
# `panel` learners of each of the four style cells, which keeps both
# classes of each probe at the probe's minimum of 20 or more while
# bounding the export's memory. The "toy" entries are the self-check sizes.
WORKLOADS = {
    "wide-bce": {
        "full": (
            {"learners": 160, "catalog": 5000, "d_c": 8, "code": "vectors", "steps": [300, 300]},
            {"loss_mode": "sampled_bce", "negatives_per_positive": 4, "epochs": 3, "batch_size": 64,
             "lr": 0.015, "dropout": 0.0},
            12,
        ),
        "toy": (
            {"learners": 48, "catalog": 600, "d_c": 8, "code": "vectors", "steps": [100, 100]},
            {"loss_mode": "sampled_bce", "negatives_per_positive": 4, "epochs": 4, "batch_size": 16,
             "lr": 0.01, "dropout": 0.0},
            10,
        ),
    },
    "raw-code-probe": {
        "full": (
            {"learners": 100, "catalog": 200, "d_c": 8, "code": "raw", "steps": [150, 450]},
            {"code_source": "hashed", "loss_mode": "full_softmax", "epochs": 3, "batch_size": 64,
             "lr": 0.01, "dropout": 0.0},
            None,
        ),
        "toy": (
            {"learners": 48, "catalog": 100, "d_c": 8, "code": "raw", "steps": [50, 150]},
            {"code_source": "hashed", "loss_mode": "full_softmax", "epochs": 4, "batch_size": 16,
             "lr": 0.01, "dropout": 0.0},
            None,
        ),
    },
}

# Model widths shared by every workload: the CLI example (d=32, 8-wide
# code vectors, windows of 50).
MODEL = {"d_p": 32, "d_c": 8, "d_k": 32, "max_len": 50}


class Checks:
    """Collects failed output checks; a run with any failure exits nonzero."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def require(self, ok: bool, what: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_config(overrides: dict, paths: dict, seed: int) -> dict:
    """The resolved CLI config: schema defaults, then the workload's values."""
    config = {key: default for key, (_, default, _) in cli.SCHEMA.items()}
    config.update(MODEL)
    config.update(overrides)
    config.update({"data": paths["data"], "vectors": paths.get("vectors"), "seed": seed})
    return config


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _targets(windows) -> int:
    return sum(len(w.target_steps) for w in windows)


def reference_rank(scores: np.ndarray, target: int) -> int:
    """1-based rank among classes >= 2; ties go to the smaller index."""
    real = scores[2:]
    s_t = scores[target]
    return 1 + int((real > s_t).sum()) + int((scores[2:target] == s_t).sum())


def closed_form_metrics(ranks: list[int], k: int = 10) -> tuple[float, float, float]:
    r = np.asarray(ranks, dtype=np.float64)
    hit = r <= k
    hr = float(hit.mean())
    mrr = float(np.where(hit, 1.0 / r, 0.0).mean())
    ndcg = float(np.where(hit, 1.0 / np.log2(r + 1.0), 0.0).mean())
    return hr, mrr, ndcg


def check_setup(checks: Checks, tally: dict, interactions, issues: int, train_w, test_w, config) -> None:
    checks.require(len(interactions) == tally["records"],
                   f"parsed {len(interactions)} records, generator wrote {tally['records']}")
    checks.require(issues == 0, f"{issues} parse issues on generated input")
    s = dataio.stats(interactions)
    expected = 1.0 - tally["records"] / (tally["learners"] * tally["exercises"])
    checks.require(abs(s.sparsity - expected) <= 1e-12,
                   f"stats sparsity {s.sparsity!r} != 1 - I/(U*E) = {expected!r}")
    max_len, ratio = config["max_len"], config["split_ratio"]
    want_total = 0
    want_test: dict[str, int] = {}
    for lid, n in tally["lengths"].items():
        n_targets = n - math.ceil(n / max_len)  # every window's last step has no target
        want_total += n_targets
        want_test[lid] = min(n_targets, math.ceil(ratio * n)) if n >= 3 else 0
    got_total = _targets(train_w) + _targets(test_w)
    checks.require(got_total == want_total, f"train+test targets {got_total} != sum(len-1) = {want_total}")
    got_test: dict[str, int] = {}
    for w in test_w:
        got_test[w.window.learner_id] = got_test.get(w.window.learner_id, 0) + len(w.target_steps)
    bad = [lid for lid, n in want_test.items() if got_test.get(lid, 0) != n]
    checks.require(not bad, f"test targets differ from min(#targets, ceil(0.2n)) for {len(bad)} learners")


def check_training(checks: Checks, cp, config, n_classes: int) -> None:
    log = cp.loss_log
    checks.require(len(log) == config["epochs"], f"{len(log)} epoch losses for {config['epochs']} epochs")
    checks.require(all(math.isfinite(v) for v in log), f"non-finite epoch loss in {log}")
    if config["loss_mode"] == "full_softmax":
        bound = math.log(n_classes)
    else:
        bound = (config["negatives_per_positive"] + 1) * math.log(2.0)
    checks.require(log[-1] < log[0], f"last epoch loss {log[-1]:.6f} not below first {log[0]:.6f}")
    checks.require(log[-1] < bound, f"last epoch loss {log[-1]:.6f} not below uninformed bound {bound:.6f}")


def check_eval(checks: Checks, metrics, results, n_test: int, n_classes: int) -> None:
    ranks = [r.rank for r in results]
    checks.require(metrics.events == n_test == len(ranks), f"{metrics.events} ranked events for {n_test} targets")
    checks.require(all(1 <= r <= n_classes for r in ranks), "a rank lies outside [1, N]")
    chance = 10.0 / n_classes
    checks.require(metrics.hr > chance, f"HR@10 {metrics.hr:.4f} not above chance {chance:.4f}")
    checks.require(0.0 <= metrics.mrr <= metrics.ndcg <= metrics.hr <= 1.0,
                   f"not 0 <= MRR <= NDCG <= HR <= 1: {metrics}")
    hr, mrr, ndcg = closed_form_metrics(ranks)
    checks.require(
        abs(hr - metrics.hr) <= 1e-12 and abs(mrr - metrics.mrr) <= 1e-12 and abs(ndcg - metrics.ndcg) <= 1e-12,
        f"metrics {metrics} differ from closed form ({hr}, {mrr}, {ndcg})",
    )


def check_oracle(checks: Checks, cp, test_w, vocab, source, seed: int) -> None:
    """With W_12 zeroed every logit row equals b_12, so each rank is known."""
    m = cp.model.hyper.vocab_size
    rng = np.random.default_rng([seed, 404])
    bias = rng.integers(0, max(2, m // 8), size=m).astype(np.float64)  # many ties
    tensors = dict(cp.model.tensors)
    tensors["W_12"] = tensorkit.parameter(np.zeros_like(tensors["W_12"].data), "W_12")
    tensors["b_12"] = tensorkit.parameter(bias, "b_12")
    oracle = dataclasses.replace(cp, model=cp.model.replace_tensors(tensors))
    windows = test_w[:ORACLE_WINDOWS]
    _, results = evalrank.evaluate(oracle, windows, vocab, source)
    want = Counter(
        (w.window.learner_id, reference_rank(bias, vocab.encode(w.window.events[t + 1].exercise_id)))
        for w in windows
        for t in w.target_steps
    )
    got = Counter((r.learner_id, r.rank) for r in results)
    checks.require(len(results) == sum(want.values()), f"oracle ranked {len(results)} of {sum(want.values())} targets")
    wrong = sum((got - want).values())
    checks.require(wrong == 0, f"oracle ranks differ from the reference ranking at {wrong} events")


def check_export(checks: Checks, rows, sequences, cp, source, learners: list[str]) -> None:
    checks.require([r.learner_id for r in rows] == learners, "export rows are not one per learner in order")
    finite = all(np.isfinite(v).all() for r in rows for v in (r.pa, r.ps, r.us))
    checks.require(finite, "non-finite exported latent")
    by_id = {r.learner_id: r for r in rows}
    step = max(1, len(learners) // SOLO_EXPORTS)
    for lid in learners[::step][:SOLO_EXPORTS]:
        solo = probe.export_latents(cp, [s for s in sequences if s.learner_id == lid], source)[0]
        ref = by_id[lid]
        for a, b in ((solo.pa, ref.pa), (solo.ps, ref.ps), (solo.us, ref.us)):
            err = np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)
            checks.require(err <= 1e-9, f"learner {lid} exported alone differs by {err:.3e} relative")


def run_probes(rows, labels, seed: int) -> dict:
    report = {}
    for dimension in probe.DIMENSIONS:
        feats, labs = probe.dimension_features(rows, labels, dimension)
        acc = probe.mean_probe_accuracy(feats, labs, seed=seed, splits=PROBE_SPLITS)
        null = probe.permutation_null(feats, labs, trials=PROBE_TRIALS, seed=seed, splits=PROBE_SPLITS)
        report[dimension] = (acc, null)
    return report


def check_probes(checks: Checks, report: dict) -> None:
    for dimension, (acc, null) in report.items():
        checks.require(0.0 <= acc <= 1.0 and all(0.0 <= v <= 1.0 for v in null),
                       f"{dimension} probe accuracy outside [0, 1]")
        mean_null = float(np.mean(null))
        checks.require(abs(mean_null - 0.5) <= 0.15, f"{dimension} permuted-label mean {mean_null:.3f} not within 0.15 of 0.5")
    acc, null = report["understanding"]
    checks.require(acc > max(null), f"understanding accuracy {acc:.3f} does not beat permuted max {max(null):.3f}")


def run(name: str, size: str, paths: dict, tally: dict, seed: int, seconds: float, tracer=None) -> dict:
    """Run one workload; returns the measured figures and the checks."""
    _, overrides, panel = WORKLOADS[name][size]
    config = make_config(overrides, paths, seed)
    checks = Checks()
    phase = tracer.span if tracer is not None else (lambda _name: contextlib.nullcontext())
    mem: dict[str, float] = {}
    ops = 0

    # --- setup -----------------------------------------------------------
    setup_times = []
    loaded = None
    for _ in range(SETUP_REPS):
        loaded = None  # let the previous set-up's objects go before the next
        err = io.StringIO()
        with phase("setup"), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            dataset = cli.load_dataset(config)
            source = cli.load_code_source(config)
            setup_times.append(time.perf_counter() - start)
        loaded = (dataset, source, err.getvalue().count("warning: line"))
        ops += 1
    (interactions, sequences, vocab, train_w, test_w), source, issues = loaded
    labels = simlearner.read_labels(paths["labels"])
    check_setup(checks, tally, interactions, issues, train_w, test_w, config)
    n_classes = vocab.n_exercises
    mem["after_setup"] = peak_rss_mb()

    # --- train and checkpoint --------------------------------------------
    measure_start = time.perf_counter()
    hp = cli.make_hyper(config, n_classes)
    with phase("train"):
        cp, train_s = _timed(training.train, train_w, vocab, hp, cli.make_train_config(config), source)
    ops += 1
    check_training(checks, cp, config, n_classes)
    mem["after_train"] = peak_rss_mb()
    with tempfile.TemporaryDirectory(dir=paths["workdir"]) as tmp:
        path = os.path.join(tmp, "model.pers")
        with phase("checkpoint"):
            training.save_checkpoint(path, cp)
            checkpoint_mb = os.path.getsize(path) / 2**20
            loaded_cp = training.load_checkpoint(path)
    ops += 1

    # --- rounds of eval, export and probe ----------------------------------
    panel_ids = list(dict.fromkeys(s.learner_id for s in sequences))
    if panel is not None:
        kept, taken = [], Counter()
        for lid in panel_ids:
            taken[labels[lid]] += 1
            if taken[labels[lid]] <= panel:
                kept.append(lid)
        panel_ids = kept
    panel_set = set(panel_ids)
    panel_seqs = [s for s in sequences if s.learner_id in panel_set]
    export_events = sum(len(s) for s in panel_seqs)
    n_test = _targets(test_w)
    fits = 2 * PROBE_SPLITS * (1 + PROBE_TRIALS)
    busy = {"eval": 0.0, "export": 0.0, "probe": 0.0}  # seconds over the warm rounds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - measure_start < seconds:
        with phase("eval"):
            (metrics, results), dt = _timed(evalrank.evaluate, loaded_cp, test_w, vocab, source,
                                            config["eval_batch_size"])
        mem.setdefault("after_eval", peak_rss_mb())
        with phase("export"):
            rows, dt_export = _timed(probe.export_latents, loaded_cp, panel_seqs, source)
        with phase("probe"):
            report, dt_probe = _timed(run_probes, rows, labels, seed)
        ops += 3
        if rounds > 0:
            busy["eval"] += dt
            busy["export"] += dt_export
            busy["probe"] += dt_probe
        else:
            check_eval(checks, metrics, results, n_test, n_classes)
            check_export(checks, rows, sequences, loaded_cp, source, panel_ids)
            check_probes(checks, report)
            mem["after_probe"] = peak_rss_mb()
        rounds += 1

    # --- checks that need more program calls, outside every timed phase --
    in_memory, in_memory_results = evalrank.evaluate(cp, test_w, vocab, source, config["eval_batch_size"])
    checks.require(in_memory == metrics and [r.rank for r in in_memory_results] == [r.rank for r in results],
                   "reloaded checkpoint evaluates differently from the in-memory one")
    check_oracle(checks, loaded_cp, test_w, vocab, source, seed)

    return {
        "checks": checks,
        "attempted": ops,
        "rounds": rounds,
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "train_events_per_s": _targets(train_w) * config["epochs"] / train_s,
            "eval_events_per_s": n_test * (rounds - 1) / busy["eval"],
            "export_events_per_s": export_events * (rounds - 1) / busy["export"],
            "probe_fits_per_s": fits * (rounds - 1) / busy["probe"],
            "peak_rss_mb": mem["after_probe"],
        },
        "mem": mem,
        "checkpoint_mb": checkpoint_mb,
        "metrics": metrics,
        "report": report,
    }
