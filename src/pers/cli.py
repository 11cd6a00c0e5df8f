"""Command-line surface: preprocess | simulate | train | eval | ablate |
probe | stats | gradcheck.

Every command reads a flat JSON config (unknown keys rejected), lets
command-line flags override config values, writes its outputs atomically
(temp file + rename) and drops a run manifest echoing the resolved
configuration, seed, package version and wall time, so a manifest alone
reproduces the run.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
import time

import numpy as np

from . import __version__, codefeat, dataio, evalrank, perscell, probe, simlearner, training
from .codefeat import CodeFeatureError, HashedTokenSource, read_vectors
from .dataio import DataError
from .encoder import HyperParams
from .evalrank import VocabularyMismatch
from .training import CheckpointError, DivergenceError, TrainConfig


class ConfigError(ValueError):
    """Bad or missing configuration."""


# key -> (type, default, help); None default means command-required.
SCHEMA: dict[str, tuple[type, object, str]] = {
    "data": (str, None, "input JSONL submission log"),
    "vectors": (str, None, "precomputed code-vectors file (PERSVEC1)"),
    "labels": (str, None, "learner style labels TSV"),
    "checkpoint": (str, None, "model checkpoint path"),
    "out_dir": (str, ".", "directory for outputs and the run manifest"),
    "dataset_name": (str, "dataset", "name used in the stats table"),
    "seed": (int, 0, "master RNG seed"),
    "strict": (bool, False, "abort on the first malformed input line"),
    # model widths
    "d_p": (int, 128, "exercise embedding width"),
    "d_c": (int, 128, "code embedding width"),
    "d_k": (int, 128, "latent width"),
    "d_pos": (int, 0, "position encoding width (0 means d_p)"),
    "d_ct": (int, 16, "execution-time embedding width"),
    "d_cm": (int, 16, "execution-memory embedding width"),
    "d_cs": (int, 16, "status embedding width"),
    "max_len": (int, 50, "window length"),
    # training
    "lr": (float, 0.01, "learning rate (reference grid: 0.1, 0.01, 0.001)"),
    "layers": (int, 1, "MLP depth for the embedding/prediction projections (grid: 1, 2, 3)"),
    "dropout": (float, 0.1, "dropout on enhanced embeddings (grid: 0.1, 0.3, 0.5)"),
    "batch_size": (int, 2048, "training batch size"),
    "eval_batch_size": (int, 4096, "evaluation batch size"),
    "epochs": (int, 10, "training epochs"),
    "loss_mode": (str, "full_softmax", "full_softmax or sampled_bce"),
    "negatives_per_positive": (int, 4, "negative samples per target (sampled_bce)"),
    "variant": (str, "PERS", "model variant: " + ", ".join(perscell.VARIANTS)),
    "grad_clip": (float, 5.0, "global gradient-norm clip"),
    "split_ratio": (float, 0.2, "chronological test fraction per learner"),
    # code feature source
    "code_source": (str, "precomputed", "precomputed | hashed | none"),
    "hash_buckets": (int, 2048, "bucket count for the hashed token source"),
    # simulator
    "n_learners": (int, 200, "simulated population size"),
    "steps": (int, 500, "submissions per simulated learner"),
    "catalog_size": (int, 600, "simulated exercise catalog size"),
    "mix_active_sequential": (float, 0.25, "population share"),
    "mix_active_global": (float, 0.25, "population share"),
    "mix_reflective_sequential": (float, 0.25, "population share"),
    "mix_reflective_global": (float, 0.25, "population share"),
    # probe
    "probe_splits": (int, 5, "stratified splits averaged per probe accuracy"),
    "probe_trials": (int, 20, "label permutations for the leakage null"),
    "per_step": (bool, False, "also export per-step latents"),
    # gradcheck
    "gc_dk": (int, 8, "gradcheck latent width (--dk is an alias)"),
    "gc_exercises": (int, 10, "gradcheck catalog size"),
    "gc_steps": (int, 3, "gradcheck sequence length"),
    "tol": (float, 1e-4, "gradcheck pass threshold"),
}

def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in raw.items():
        want = SCHEMA[key][0]
        ok = isinstance(value, bool) if want is bool else (
            isinstance(value, (int, float)) if want is float else isinstance(value, want)
        )
        if want is int and isinstance(value, bool):
            ok = False
        if not ok:
            raise ConfigError(f"config key '{key}' must be {want.__name__}")
    return dict(raw)


class Config(dict):
    """The resolved configuration; `given` names the keys that the config
    file or a flag set, as opposed to schema defaults."""

    given: frozenset[str] = frozenset()


def resolve_config(args: argparse.Namespace) -> Config:
    config = Config({key: default for key, (_, default, _) in SCHEMA.items()})
    from_file = load_config(args.config)
    config.update(from_file)
    flags = {key: getattr(args, key) for key in SCHEMA if getattr(args, key, None) is not None}
    config.update(flags)
    config.given = frozenset(from_file) | frozenset(flags)
    for key in COMMANDS[args.command][1]:
        if config.get(key) is None:
            raise ConfigError(f"command '{args.command}' needs config key '{key}'")
    return config


def atomic_call(path, writer) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    writer(tmp)
    os.replace(tmp, path)


def atomic_write(path, text: str) -> None:
    atomic_call(path, lambda tmp: pathlib.Path(tmp).write_text(text, encoding="utf-8"))


def write_manifest(out_dir, command: str, config: dict, outputs: list[str], t0: float) -> None:
    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "seed": config["seed"],
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": outputs,
    }
    atomic_write(os.path.join(out_dir, f"{command}_manifest.json"), json.dumps(manifest, indent=2) + "\n")


def make_hyper(config: dict, n_exercises: int) -> HyperParams:
    widths = {key: config[key] for key in ("d_p", "d_c", "d_k", "d_ct", "d_cm", "d_cs", "max_len")}
    try:
        return HyperParams(d_pos=config["d_pos"] or None, n_exercises=n_exercises, **widths)
    except ValueError as exc:  # the message names the width
        raise ConfigError(str(exc)) from exc


def make_train_config(config: dict) -> TrainConfig:
    """Every TrainConfig field is the config key of the same name."""
    try:
        return TrainConfig(**{f.name: config[f.name] for f in dataclasses.fields(TrainConfig)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def hashed_source(buckets: int, dim: int) -> HashedTokenSource:
    """The hashed token source; a bucket count it refuses is a config error."""
    try:
        return HashedTokenSource(buckets, dim)
    except ValueError as exc:
        raise ConfigError(f"hash_buckets: {exc}") from exc


def load_code_source(config: Config, checkpoint: training.Checkpoint | None = None):
    """The configured code source. Given the checkpoint it will serve, the
    hashed source takes each width that the config does not set from the
    checkpoint, and a width that the config sets must match it."""
    kind = config["code_source"]
    if kind == "none":
        return None
    if kind == "hashed":
        if checkpoint is None or not perscell.uses_code(checkpoint.model.variant):
            return hashed_source(config["hash_buckets"], config["d_c"])
        model = checkpoint.model
        trained = {"hash_buckets": model.code_buckets or config["hash_buckets"], "d_c": model.hyper.d_c}
        buckets, dim = (config[key] if key in config.given else trained[key] for key in ("hash_buckets", "d_c"))
        source = hashed_source(buckets, dim)
        source.table_for(model.tensors)  # names both widths if they differ, or the vectors it was trained on
        return source
    if kind == "precomputed":
        if config.get("vectors") is None:
            raise ConfigError("code_source=precomputed needs config key 'vectors'")
        return read_vectors(config["vectors"])
    raise ConfigError(f"code_source must be precomputed, hashed or none, not {kind!r}")


def read_log(config: dict) -> list[dataio.Interaction]:
    """The log's records; each malformed line is one warning on stderr."""
    interactions, issues = dataio.parse_log(config["data"], strict=config["strict"])
    for issue in issues:
        print(f"warning: line {issue.line}: {issue.message}", file=sys.stderr)
    return interactions


def load_dataset(config: dict):
    interactions = read_log(config)
    if not interactions:
        raise DataError(f"no usable records in {config['data']}")
    try:
        sequences, vocab = dataio.build_sequences(interactions, config["max_len"])
    except ValueError as exc:  # the message names max_len
        raise ConfigError(str(exc)) from exc
    try:
        train_w, test_w = dataio.split(sequences, config["split_ratio"])
    except ValueError as exc:
        raise ConfigError(f"split_ratio: {exc}") from exc
    return interactions, sequences, vocab, train_w, test_w


def write_report(out_dir, stem: str, rows: list[evalrank.AblationRow]) -> list[str]:
    """Write the metric table as <stem>.tsv and <stem>.json and print the TSV."""
    table = evalrank.report_tsv(rows)
    paths = [os.path.join(out_dir, f"{stem}.tsv"), os.path.join(out_dir, f"{stem}.json")]
    atomic_write(paths[0], table)
    atomic_write(paths[1], evalrank.report_json(rows))
    print(table, end="")
    return paths


# --- commands ----------------------------------------------------------------


def cmd_preprocess(config: dict) -> list[str]:
    interactions, sequences, vocab, train_w, test_w = load_dataset(config)
    out_dir = config["out_dir"]
    normalized = os.path.join(out_dir, "normalized.jsonl")
    atomic_call(normalized, lambda tmp: dataio.write_log(tmp, interactions))
    vocab_path = os.path.join(out_dir, "vocab.tsv")
    atomic_write(
        vocab_path,
        "".join(f"{i + 2}\t{eid}\n" for i, eid in enumerate(vocab.ids())),
    )
    stats_path = os.path.join(out_dir, "stats.tsv")
    atomic_write(stats_path, dataio.format_stats(config["dataset_name"], dataio.stats(interactions)))
    n_train = sum(len(w.target_steps) for w in train_w)
    n_test = sum(len(w.target_steps) for w in test_w)
    print(
        f"{len(interactions)} events, {len(sequences)} windows, "
        f"{n_train} train targets, {n_test} test targets"
    )
    return [normalized, vocab_path, stats_path]


def cmd_simulate(config: dict) -> list[str]:
    catalog = simlearner.ExerciseCatalog.random(
        config["catalog_size"], np.random.default_rng([config["seed"], 99])
    )
    mix = {
        ("active", "sequential"): config["mix_active_sequential"],
        ("active", "global"): config["mix_active_global"],
        ("reflective", "sequential"): config["mix_reflective_sequential"],
        ("reflective", "global"): config["mix_reflective_global"],
    }
    population = simlearner.simulate_population(
        config["n_learners"], mix, catalog, config["steps"], config["seed"], config["d_c"]
    )
    out_dir = config["out_dir"]
    paths = [os.path.join(out_dir, name) for name in ("data.jsonl", "vectors.txt", "labels.tsv")]
    atomic_call(paths[0], lambda tmp: dataio.write_log(tmp, population.interactions))
    atomic_call(paths[1], lambda tmp: codefeat.write_vectors(tmp, population.vectors, population.d_c))
    atomic_call(paths[2], lambda tmp: simlearner.write_labels(tmp, population.labels))
    print(f"simulated {config['n_learners']} learners x {config['steps']} steps -> {paths[0]}")
    return paths


def cmd_stats(config: dict) -> list[str]:
    interactions = read_log(config)
    table = dataio.format_stats(config["dataset_name"], dataio.stats(interactions))
    path = os.path.join(config["out_dir"], "stats.tsv")
    atomic_write(path, table)
    print(table, end="")
    return [path]


def cmd_train(config: dict) -> list[str]:
    train_config = make_train_config(config)
    _, _, vocab, train_w, _ = load_dataset(config)
    source = load_code_source(config)
    hp = make_hyper(config, vocab.n_exercises)
    # A diverging run exits 3 on its non-finite loss, with no numpy warning before that line.
    with np.errstate(all="ignore"):
        cp = training.train(train_w, vocab, hp, train_config, source)
    out_dir = config["out_dir"]
    model_path = os.path.join(out_dir, "model.pers")
    atomic_call(model_path, lambda tmp: training.save_checkpoint(tmp, cp))
    log_path = os.path.join(out_dir, "train_log.tsv")
    atomic_write(
        log_path,
        "epoch\tmean_loss\n" + "".join(f"{i}\t{v:.9g}\n" for i, v in enumerate(cp.loss_log)),
    )
    print(
        f"trained {config['epochs']} epochs; final loss {cp.loss_log[-1]:.6f} "
        f"(best epoch {int(np.argmin(cp.loss_log))}) -> {model_path}"
    )
    return [model_path, log_path]


def cmd_eval(config: dict) -> list[str]:
    batch_size = make_train_config(config).eval_batch_size
    _, _, vocab, _, test_w = load_dataset(config)
    cp = training.load_checkpoint(config["checkpoint"])
    source = load_code_source(config, cp)
    metrics, _ = evalrank.evaluate(cp, test_w, vocab, source, batch_size)
    return write_report(config["out_dir"], "report", [evalrank.AblationRow(cp.model.variant, metrics)])


def cmd_ablate(config: dict) -> list[str]:
    train_config = make_train_config(config)
    _, _, vocab, train_w, test_w = load_dataset(config)
    source = load_code_source(config)
    hp = make_hyper(config, vocab.n_exercises)
    with np.errstate(all="ignore"):
        rows = evalrank.ablate(train_w, test_w, vocab, hp, train_config, source)
    return write_report(config["out_dir"], "ablation", rows)


def cmd_probe(config: dict) -> list[str]:
    for key in ("probe_splits", "probe_trials"):
        if config[key] < 1:
            raise ConfigError(f"{key} must be at least 1")
    interactions, sequences, vocab, _, _ = load_dataset(config)
    cp = training.load_checkpoint(config["checkpoint"])
    if vocab != cp.vocab:
        raise VocabularyMismatch("checkpoint vocabulary differs from the dataset's")
    source = load_code_source(config, cp)
    labels = simlearner.read_labels(config["labels"])
    rows = probe.export_latents(cp, sequences, source)
    out_dir = config["out_dir"]
    latents_path = os.path.join(out_dir, "latents.tsv")
    atomic_call(latents_path, lambda tmp: probe.write_latents(tmp, rows))
    outputs = [latents_path]

    report = {}
    for dimension in probe.DIMENSIONS:
        feats, labs = probe.dimension_features(rows, labels, dimension)
        acc = probe.mean_probe_accuracy(feats, labs, seed=config["seed"], splits=config["probe_splits"])
        null = probe.permutation_null(
            feats, labs, trials=config["probe_trials"], seed=config["seed"], splits=config["probe_splits"]
        )
        report[dimension] = {
            "accuracy": acc,
            "permuted_max": max(null),
            "permuted_mean": float(np.mean(null)),
        }
        print(f"{dimension}: accuracy={acc:.3f} permuted_max={max(null):.3f}")
    report_path = os.path.join(out_dir, "probe.json")
    atomic_write(report_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    outputs.append(report_path)

    if config["per_step"]:
        steps = probe.export_step_latents(cp, sequences, source)
        step_path = os.path.join(out_dir, "latents_steps.tsv")
        atomic_call(step_path, lambda tmp: probe.write_latents(tmp, steps, "step"))
        outputs.append(step_path)
    return outputs


def cmd_gradcheck(config: dict) -> list[str]:
    errors = training.run_gradcheck(
        d_k=config["gc_dk"],
        n_exercises=config["gc_exercises"],
        steps=config["gc_steps"],
        seed=config["seed"],
    )
    worst_name = max(errors, key=errors.get)
    worst = errors[worst_name]
    for name in sorted(errors):
        print(f"{name}\t{errors[name]:.3e}")
    print(f"max relative error {worst:.3e} ({worst_name}); tolerance {config['tol']:.0e}")
    if worst >= config["tol"]:
        raise DivergenceError(f"gradient check failed: {worst_name} at {worst:.3e}")
    return []


# command -> (handler, the config keys it cannot run without)
COMMANDS = {
    "preprocess": (cmd_preprocess, ("data",)),
    "simulate": (cmd_simulate, ()),
    "train": (cmd_train, ("data",)),
    "eval": (cmd_eval, ("data", "checkpoint")),
    "ablate": (cmd_ablate, ("data",)),
    "probe": (cmd_probe, ("data", "checkpoint", "labels")),
    "stats": (cmd_stats, ("data",)),
    "gradcheck": (cmd_gradcheck, ()),
}


class Parser(argparse.ArgumentParser):
    """argparse with its usage errors exiting 1, the usage-error code,
    rather than 2, which this program keeps for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(prog="pers", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pers {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command, help=f"run the {command} stage")
        p.add_argument("--config", help="JSON config file (flat keys; flags win)")
        for key, (typ, _, help_text) in SCHEMA.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, dest=key, action="store_const", const=True, default=None, help=help_text)
            else:
                p.add_argument(flag, dest=key, type=typ, default=None, help=help_text)
        if command == "gradcheck":
            p.add_argument("--dk", dest="gc_dk", type=int, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        config = resolve_config(args)
        os.makedirs(config["out_dir"], exist_ok=True)
        outputs = COMMANDS[args.command][0](config)
        write_manifest(config["out_dir"], args.command, config, outputs, t0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, CodeFeatureError, CheckpointError, VocabularyMismatch, OSError, ValueError) as exc:
        # data-dependent failures: missing, unreadable or bad files,
        # mismatched artifacts, populations too small for the analysis
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an allocation sized by the inputs or the config did not fit
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
