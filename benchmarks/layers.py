"""Per-layer metrics of the traced run.

`install` wraps the program's public functions where the phases call
them; `per_layer` turns the recorded spans and counters into the
`per_layer` metrics of BENCHMARK.json. Every figure is for one pass of
each phase (one set-up, one training call, one eval, one export, one
probe round): a phase repeated in a run contributes its mean.
"""

from __future__ import annotations

import numpy as np

from pers import cli, codefeat, dataio, evalrank, perscell, probe, tensorkit, training

PHASES = ("setup", "train", "checkpoint", "eval", "export", "probe")
_MB = 2.0**20


def _batch_bytes(tracer, _args, _kwargs, batch) -> None:
    arrays = [a for a in vars(batch).values() if isinstance(a, np.ndarray)]
    tracer.peak("assemble_bytes", float(sum(a.nbytes for a in arrays)))


def _logits_computed(tracer, _args, _kwargs, run) -> None:
    tracer.count("logits_computed", float(sum(step.data.size for step in run.logits)))


def _tape_nodes(tracer, _args, _kwargs, loss) -> None:
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    tracer.count("tape_nodes", float(len(seen)))


def _loss_reads(tracer, args, kwargs, _loss) -> None:
    batch, vocab_size = args[1], args[2]
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "full_softmax")
    negatives = args[4] if len(args) > 4 else kwargs.get("negatives")
    per_target = vocab_size - 2 if mode == "full_softmax" else 1 + negatives.shape[2]
    tracer.count("logits_read", float((batch.loss_mask > 0).sum()) * per_target)


def _rank_reads(tracer, args, _kwargs, _rank) -> None:
    tracer.count("logits_read", float(len(args[0]) - 2))


def _records(tracer, _args, _kwargs, result) -> None:
    tracer.count("records", float(len(result[0])))


def install(tracer) -> None:
    w = tracer.wrap
    w(dataio, "parse_log", "dataio.parse", hook=_records)
    w(dataio, "build_sequences", "dataio.window")
    w(dataio, "split", "dataio.window")
    w(cli, "read_vectors", "codefeat.read_vectors")
    w(codefeat.HashedTokenSource, "weights", "codefeat.hash", kind="aggregate")
    for module in (training, evalrank, probe):
        w(module, "assemble_batch", "perscell.assemble", hook=_batch_bytes)
    w(training, "run_window", "perscell.forward", hook=_logits_computed)
    w(evalrank, "run_window", "evalrank.forward", hook=_logits_computed)
    w(probe, "run_window", "probe.export_forward", hook=_logits_computed)
    w(perscell, "enhance_exercise", "encoder.enhance", kind="count")
    w(perscell, "enhance_code", "encoder.enhance", kind="count")
    w(training, "sequence_loss", "training.loss", hook=lambda *a: (_tape_nodes(*a), _loss_reads(*a)))
    w(training, "_batch_negatives", "training.negatives")
    w(tensorkit, "backward", "tensorkit.backward")
    w(tensorkit, "adam_step", "tensorkit.adam")
    w(training, "clip_gradients", "training.clip")
    w(training, "save_checkpoint", "training.save")
    w(training, "load_checkpoint", "training.load")
    w(evalrank, "rank_event", "evalrank.rank", kind="aggregate", hook=_rank_reads)
    w(probe, "fit_probe", "probe.fit", kind="aggregate")


def per_layer(tracer, result: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every per-layer metric."""
    runs = tracer.phase_runs()
    self_s = tracer.self_times()

    def per_pass(table, name: str) -> float:
        return sum(table.get((phase, name), 0.0) / runs[phase] for phase in PHASES if runs.get(phase))

    def seconds(name: str) -> float:
        return per_pass(self_s, name)

    def count(name: str) -> float:
        return per_pass(tracer.counters, name)

    batches = tracer.calls("perscell.forward").get("train", 0) or 1
    computed = count("logits_computed")
    read = count("logits_read")
    mem = result["mem"]
    return {
        "dataio.parse_s": (seconds("dataio.parse"), "s"),
        "dataio.records": (count("records"), "count"),
        "dataio.window_s": (seconds("dataio.window"), "s"),
        "codefeat.read_vectors_s": (seconds("codefeat.read_vectors"), "s"),
        "codefeat.hash_s": (seconds("codefeat.hash"), "s"),
        "codefeat.hash_calls": (count("codefeat.hash#calls"), "count"),
        "perscell.assemble_s": (seconds("perscell.assemble"), "s"),
        "perscell.assemble_mb": (
            max((v for (_, n), v in tracer.counters.items() if n == "assemble_bytes"), default=0.0) / _MB,
            "MB",
        ),
        "perscell.forward_s": (seconds("perscell.forward"), "s"),
        "perscell.tape_nodes_per_batch": (tracer.counters.get(("train", "tape_nodes"), 0.0) / batches, "count"),
        "encoder.enhance_calls_per_batch": (
            tracer.counters.get(("train", "encoder.enhance#calls"), 0.0) / batches,
            "count",
        ),
        "perscell.logits_computed": (computed, "count"),
        "perscell.logits_read": (read, "count"),
        "perscell.logit_use": (read / computed if computed else 0.0, "ratio"),
        "training.loss_s": (seconds("training.loss"), "s"),
        "training.negatives_s": (seconds("training.negatives"), "s"),
        "tensorkit.backward_s": (seconds("tensorkit.backward"), "s"),
        "tensorkit.adam_s": (seconds("tensorkit.adam"), "s"),
        "training.clip_s": (seconds("training.clip"), "s"),
        "training.save_s": (seconds("training.save"), "s"),
        "training.load_s": (seconds("training.load"), "s"),
        "training.checkpoint_mb": (result["checkpoint_mb"], "MB"),
        "evalrank.forward_s": (seconds("evalrank.forward"), "s"),
        "evalrank.rank_s": (seconds("evalrank.rank"), "s"),
        "evalrank.rank_calls": (count("evalrank.rank#calls"), "count"),
        "probe.export_forward_s": (seconds("probe.export_forward"), "s"),
        "probe.fit_s": (seconds("probe.fit"), "s"),
        "probe.fit_calls": (count("probe.fit#calls"), "count"),
        "mem.after_setup_mb": (mem["after_setup"], "MB"),
        "mem.after_train_mb": (mem["after_train"], "MB"),
        "mem.after_eval_mb": (mem["after_eval"], "MB"),
        "mem.after_probe_mb": (mem["after_probe"], "MB"),
    }
