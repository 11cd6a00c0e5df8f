from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pers import cli, codefeat, tensorkit as tk, training

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run(argv):
    return cli.main(argv)


def base_config(tmp_path, **over):
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "seed": 5,
        "d_p": 8,
        "d_c": 8,
        "d_k": 8,
        "d_ct": 3,
        "d_cm": 3,
        "d_cs": 3,
        "max_len": 20,
        "epochs": 2,
        "batch_size": 16,
        "eval_batch_size": 64,
        "dropout": 0.0,
        "n_learners": 8,
        "steps": 30,
        "catalog_size": 12,
    }
    cfg.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path), cfg


def simulate(tmp_path):
    config_path, cfg = base_config(tmp_path)
    assert run(["simulate", "--config", config_path]) == 0
    out = cfg["out_dir"]
    return config_path, cfg, {
        "data": os.path.join(out, "data.jsonl"),
        "vectors": os.path.join(out, "vectors.txt"),
        "labels": os.path.join(out, "labels.tsv"),
    }


def test_missing_required_key_exits_1_and_names_it(tmp_path, capsys):
    config_path, _ = base_config(tmp_path)
    assert run(["train", "--config", config_path]) == 1
    assert "'data'" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, fragment", [
    ("stats", json.dumps({"lern_rate": 0.1}).encode(), "lern_rate"),
    ("train", json.dumps({"epochs": "ten"}).encode(), "epochs"),
    ("stats", b'{"dataset_name": "caf\xb6"}', "config {path} is not UTF-8 text"),
], ids=["unknown-key", "wrong-type", "not-utf8"])
def test_bad_config_file_exits_1_and_names_the_fault(tmp_path, capsys, command, text, fragment):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert run([command, "--config", str(path)]) == 1
    assert_one_line_error(capsys, fragment.format(path=path))


@pytest.mark.parametrize("argv, code, fragment", [
    (["train", "--bogus"], 1, "error: unrecognized arguments: --bogus"),
    (["train", "--epochs", "x"], 1, "error: argument --epochs: invalid int value: 'x'"),
    ([], 1, "error: the following arguments are required: command"),
    (["train", "--help"], 0, ""),
    (["--version"], 0, ""),
], ids=["unknown-flag", "bad-int", "no-command", "help", "version"])
def test_usage_errors_exit_1_with_argparses_message(argv, code, fragment):
    """Usage errors exit 1, as the documented codes say; 2 means a data error."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pers.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == code, proc.stderr
    assert fragment in proc.stderr and (code == 1) == bool(proc.stderr), proc.stderr


def test_missing_data_file_exits_2(tmp_path):
    config_path, _ = base_config(tmp_path, data=str(tmp_path / "nope.jsonl"))
    assert run(["stats", "--config", config_path]) == 2


def test_simulate_then_train_then_eval(tmp_path, capsys):
    config_path, cfg, paths = simulate(tmp_path)
    for p in paths.values():
        assert os.path.exists(p)

    argv = ["train", "--config", config_path, "--data", paths["data"], "--vectors", paths["vectors"]]
    assert run(argv) == 0
    model = os.path.join(cfg["out_dir"], "model.pers")
    assert os.path.exists(model)
    assert os.path.exists(os.path.join(cfg["out_dir"], "train_log.tsv"))

    argv = [
        "eval", "--config", config_path, "--data", paths["data"],
        "--vectors", paths["vectors"], "--checkpoint", model,
    ]
    assert run(argv) == 0
    report = os.path.join(cfg["out_dir"], "report.tsv")
    assert os.path.exists(report)
    lines = open(report).read().strip().split("\n")
    assert lines[0].startswith("variant\t")
    assert lines[1].split("\t")[0] == "PERS"
    payload = json.loads(open(os.path.join(cfg["out_dir"], "report.json")).read())
    assert 0.0 <= payload["rows"][0]["hr"] <= 1.0

    manifest = json.loads(open(os.path.join(cfg["out_dir"], "eval_manifest.json")).read())
    assert manifest["command"] == "eval"
    assert manifest["seed"] == 5
    assert manifest["config"]["epochs"] == 2
    assert report in manifest["outputs"]


def test_train_outputs_are_deterministic(tmp_path):
    config_path, cfg, paths = simulate(tmp_path)
    blobs = []
    for tag in ("r1", "r2"):
        out = str(tmp_path / tag)
        argv = [
            "train", "--config", config_path, "--data", paths["data"],
            "--vectors", paths["vectors"], "--out-dir", out,
        ]
        assert run(argv) == 0
        blobs.append(open(os.path.join(out, "model.pers"), "rb").read())
    assert blobs[0] == blobs[1]


def test_manifest_records_numpy_blas_and_thread_settings(tmp_path, monkeypatch):
    # Bitwise results hold for one numpy, BLAS and BLAS thread count: a
    # fresh manifest names all three, and an unset variable as null.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    config_path, cfg = base_config(tmp_path)
    assert run(["simulate", "--config", config_path]) == 0
    manifest = json.loads(open(os.path.join(cfg["out_dir"], "simulate_manifest.json")).read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert manifest["numeric"] == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"],
                 "openblas configuration": blas.get("openblas configuration")},
        "threads": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None},
    }


def test_flag_overrides_config(tmp_path):
    config_path, cfg, paths = simulate(tmp_path)
    out = str(tmp_path / "flagged")
    argv = [
        "train", "--config", config_path, "--data", paths["data"],
        "--vectors", paths["vectors"], "--out-dir", out, "--epochs", "1",
    ]
    assert run(argv) == 0
    manifest = json.loads(open(os.path.join(out, "train_manifest.json")).read())
    assert manifest["config"]["epochs"] == 1
    log = open(os.path.join(out, "train_log.tsv")).read().strip().split("\n")
    assert len(log) == 2  # header + one epoch


def test_divergent_training_exits_3(tmp_path, capsys):
    config_path, cfg, paths = simulate(tmp_path)
    argv = [
        "train", "--config", config_path, "--data", paths["data"],
        "--vectors", paths["vectors"], "--lr", "1e150",
    ]
    assert run(argv) == 3
    assert "non-finite loss" in capsys.readouterr().err
    assert_fresh_process_exits_with_one_line(argv, 3, "non-finite loss")


def test_a_log_line_that_is_not_utf8_is_a_warning_or_under_strict_an_error(tmp_path, capsys):
    _, _, paths = simulate(tmp_path)
    lines = open(paths["data"], "rb").read().split(b"\n")
    lines[3] = lines[3].replace(b'"p', b'"\xb6p', 1)
    data = tmp_path / "data.jsonl"
    data.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run(["stats", "--data", str(data), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == "warning: line 4: not UTF-8 text\n"
    assert run(["stats", "--data", str(data), "--out-dir", str(tmp_path / "out"), "--strict"]) == 2
    assert_one_line_error(capsys, "line 4: not UTF-8 text")


def test_stats_command_prints_table(tmp_path, capsys):
    _, cfg, paths = simulate(tmp_path)
    config_path, _ = base_config(tmp_path, data=paths["data"], dataset_name="sim")
    capsys.readouterr()
    assert run(["stats", "--config", config_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Dataset\t#Learners")
    assert "\nsim\t8\t240\t" in out


def test_preprocess_writes_normalized_and_vocab(tmp_path):
    config_path, cfg, paths = simulate(tmp_path)
    argv = ["preprocess", "--config", config_path, "--data", paths["data"]]
    assert run(argv) == 0
    out = cfg["out_dir"]
    assert os.path.exists(os.path.join(out, "normalized.jsonl"))
    vocab_lines = open(os.path.join(out, "vocab.tsv")).read().strip().split("\n")
    assert vocab_lines[0].split("\t")[0] == "2"


def test_gradcheck_passes_and_prints_error(tmp_path, capsys):
    assert run(["gradcheck", "--dk", "4", "--gc-exercises", "6", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "W_12" in out


def test_probe_command_reports_accuracies(tmp_path, capsys):
    config_path, cfg = base_config(tmp_path, n_learners=90, steps=25, epochs=1)
    assert run(["simulate", "--config", config_path]) == 0
    out = cfg["out_dir"]
    data, vectors, labels = (
        os.path.join(out, "data.jsonl"),
        os.path.join(out, "vectors.txt"),
        os.path.join(out, "labels.tsv"),
    )
    assert run(["train", "--config", config_path, "--data", data, "--vectors", vectors]) == 0
    model = os.path.join(out, "model.pers")
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write("\n")  # a blank line at the end is skipped
    argv = [
        "probe", "--config", config_path, "--data", data, "--vectors", vectors,
        "--checkpoint", model, "--labels", labels, "--probe-trials", "2", "--probe-splits", "2",
        "--per-step",
    ]
    assert run(argv) == 0
    report = json.loads(open(os.path.join(out, "probe.json")).read())
    assert set(report) == {"processing", "understanding"}
    for entry in report.values():
        assert 0.0 <= entry["accuracy"] <= 1.0
        assert 0.0 <= entry["permuted_max"] <= 1.0
    assert os.path.exists(os.path.join(out, "latents.tsv"))
    steps = open(os.path.join(out, "latents_steps.tsv")).read().strip().split("\n")
    assert len(steps) == 1 + 90 * 25  # header + one row per (learner, step)
    printed = capsys.readouterr().out
    assert "processing: accuracy=" in printed


def test_probe_command_too_small_population_is_data_error(tmp_path, capsys):
    config_path, cfg, paths = simulate(tmp_path)
    argv = ["train", "--config", config_path, "--data", paths["data"], "--vectors", paths["vectors"]]
    assert run(argv) == 0
    model = os.path.join(cfg["out_dir"], "model.pers")
    argv = [
        "probe", "--config", config_path, "--data", paths["data"], "--vectors", paths["vectors"],
        "--checkpoint", model, "--labels", paths["labels"], "--probe-trials", "1",
    ]
    assert run(argv) == 2
    assert "need >=" in capsys.readouterr().err


def test_ablate_command_emits_all_variants(tmp_path):
    config_path, cfg, paths = simulate(tmp_path)
    argv = [
        "ablate", "--config", config_path, "--data", paths["data"],
        "--vectors", paths["vectors"], "--epochs", "1",
    ]
    assert run(argv) == 0
    lines = open(os.path.join(cfg["out_dir"], "ablation.tsv")).read().strip().split("\n")
    assert len(lines) == 8
    assert [l.split("\t")[0] for l in lines[1:]] == list(cli.perscell.VARIANTS)


def test_sampled_bce_train_eval_is_deterministic_and_resumable(tmp_path):
    config_path, _, paths = simulate(tmp_path)
    common = [
        "--config", config_path, "--data", paths["data"], "--vectors", paths["vectors"],
        "--loss-mode", "sampled_bce", "--dropout", "0.2",
    ]
    blobs = []
    for tag in ("r1", "r2"):
        assert run(["train", *common, "--out-dir", str(tmp_path / tag)]) == 0
        blobs.append((tmp_path / tag / "model.pers").read_bytes())
    assert blobs[0] == blobs[1]
    model = str(tmp_path / "r1" / "model.pers")
    assert training.load_checkpoint(model).config.loss_mode == "sampled_bce"
    assert run(["eval", *common, "--checkpoint", model, "--out-dir", str(tmp_path / "ev")]) == 0
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert 0.0 <= report["rows"][0]["hr"] <= 1.0

    # One epoch through the CLI, resumed for the second, gives the
    # two-epoch checkpoint byte for byte.
    assert run(["train", *common, "--out-dir", str(tmp_path / "half"), "--epochs", "1"]) == 0
    config = cli.resolve_config(cli.build_parser().parse_args(["train", *common]))
    _, _, vocab, train_w, _ = cli.load_dataset(config)
    resumed = training.train(
        train_w, vocab, cli.make_hyper(config, vocab.n_exercises), cli.make_train_config(config),
        cli.load_code_source(config), resume=training.load_checkpoint(tmp_path / "half" / "model.pers"),
    )
    training.save_checkpoint(tmp_path / "resumed.pers", resumed)
    assert (tmp_path / "resumed.pers").read_bytes() == blobs[0]


def trained_checkpoint(tmp_path):
    config_path, cfg, paths = simulate(tmp_path)
    argv = ["train", "--config", config_path, "--data", paths["data"], "--vectors", paths["vectors"]]
    assert run(argv) == 0
    model = os.path.join(cfg["out_dir"], "model.pers")
    eval_argv = [
        "eval", "--config", config_path, "--data", paths["data"],
        "--vectors", paths["vectors"], "--checkpoint", model,
    ]
    return model, eval_argv


def assert_one_line_error(capsys, fragment):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0], err


def assert_fresh_process_exits_with_one_line(argv, code, fragment):
    """`python -m pers.cli argv` in a new process: pytest's warning capture
    hides numpy's RuntimeWarnings in this one, a shell run shows them, and
    a traceback shows as more than one line."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "pers.cli", *argv], capture_output=True, text=True, env=env)
    err = proc.stderr.strip().splitlines()
    assert proc.returncode == code, proc.stderr
    assert len(err) == 1 and err[0].startswith("error:") and fragment in err[0], err


def test_eval_with_nan_logits_exits_3(tmp_path, capsys):
    # A checkpoint may not store a non-finite value, but finite ones can
    # still overflow: output weights and biases at the largest float push
    # the target logits to +-inf or NaN.
    model, eval_argv = trained_checkpoint(tmp_path)
    cp = training.load_checkpoint(model)
    for name in ("W_12", "b_12"):
        huge = np.full_like(cp.model.tensors[name].data, np.finfo(np.float64).max)
        cp.model.tensors[name] = tk.parameter(huge, name)
    training.save_checkpoint(model, cp)
    capsys.readouterr()
    assert run(eval_argv) == 3
    assert_one_line_error(capsys, "non-finite logits")
    assert_fresh_process_exits_with_one_line(eval_argv, 3, "non-finite logits")
    assert not os.path.exists(os.path.join(os.path.dirname(model), "report.tsv"))


@pytest.mark.parametrize("overflow, fragment", [
    # Finite latents near the largest float, too large to standardise.
    ({"W_10": lambda w: np.where(np.arange(w.shape[1]) == 0, 1e308, w)}, "non-finite probe features"),
    # Understanding-style latents that overflow outright.
    ({"W_10": lambda w: np.full_like(w, np.finfo(np.float64).max), "b_1": lambda b: np.full_like(b, 1e3)},
     "non-finite latents in the history of"),
], ids=["huge-latents", "overflowing-latents"])
def test_probe_on_overflowing_latents_exits_3(tmp_path, capsys, overflow, fragment):
    config_path, cfg = base_config(tmp_path, n_learners=48, steps=30, epochs=1)
    assert run(["simulate", "--config", config_path]) == 0
    out = cfg["out_dir"]
    data, vectors, labels = (os.path.join(out, name) for name in ("data.jsonl", "vectors.txt", "labels.tsv"))
    assert run(["train", "--config", config_path, "--data", data, "--vectors", vectors]) == 0
    model = os.path.join(out, "model.pers")
    cp = training.load_checkpoint(model)
    for name, edit in overflow.items():
        cp.model.tensors[name] = tk.parameter(edit(cp.model.tensors[name].data), name)
    training.save_checkpoint(model, cp)
    capsys.readouterr()
    argv = ["probe", "--config", config_path, "--data", data, "--vectors", vectors,
            "--checkpoint", model, "--labels", labels, "--probe-trials", "2"]
    assert run(argv) == 3
    assert_one_line_error(capsys, fragment)
    assert_fresh_process_exits_with_one_line(argv, 3, fragment)
    assert not os.path.exists(os.path.join(out, "probe.json"))


@pytest.mark.parametrize("entry", ["W_12", "m:W_12"])
def test_eval_checkpoint_non_finite_value_exits_2(tmp_path, capsys, entry):
    model, eval_argv = trained_checkpoint(tmp_path)
    data = bytearray(open(model, "rb").read())
    magic = len(training.CHECKPOINT_MAGIC)
    n = int.from_bytes(data[magic : magic + 8], "little")
    offset = next(e["offset"] for e in json.loads(data[magic + 8 : magic + 8 + n])["manifest"] if e["name"] == entry)
    at = magic + 8 + n + offset + 8  # the entry's second value
    data[at : at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    open(model, "wb").write(bytes(data))
    capsys.readouterr()
    assert run(eval_argv) == 2
    assert_one_line_error(capsys, f"stored tensor '{entry}' holds a non-finite value")


def test_eval_checkpoint_missing_tensor_exits_2(tmp_path, capsys):
    model, eval_argv = trained_checkpoint(tmp_path)
    cp = training.load_checkpoint(model)
    del cp.model.tensors["W_3"]
    training.save_checkpoint(model, cp)
    capsys.readouterr()
    assert run(eval_argv) == 2
    assert_one_line_error(capsys, "tensors differ from the stored model settings at ['W_3']")


def test_eval_checkpoint_header_length_past_end_exits_2(tmp_path, capsys):
    model, eval_argv = trained_checkpoint(tmp_path)
    data = open(model, "rb").read()
    magic = len(training.CHECKPOINT_MAGIC)
    with open(model, "wb") as fh:
        fh.write(data[:magic] + (2**40).to_bytes(8, "little") + data[magic + 8 :])
    capsys.readouterr()
    assert run(eval_argv) == 2
    assert_one_line_error(capsys, "header length")


def rewrite_header(model, edit):
    """Apply edit to a checkpoint's JSON header in place."""
    data = open(model, "rb").read()
    magic = len(training.CHECKPOINT_MAGIC)
    n = int.from_bytes(data[magic : magic + 8], "little")
    header = json.loads(data[magic + 8 : magic + 8 + n])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    with open(model, "wb") as fh:
        fh.write(data[:magic] + len(blob).to_bytes(8, "little") + blob + data[magic + 8 + n :])


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda h: h.pop("hyper"), "header lacks field 'hyper'"),
        (lambda h: h.pop("vocab"), "header lacks field 'vocab'"),
        (lambda h: h.update(config="lr=0.01"), "header field 'config' is a str, not dict"),
    ],
    ids=["missing-hyper", "missing-vocab", "string-config"],
)
def test_eval_checkpoint_bad_header_field_exits_2(tmp_path, capsys, edit, fragment):
    model, eval_argv = trained_checkpoint(tmp_path)
    rewrite_header(model, edit)
    capsys.readouterr()
    assert run(eval_argv) == 2
    assert_one_line_error(capsys, fragment)


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda h: h["hyper"].update(d_k=10**6), "the stored model settings at ['W_1', "),
        (lambda h: h.update(code_buckets=10**12), "the stored model settings at ['code_table']"),
        (lambda h: h["hyper"].update(d_k=8.0), "header field 'hyper' holds a value that is not an integer"),
        (lambda h: h["config"].update(layers=10**12), "stored tensors cannot hold a 1000000000000-layer model"),
    ],
    ids=["huge-d_k", "huge-code-buckets", "float-d_k", "huge-layers"],
)
def test_eval_checkpoint_header_widths_unlike_payload_exit_2(tmp_path, capsys, edit, fragment):
    """Header widths, bucket counts and layer counts that disagree with the
    stored tensors are refused from shapes alone: nothing sized by the
    header is allocated."""
    model, eval_argv = trained_checkpoint(tmp_path)
    rewrite_header(model, edit)
    capsys.readouterr()
    assert run(eval_argv) == 2
    assert_one_line_error(capsys, fragment)


def with_code_text(path):
    """Give every record of a log some code text, for the hashed source."""
    records = [json.loads(line) for line in open(path)]
    with open(path, "w") as fh:
        for i, rec in enumerate(records):
            rec["code"] = f"for i in range({i % 7}): total += x{i % 5}"
            fh.write(json.dumps(rec) + "\n")


def hashed_checkpoint(tmp_path):
    config_path, cfg, paths = simulate(tmp_path)
    with_code_text(paths["data"])
    argv = ["train", "--config", config_path, "--data", paths["data"]]
    assert run(argv + ["--code-source", "hashed", "--hash-buckets", "32"]) == 0
    model = os.path.join(cfg["out_dir"], "model.pers")
    return ["eval", "--config", config_path, "--data", paths["data"], "--checkpoint", model], paths


def test_eval_hashed_source_on_vectors_checkpoint_exits_2(tmp_path, capsys):
    model, eval_argv = trained_checkpoint(tmp_path)
    with_code_text(eval_argv[eval_argv.index("--data") + 1])
    capsys.readouterr()
    assert run(eval_argv + ["--code-source", "hashed"]) == 2
    assert_one_line_error(capsys, "trained on precomputed vectors")


def test_eval_vectors_on_hashed_checkpoint_exits_2(tmp_path, capsys):
    eval_argv, paths = hashed_checkpoint(tmp_path)
    assert run(eval_argv + ["--code-source", "hashed", "--hash-buckets", "32"]) == 0
    capsys.readouterr()
    assert run(eval_argv + ["--vectors", paths["vectors"]]) == 2
    assert_one_line_error(capsys, "trained on hashed code tokens")


def test_eval_other_bucket_count_than_training_exits_2(tmp_path, capsys):
    eval_argv, _ = hashed_checkpoint(tmp_path)
    capsys.readouterr()
    assert run(eval_argv + ["--code-source", "hashed", "--hash-buckets", "16"]) == 2
    assert_one_line_error(capsys, "checkpoint has 32 hash buckets x 8, source 16 x 8")


def test_hashed_eval_and_probe_take_their_widths_from_a_d_c_8_checkpoint(tmp_path, capsys):
    config_path, cfg = base_config(tmp_path, n_learners=48, steps=20, epochs=1)
    del cfg["d_c"]
    open(config_path, "w").write(json.dumps(cfg))
    assert run(["simulate", "--config", config_path, "--d-c", "8"]) == 0
    out = cfg["out_dir"]
    data, labels, model = (os.path.join(out, name) for name in ("data.jsonl", "labels.tsv", "model.pers"))
    with_code_text(data)
    common = ["--config", config_path, "--data", data, "--code-source", "hashed"]
    assert run(["train", *common, "--hash-buckets", "32", "--d-c", "8"]) == 0
    reports = []
    for widths in ([], ["--hash-buckets", "32", "--d-c", "8"]):
        dest = str(tmp_path / f"eval{len(widths)}")
        assert run(["eval", *common, "--checkpoint", model, "--out-dir", dest, *widths]) == 0
        reports.append(open(os.path.join(dest, "report.tsv")).read())
    assert reports[0] == reports[1]
    probe_argv = ["probe", *common, "--checkpoint", model, "--labels", labels, "--probe-trials", "1", "--probe-splits", "1"]
    assert run(probe_argv) == 0
    capsys.readouterr()
    for command in (["eval", *common, "--checkpoint", model], probe_argv):
        assert run(command + ["--d-c", "4"]) == 2
        assert_one_line_error(capsys, "checkpoint has 32 hash buckets x 8, source 32 x 4")


def shift_second_entry_onto_first(header):
    header["manifest"][1]["offset"] = header["manifest"][0]["offset"]


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (shift_second_entry_onto_first, "overlap"),
        (lambda h: h["manifest"][0].update(offset=-8), "negative offset"),
        (None, "16 trailing payload bytes belong to no manifest entry"),
    ],
    ids=["shared-bytes", "negative-offset", "trailing-bytes"],
)
def test_eval_checkpoint_bad_manifest_extents_exit_2(tmp_path, capsys, edit, fragment):
    model, eval_argv = trained_checkpoint(tmp_path)
    if edit is None:
        with open(model, "ab") as fh:
            fh.write(b"\x00" * 16)
    else:
        rewrite_header(model, edit)
    capsys.readouterr()
    assert run(eval_argv) == 2
    assert_one_line_error(capsys, fragment)


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("truncation")
    model, eval_argv = trained_checkpoint(tmp_path)
    return tmp_path, open(model, "rb").read(), eval_argv


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_truncated_checkpoint_exits_2_with_one_error_line(saved_model, data):
    tmp_path, blob, eval_argv = saved_model
    magic = len(training.CHECKPOINT_MAGIC)
    header_end = magic + 8 + int.from_bytes(blob[magic : magic + 8], "little")
    edges = [0, magic - 1, magic, magic + 7, magic + 8, header_end - 1, header_end, header_end + 1, len(blob) - 1]
    cut = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, len(blob) - 1)))
    path = tmp_path / "cut.pers"
    path.write_bytes(blob[:cut])
    argv = list(eval_argv)
    argv[argv.index("--checkpoint") + 1] = str(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(argv) == 2
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_bit_flipped_checkpoint_exits_0_2_or_3_with_one_error_line(saved_model, data):
    """A checkpoint with one bit flipped either still evaluates, or exits 2
    (a damaged file) or 3 (values that overflow) with one error line; never
    a traceback. A flipped mantissa bit cannot be told from a trained value."""
    tmp_path, blob, eval_argv = saved_model
    magic = len(training.CHECKPOINT_MAGIC)
    header_end = magic + 8 + int.from_bytes(blob[magic : magic + 8], "little")
    # The payload outnumbers the magic, length and header, so half the flips land there.
    at = data.draw(st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1)))
    flipped = bytearray(blob)
    flipped[at] ^= 1 << data.draw(st.integers(0, 7))
    path = tmp_path / "flipped.pers"
    path.write_bytes(flipped)
    argv = list(eval_argv)
    argv[argv.index("--checkpoint") + 1] = str(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().strip().splitlines()
    if code == 0:
        assert not lines
    else:
        assert code in (2, 3) and len(lines) == 1 and lines[0].startswith("error:"), (code, lines)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eval_on_truncated_or_bit_flipped_vectors_exits_2_with_one_error_line(saved_model, data):
    """A damaged vectors file either still parses, and then evaluates, or
    exits 2 with one error line; never a traceback."""
    tmp_path, _, eval_argv = saved_model
    at = eval_argv.index("--vectors") + 1
    blob = open(eval_argv[at], "rb").read()
    cut = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        blob = blob[:cut]
    else:
        blob = blob[:cut] + bytes([blob[cut] ^ (1 << data.draw(st.integers(0, 7)))]) + blob[cut + 1 :]
    path = tmp_path / "fuzzed.txt"
    path.write_bytes(blob)
    argv = list(eval_argv)
    argv[at] = str(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().strip().splitlines()
    if code == 0:
        assert not lines and codefeat.read_vectors(path).dim == 8
    else:
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error:"), (code, lines)


@pytest.mark.parametrize("key", ["data", "vectors", "labels", "checkpoint"])
def test_a_directory_for_an_input_path_exits_2_with_one_line_naming_it(saved_model, key):
    tmp_path, _, eval_argv = saved_model
    data = eval_argv[eval_argv.index("--data") + 1]
    argv = ["probe", *eval_argv[1:], "--labels", os.path.join(os.path.dirname(data), "labels.tsv"),
            "--out-dir", str(tmp_path / "probe")]
    argv[argv.index(f"--{key}") + 1] = str(tmp_path)
    assert_fresh_process_exits_with_one_line(argv, 2, str(tmp_path))


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    return simulate(tmp_path_factory.mktemp("sim"))


LOADS_LOG = ("preprocess", "train", "eval", "ablate", "probe")  # the commands that window and split the log


@pytest.mark.parametrize(
    "command, flags, key",
    [
        ("train", ["--epochs", "0"], "epochs"),
        ("train", ["--batch-size", "-3"], "batch_size"),
        ("train", ["--batch-size", "0"], "batch_size"),
        ("eval", ["--eval-batch-size", "0"], "eval_batch_size"),
        ("train", ["--lr", "-1"], "lr"),
        ("train", ["--lr", "nan"], "lr"),
        ("train", ["--grad-clip", "0"], "grad_clip"),
        ("train", ["--layers", "0"], "layers"),
        ("train", ["--loss-mode", "sampled_bce", "--negatives-per-positive", "0"], "negatives_per_positive"),
        *((command, ["--max-len", "1"], "max_len") for command in LOADS_LOG),
        *((command, ["--split-ratio", "1.5"], "split_ratio") for command in LOADS_LOG),
        *((command, flags, key) for command in ("train", "ablate")
          for flags, key in ((["--d-p", "0"], "d_p"), (["--d-pos", "3"], "d_pos"))),
        ("train", ["--code-source", "hashed", "--hash-buckets", "0"], "hash_buckets"),
    ],
)
def test_invalid_trainer_setting_exits_1(simulated, tmp_path, capsys, command, flags, key):
    config_path, _, paths = simulated
    argv = [
        command, "--config", config_path, "--data", paths["data"], "--vectors", paths["vectors"],
        "--labels", paths["labels"], "--checkpoint", str(tmp_path / "absent.pers"),
        "--out-dir", str(tmp_path / "out"), *flags,
    ]
    capsys.readouterr()
    assert run(argv) == 1
    assert_one_line_error(capsys, key)
    assert not os.path.exists(tmp_path / "out" / "model.pers")


@pytest.mark.parametrize("key", ["probe_splits", "probe_trials"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_probe_count_below_one_exits_1_before_export(simulated, tmp_path, capsys, key, value):
    config_path, _, paths = simulated
    out = tmp_path / "out"
    argv = [
        "probe", "--config", config_path, "--data", paths["data"], "--vectors", paths["vectors"],
        "--labels", paths["labels"], "--checkpoint", str(tmp_path / "absent.pers"), "--out-dir", str(out),
        "--" + key.replace("_", "-"), value,
    ]
    capsys.readouterr()
    assert run(argv) == 1
    assert_one_line_error(capsys, f"{key} must be at least 1")
    assert not os.path.exists(out / "latents.tsv") and not os.path.exists(out / "probe.json")


def test_train_on_non_finite_vector_exits_2(simulated, tmp_path, capsys):
    config_path, _, paths = simulated
    lines = open(paths["vectors"]).read().splitlines()
    ref, *values = lines[3].split()
    lines[3] = " ".join([ref, values[0], "nan", *values[2:]])
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["train", "--config", config_path, "--data", paths["data"], "--vectors", str(vectors), "--out-dir", str(tmp_path)]
    assert run(argv) == 2
    assert_one_line_error(capsys, f"vector of '{ref}' is not finite")


@pytest.mark.parametrize("line, edit, fragment", [
    (0, lambda lines: b"PERSVEC1 d_c=-1", "bad d_c in header: 'PERSVEC1 d_c=-1'"),
    (0, lambda lines: b"PERSVEC1 d_c=0", "bad d_c in header: 'PERSVEC1 d_c=0'"),
    (1, lambda lines: b" ".join([lines[1].split()[0], b"1x5", *lines[1].split()[2:]]),
     "line 2: could not convert string to float: '1x5'"),
    (2, lambda lines: lines[2] + b"\xb6", "line 3 is not UTF-8 text"),
    (3, lambda lines: b" ".join([lines[1].split()[0], *lines[3].split()[1:]]), "line 4: ref '{ref}' is listed twice"),
], ids=["negative-d_c", "zero-d_c", "bad-float", "bad-byte", "twice"])
def test_train_on_malformed_vectors_file_names_it_and_exits_2(simulated, tmp_path, capsys, line, edit, fragment):
    config_path, _, paths = simulated
    lines = open(paths["vectors"], "rb").read().split(b"\n")
    ref = lines[1].split()[0].decode()
    lines[line] = edit(lines)
    vectors = tmp_path / "vectors.txt"
    vectors.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    argv = ["train", "--config", config_path, "--data", paths["data"], "--vectors", str(vectors), "--out-dir", str(tmp_path)]
    assert run(argv) == 2
    assert_one_line_error(capsys, f"{vectors}: {fragment.format(ref=ref)}")


@pytest.mark.parametrize("line, edit, fragment", [
    (1, lambda lines: lines[1].rsplit(b"\t", 1)[0], "line 2: expected 3 tab-separated fields, got 2"),
    (2, lambda lines: lines[1], "line 3: learner '{learner}' is listed twice"),
    (2, lambda lines: lines[2] + b"\xb6", "line 3 is not UTF-8 text"),
], ids=["two-fields", "twice", "bad-byte"])
def test_probe_on_malformed_labels_names_the_line_and_exits_2(saved_model, capsys, line, edit, fragment):
    tmp_path, _, eval_argv = saved_model
    data = eval_argv[eval_argv.index("--data") + 1]
    lines = open(os.path.join(os.path.dirname(data), "labels.tsv"), "rb").read().split(b"\n")
    learner = lines[1].split(b"\t")[0].decode()
    lines[line] = edit(lines)
    labels = tmp_path / "labels.tsv"
    labels.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run(["probe", *eval_argv[1:], "--labels", str(labels), "--out-dir", str(tmp_path / "probe")]) == 2
    assert_one_line_error(capsys, f"{labels}: {fragment.format(learner=learner)}")


def test_checkpoint_with_earlier_header_fields_evaluates_the_same(tmp_path):
    """Files from before the header lost its repeated fields still load
    and evaluate the same; resaving drops those fields."""
    model, eval_argv = trained_checkpoint(tmp_path)
    assert run(eval_argv + ["--out-dir", str(tmp_path / "new")]) == 0
    new_bytes = open(model, "rb").read()

    def add_earlier_fields(header):
        config = header["config"]
        header.update(
            seed=config["seed"], epochs_done=len(header["loss_log"]), best_epoch=0, best_is_final=True,
            variant=config["variant"], layers=config["layers"],
        )

    rewrite_header(model, add_earlier_fields)
    assert run(eval_argv + ["--out-dir", str(tmp_path / "old")]) == 0
    for name in ("report.tsv", "report.json"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "new" / name).read_bytes()
    training.save_checkpoint(tmp_path / "resaved.pers", training.load_checkpoint(model))
    assert (tmp_path / "resaved.pers").read_bytes() == new_bytes


def test_eval_checkpoint_with_best_copy_exits_2(tmp_path, capsys):
    model, eval_argv = trained_checkpoint(tmp_path)
    b_12 = training.load_checkpoint(model).model.tensors["b_12"].data

    def add_best_entry(header):
        end = max(e["offset"] + 8 * int(np.prod(e["dims"])) for e in header["manifest"])
        header["manifest"].append({"name": "best:b_12", "dims": list(b_12.shape), "offset": end})

    rewrite_header(model, add_best_entry)
    with open(model, "ab") as fh:
        fh.write(b_12.astype("<f8").tobytes())
    capsys.readouterr()
    assert run(eval_argv) == 2
    assert_one_line_error(capsys, "tensors differ from the stored model settings at ['best:b_12']")


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 6.7 GiB"), "error: out of memory: Unable to allocate 6.7 GiB"),
    (MemoryError(), "error: out of memory"),
])
def test_memory_error_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, exc, line):
    def handler(config):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "simulate", (handler, ()))
    assert run(["simulate", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
