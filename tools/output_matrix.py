"""Run a fixed matrix of `pers` commands and print the sha256 of every output.

    python3 tools/output_matrix.py OUT_DIR

The matrix, all in OUT_DIR:

- `pers simulate` (48 learners, 60 steps, catalog 30, d_c 8, seed 1), then
  a code-text field added to each record of data.jsonl, so one log serves
  both code sources;
- `pers train` then `pers eval` for full_softmax and sampled_bce x
  precomputed and hashed code x {PERS, PERS with 2 layers, PERS-cr,
  PERS-us}: 16 runs;
- `pers probe --per-step` on the four 1-layer PERS models.

It prints one `sha256  path` line per output file, 79 in all, sorted by
path relative to OUT_DIR. The run manifests are left out: they record wall
time and OUT_DIR. Two runs of one checkout print the same lines when the
program is deterministic across processes; runs of two checkouts show
whether a change moved any output bit. The program is imported from src/
of the checkout this file is in, with one BLAS thread. It takes about
5 s on a 2-core x86 box.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from pers import cli  # noqa: E402

WIDTHS = ["--d-p", "8", "--d-c", "8", "--d-k", "8", "--max-len", "20", "--epochs", "2", "--batch-size", "16",
          "--seed", "3"]
LOSSES = {"full_softmax": [], "sampled_bce": ["--loss-mode", "sampled_bce", "--negatives-per-positive", "4"]}
VARIANTS = {"PERS": ["--variant", "PERS"], "PERS-l2": ["--variant", "PERS", "--layers", "2"],
            "PERS-cr": ["--variant", "PERS-cr"], "PERS-us": ["--variant", "PERS-us"]}


def pers(*argv: str) -> None:
    code = cli.main(list(argv))
    if code:
        sys.exit(f"error: pers {' '.join(argv)} exited {code}")


def add_code_text(path: str) -> None:
    """Give each record a code text made from its vector ref; a fifth of
    them hold no token at all."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            k = sum(map(ord, rec["code_vec_ref"])) % 5
            rec["code"] = f"def solve(x):\n    return x * {k}  # {rec['exercise_id']}" if k else "!!!"
            fh.write(json.dumps(rec) + "\n")


def run_matrix(out: str) -> None:
    sim = os.path.join(out, "sim")
    pers("simulate", "--out-dir", sim, "--n-learners", "48", "--steps", "60", "--catalog-size", "30",
         "--d-c", "8", "--seed", "1")
    data, labels = os.path.join(sim, "data.jsonl"), os.path.join(sim, "labels.tsv")
    add_code_text(data)
    sources = {"precomputed": ["--vectors", os.path.join(sim, "vectors.txt")],
               "hashed": ["--code-source", "hashed", "--hash-buckets", "64"]}
    for loss, loss_flags in LOSSES.items():
        for source, source_flags in sources.items():
            for variant, variant_flags in VARIANTS.items():
                run = os.path.join(out, f"{loss}-{source}-{variant}")
                common = ["--data", data, "--out-dir", run, *source_flags, *WIDTHS]
                pers("train", *common, *loss_flags, *variant_flags)
                model = os.path.join(run, "model.pers")
                pers("eval", *common, "--checkpoint", model)
                if variant == "PERS":
                    pers("probe", *common, "--checkpoint", model, "--labels", labels, "--per-step")


def digests(out: str) -> list[str]:
    lines = []
    for root, _, files in os.walk(out):
        for name in files:
            if name.endswith("_manifest.json"):
                continue
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {os.path.relpath(path, out)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    out = sys.argv[1]
    if os.path.exists(out) and os.listdir(out):
        sys.exit(f"error: {out} is not empty")
    with contextlib.redirect_stdout(sys.stderr):  # the commands' progress; stdout is for the digests
        run_matrix(out)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
