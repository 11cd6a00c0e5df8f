"""Pinned benchmark for pers.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --self-check

Runs one workload (see workloads.py and README.md) in this process on
inputs that gen.py writes for the seed, in a process of its own, and
caches under benchmarks/cache/. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the
program's functions are wrapped and the per-layer metrics are printed
instead, with the traced run's end-to-end figures on standard error so
that the tracing overhead can be read off. A failed output check prints
`correct: false` and exits with code 1.

--self-check runs every workload at toy size, untraced and traced, each
in a fresh process, and checks every result line against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, "cache")


def pin_threads() -> None:
    """One BLAS thread, set before numpy is imported.

    The model's matrices are d=32 wide: a second OpenBLAS thread made a
    training epoch slower, and its spin-waiting makes timings depend on
    whatever else runs on the machine.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program() -> None:
    """Import `pers` from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "pers", "__init__.py")):
        sys.exit(f"error: program source not found under {SRC}")
    sys.path.insert(0, SRC)
    import pers

    if not os.path.abspath(pers.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported pers from {pers.__file__}, not from {SRC}")


def ensure_inputs(name: str, size: str, seed: int) -> dict:
    """Generate the seed's inputs once, in a separate process."""
    from workloads import WORKLOADS

    spec = WORKLOADS[name][size][0]
    spec_json = json.dumps(spec, sort_keys=True)
    with open(os.path.join(HERE, "gen.py"), "rb") as fh:
        digest = hashlib.sha256(fh.read() + spec_json.encode()).hexdigest()[:12]
    out = os.path.join(CACHE, f"{digest}-s{seed}")
    if not os.path.isfile(os.path.join(out, "tally.json")):
        tmp = f"{out}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--spec", spec_json, "--seed", str(seed), "--out", tmp],
            check=True,
        )
        try:
            os.rename(tmp, out)
        except OSError:  # another run generated the same inputs first
            shutil.rmtree(tmp, ignore_errors=True)
    paths = {key: os.path.join(out, f"{key}.{ext}") for key, ext in
             (("data", "jsonl"), ("vectors", "txt"), ("labels", "tsv"), ("tally", "json"))}
    if spec["code"] == "raw":
        paths["vectors"] = None
    paths["workdir"] = CACHE
    return paths


def run_workload(args, bench: dict) -> int:
    size = "toy" if args.toy else "full"
    paths = ensure_inputs(args.workload, size, args.seed)
    with open(paths["tally"], encoding="utf-8") as fh:
        tally = json.load(fh)

    import workloads

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    result = workloads.run(args.workload, size, paths, tally, args.seed, args.seconds, tracer)
    checks = result["checks"]
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    m = result["metrics"]
    print(
        f"{args.workload} seed {args.seed}: {checks.passed} checks passed, {len(checks.failures)} failed; "
        f"{result['rounds']} rounds; HR@10 {m.hr:.4f} MRR@10 {m.mrr:.4f} NDCG@10 {m.ndcg:.4f}; "
        + " ".join(f"{d}={acc:.3f}/max-null={max(null):.3f}" for d, (acc, null) in result["report"].items()),
        file=sys.stderr,
    )
    units = {e["name"]: e["unit"] for e in bench["end_to_end"]}
    end_to_end = {k: {"value": v, "unit": units[k]} for k, v in result["end_to_end"].items()}
    if tracer is None:
        metrics = end_to_end
    else:
        print("traced end-to-end: " + json.dumps(end_to_end), file=sys.stderr)
        by_phase = {p: {n: v for (q, n), v in tracer.counters.items() if q == p} for p in layers.PHASES}
        print("traced counters by phase (run totals): " + json.dumps(by_phase), file=sys.stderr)
        if tracer.absent:
            print("absent (reported as 0): " + ", ".join(sorted(set(tracer.absent))), file=sys.stderr)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.per_layer(tracer, result).items()}
        tracer.uninstall()
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": metrics,
    }))
    return 1 if checks.failures else 0


def self_check(bench: dict) -> int:
    """Every workload at toy size, untraced and traced, in fresh processes."""
    problems = []
    for name in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, timeout=300,
            )
            took = time.perf_counter() - start
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
            try:
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                ok = (proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"}
                      and result["correct"] is True and result["attempted"] >= 1 and got == want)
            except (IndexError, ValueError, KeyError, TypeError):
                ok = False
            print(f"self-check {name} trace={trace}: {'ok' if ok else 'FAILED'} ({took:.1f} s)")
            if not ok:
                problems.append(f"{name} trace={trace} exit {proc.returncode}")
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="pers benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="self-check input sizes")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    pin_threads()
    import_program()
    if args.self_check:
        return self_check(bench)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
