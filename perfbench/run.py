#!/usr/bin/env python3
"""hypervad benchmark: end-to-end metrics of run_pipeline per workload, or
per-layer metrics from a separate traced run.

  python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Prints one line per metric, by name and unit, and as its last line one JSON
object with the keys correct, attempted, failed and metrics. Exits non-zero
if any correctness check fails, if a run raises, or if the hypervad source
is missing. Details of every run (samples, hashes, environment, ablation
table) go to .perfbench/result-<workload>-s<seed>-trace<t>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in this many fresh processes, and the median reported.
SETUP_SAMPLES = 3
# One BLAS thread: on a 2-core box, more would contend with the loopback
# server process and add scheduling noise to the n x n products.
BLAS_THREADS = 1
# A run must end within 180 s; workers are killed past this budget.
BUDGET_S = 170.0


class WorkerError(RuntimeError):
    pass


def worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker for {workload} ran out of the {BUDGET_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.startswith("dataio.bytes_"):
        return "bytes"
    return "count"


def end_to_end(wl, seed: int, seconds: float, deadline: float):
    setups = [worker("setup", wl.name, seed, 0, deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = worker("time", wl.name, seed, seconds, deadline)
    setups.append(res)
    res["setup_samples"] = [s["setup_s"] for s in setups]
    res["scaled_setup_samples"] = [s["scaled_setup_s"] for s in setups]

    checks = res["checks"]
    failed = checks["failed"] / res["runs"]
    if wl.scorer == "remote":
        failed += res["non_2xx"] / sum(res["scorer_requests"])
    run_s = res["scaled_run_s"]
    metrics = {
        "setup_s": (statistics.median(res["scaled_setup_samples"]), "s",
                    f"median of {len(setups)} fresh processes at reference speed; "
                    f"wall median {statistics.median(res['setup_samples']):.6g} s"),
        "run_s": (statistics.median(run_s), "s",
                  f"median of {len(run_s)} untraced runs after one warm-up, at reference speed; "
                  f"wall median {statistics.median(res['run_s']):.6g} s; "
                  "no tail percentile, fewer than 10 samples lie beyond any"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB", "fresh process, after the warm-up run"),
        "auc_roc": (res["auc_roc"], "ratio", "from report.json"),
        "average_precision": (res["average_precision"], "ratio", "from report.json"),
        "scorer_requests": (statistics.median(res["scorer_requests"]), "count",
                            "HTTP requests the server received per video" if wl.scorer == "remote"
                            else "score and grad_q calls the in-process scorer received per video"),
        "failed_fraction": (failed, "ratio",
                            f"{checks['failed']} failed checks over {res['runs']} runs"
                            + (f", {res['non_2xx']} non-2xx replies" if wl.scorer == "remote" else "")),
    }
    return res, metrics


def per_layer(wl, seed: int, deadline: float):
    res = worker("trace", wl.name, seed, 0, deadline)
    metrics = {name: (value, unit_of(name), "") for name, value in res["per_layer"].items()}
    return res, metrics


def print_ablation(rows, found) -> None:
    print("ablation (n=400, window 10, audio, seed 0; ungated):")
    print(f"  {'variant':<22} {'AUC-ROC':>8} {'AP':>8}  scores.csv sha256")
    for row in rows:
        print(f"  {row['variant']:<22} {row['auc_roc']:>8.4f} {row['average_precision']:>8.4f}"
              f"  {row['scores_sha256'][:16]}")
    print("  " + ", ".join(f"{key}={value}" for key, value in found.items()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hypervad" / "__init__.py").is_file():
        print(f"no hypervad source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl = WORKLOADS[name]
        if args.workload == "all":
            # Each workload gets the full per-run budget when run together.
            deadline = time.monotonic() + BUDGET_S
        try:
            if args.trace:
                res, metrics = per_layer(wl, args.seed, deadline)
            else:
                res, metrics = end_to_end(wl, args.seed, args.seconds, deadline)
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1

        env = res["env"]
        print(f"[{name}] seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
        for metric, (value, unit, note) in metrics.items():
            print(f"[{name}] {metric} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        print(f"[{name}] scores.csv sha256 = {res['scores_sha256']}")
        checks = res["checks"]
        print(f"[{name}] checks: {checks['run']} run, {checks['failed']} failed")
        for failure in checks["failures"]:
            print(f"[{name}] FAILED: {failure}")
        if args.trace:
            print_ablation(res["ablation"], res["ablation_findings"])
        (out / f"result-{name}-s{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=2) + "\n", encoding="utf-8")

        summary["correct"] &= checks["failed"] == 0
        summary["attempted"] += res["runs"]
        summary["failed"] += checks["failed_runs"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, (value, unit, _) in metrics.items():
            if metric != "failed_fraction":  # reported as failed / attempted instead
                summary["metrics"][prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
