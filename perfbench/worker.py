#!/usr/bin/env python3
"""One benchmark process: set a workload up, run the pipeline on it, check
the outputs, and print one JSON object as the last line of standard output.

run.py starts every worker in a fresh interpreter, so that set-up time
includes importing hypervad and peak RSS belongs to one workload alone.

  python3 perfbench/worker.py --mode {setup,time,trace} --workload NAME --seed N --seconds S

Modes: ``setup`` only sets up and reports the time it took, followed by one
calibration sample; ``time`` runs one warm-up repetition that also counts
scorer calls and sets peak RSS, then untraced timed repetitions for the
given seconds, each between two calibration samples; ``trace`` alternates
untraced and traced repetitions for the given seconds, then builds the
ablation table.
"""

import os
import time

T0 = time.perf_counter()
# One CPU for this process and the scorer server it starts: on a shared host
# each virtual CPU's speed swings on its own, so the calibration samples
# must run on the CPU that ran the timed call (see calibrate.py).
NPROC = len(os.sched_getaffinity(0))
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hypervad  # noqa: E402  (importing it is part of set-up time)
from hypervad.core import PipelineConfig  # noqa: E402
from hypervad import dataio  # noqa: E402
from hypervad.pipeline import REPORT_FILE, RunManifest, run_pipeline  # noqa: E402
from hypervad.synth import gen_synthetic  # noqa: E402

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from ablation import ablation_table, findings  # noqa: E402
from calibrate import Calibration  # noqa: E402
from checks import Checks  # noqa: E402
from tracer import ROOT_SPAN, Tracer, pipeline_patches, scorer_patches  # noqa: E402
from workloads import ANOMALY_FRACTION, DIM, FRAMES_PER_SEGMENT, SHIFT, WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench"
# Stage spans must account for all but this share of a traced run.
OTHER_SHARE = 0.05


class ScorerProcess:
    """scorer_proc.py as a child process, with its counters read over a pipe."""

    def __init__(self, prompt_dim: int, emb_dim: int, seed: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "scorer_proc.py"), "--prompt-dim", str(prompt_dim),
             "--emb-dim", str(emb_dim), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 3 or line[0] != "ready":
            self.close()
            raise RuntimeError(f"scorer server did not start: {line}")
        self.endpoint, self.echo_endpoint = line[1:]

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def served(server, before: dict) -> dict:
    """Server counters accrued since ``before``."""
    after = server.stats()
    return {key: after[key] - before[key] for key in after}


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "pinned_cpu": CPU,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_once(manifest, server, tracer=None, patches=()):
    """Run the pipeline once; return its wall time and the server counters
    it accrued. With a tracer, the run is traced through ``patches``."""
    before = server.stats() if server else None
    start = time.perf_counter()
    if tracer is None:
        run_pipeline(manifest)
    else:
        with tracer.installed(patches), tracer.span(ROOT_SPAN):
            run_pipeline(manifest)
    elapsed = time.perf_counter() - start
    return elapsed, served(server, before) if server else None


def check_run(checks, wl, manifest, server_delta) -> None:
    checks.outputs(manifest.out_dir, manifest.labels_path)
    if server_delta is not None:
        checks.equal("scorer server requests", server_delta["requests"], wl.remote_requests)
        checks.equal("scorer server non-2xx replies", server_delta["non_2xx"], 0)


def check_trace(checks, wl, tracer, metrics) -> None:
    """Closed forms and coverage: a wrapper under the wrong name would count
    nothing, and the time of an unwrapped call would land in other_s."""
    karcher = metrics["hyperbolic.karcher_calls"]
    checks.expect(karcher > 0 if wl.takes_karcher_means else karcher == 0,
                  f"hyperbolic.karcher_calls is {karcher}")
    checks.equal("prompt_opt.score_all_calls", metrics["prompt_opt.score_all_calls"], wl.score_all_calls)
    if wl.scorer == "remote":
        checks.equal("remote.requests", metrics["remote.requests"], wl.remote_requests)
    for stage, secs in tracer.stage_seconds().items():
        checks.expect(secs > 0.0, f"no traced call in stage {stage}")
    other = metrics["pipeline.other_s"] / metrics["trace.run_s"]
    checks.expect(other < OTHER_SHARE, f"pipeline.other_s is {other:.1%} of the traced run")


def time_mode(wl, manifest, server, seconds) -> dict:
    checks = Checks()
    # Warm-up: fills caches and finishes lazy set-up, counts what the scorer
    # receives, and sets this fresh process's peak RSS. It is not timed.
    tracer = Tracer()
    _, delta = run_once(manifest, server, tracer, scorer_patches())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    requests = [delta["requests"] if server else tracer.extra["scorer_requests"]]
    non_2xx = delta["non_2xx"] if server else 0
    with checks.repetition():
        check_run(checks, wl, manifest, delta)

    # Each timed run is bracketed by calibration samples on this process;
    # scaled_s is its wall time at the reference speed (see calibrate.py).
    calibration = Calibration(server.echo_endpoint if server else None)
    run_s, kernel_s, scaled_s = [], [], []
    before = calibration.sample()
    start = time.perf_counter()
    while True:
        elapsed, delta = run_once(manifest, server)
        after = calibration.sample()
        run_s.append(elapsed)
        kernel_s.append((before + after) / 2.0)
        scaled_s.append(calibration.scaled(elapsed, kernel_s[-1]))
        before = after
        if server:
            requests.append(delta["requests"])
            non_2xx += delta["non_2xx"]
        with checks.repetition():
            check_run(checks, wl, manifest, delta)
        if time.perf_counter() - start + statistics.median(run_s) > seconds:
            break

    report = dataio.read_report(manifest.out_dir / REPORT_FILE)
    return {
        "run_s": run_s,
        "kernel_s": kernel_s,
        "scaled_run_s": scaled_s,
        "peak_rss_mb": peak_rss_mb,
        "scorer_requests": requests,
        "non_2xx": non_2xx,
        "auc_roc": report["metrics"]["auc_roc"],
        "average_precision": report["metrics"]["average_precision"],
        "runs": 1 + len(run_s),
        "scores_sha256": checks.hashes[0],
        "checks": checks.as_dict(),
    }


def trace_mode(wl, manifest, server, seconds, work: Path, trace_id: str) -> dict:
    """Alternate untraced and traced runs for the given seconds; per-layer
    metrics are medians over the traced runs."""
    checks = Checks()
    untraced_s, traced_s, layers = [], [], []
    start = time.perf_counter()
    while True:
        elapsed, delta = run_once(manifest, server)
        untraced_s.append(elapsed)
        with checks.repetition():
            check_run(checks, wl, manifest, delta)

        tracer = Tracer()
        elapsed, delta = run_once(manifest, server, tracer, pipeline_patches())
        traced_s.append(elapsed)
        layers.append(tracer.layer_metrics(delta["busy_s"] if server else 0.0))
        with checks.repetition():
            check_run(checks, wl, manifest, delta)
            check_trace(checks, wl, tracer, layers[-1])

        pair = statistics.median(untraced_s) + statistics.median(traced_s)
        if time.perf_counter() - start + pair > seconds:
            break

    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)

    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{trace_id}.json").write_text(json.dumps({
        "trace_id": trace_id,
        "spans": [dict(zip(("id", "name", "start", "end", "parent"), s)) for s in tracer.spans],
        "calls": tracer.calls,
        "seconds": tracer.seconds,
    }) + "\n", encoding="utf-8")

    rows = ablation_table(ROOT, work / "ablation")
    return {
        "per_layer": metrics,
        "untraced_run_s": untraced_s,
        "traced_run_s": traced_s,
        "runs": len(untraced_s) + len(traced_s),
        "scores_sha256": checks.hashes[0],
        "checks": checks.as_dict(),
        "ablation": rows,
        "ablation_findings": findings(rows),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    source = Path(hypervad.__file__).resolve().parent
    if source != ROOT / "src" / "hypervad":
        print(f"hypervad imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    trace_id = f"{wl.name}-s{args.seed}"
    work = OUT / "work" / f"{trace_id}-{os.getpid()}"
    server = None
    try:
        data = gen_synthetic(
            work / "data", n_segments=wl.n_segments, dim=DIM, anomaly_fraction=ANOMALY_FRACTION,
            shift=SHIFT, seed=args.seed, frames_per_segment=FRAMES_PER_SEGMENT, with_audio=wl.audio,
        )
        if wl.scorer == "remote":
            server = ScorerProcess(wl.prompt_dim, DIM, args.seed)
        setup_s = time.perf_counter() - T0
        # Set-up is interpreter and numpy work on every workload.
        calibration = Calibration()
        kernel_s = calibration.sample()
        result = {"setup_s": setup_s, "setup_kernel_s": kernel_s,
                  "scaled_setup_s": calibration.scaled(setup_s, kernel_s)}
        manifest = RunManifest(
            visual_path=data.paths["visual"],
            text_path=data.paths["text"],
            captions_path=data.paths["captions"],
            audio_path=data.paths.get("audio"),
            labels_path=data.paths["labels"],
            out_dir=work / "out",
            config=PipelineConfig(seed=args.seed, window=wl.window, opt_iters=wl.opt_iters,
                                  prompt_dim=wl.prompt_dim),
            scorer=wl.scorer,
            endpoint=server.endpoint if server else None,
        )
        if args.mode == "time":
            result.update(time_mode(wl, manifest, server, args.seconds))
        elif args.mode == "trace":
            result.update(trace_mode(wl, manifest, server, args.seconds, work, trace_id))
        result["env"] = environment()
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
