#!/usr/bin/env python3
"""Print the sha256 of every benchmark workload's outputs and of each
ablation row's scores, as one JSON object, so that two trees compare by diff:

  python3 scripts/output_hashes.py [--seeds 0 1] > hashes.json

Each workload of perfbench/workloads.py is generated and run once per seed as
the benchmark runs it, and its scores.csv, loss_history.csv and report.json
are hashed; remote-loopback is scored by an in-process loopback server. The
six rows of perfbench/ablation.py follow. The package is imported from this
checkout's src/, so each tree hashes its own code.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hypervad.core import PipelineConfig  # noqa: E402
from hypervad.pipeline import LOSS_FILE, REPORT_FILE, SCORES_FILE, RunManifest, run_pipeline  # noqa: E402
from hypervad.prompt_opt import StubScorer  # noqa: E402
from hypervad.remote import LoopbackScorerServer  # noqa: E402
from hypervad.synth import gen_synthetic  # noqa: E402

from ablation import ablation_table  # noqa: E402
from workloads import ANOMALY_FRACTION, DIM, FRAMES_PER_SEGMENT, SHIFT, WORKLOADS  # noqa: E402


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def workload_hashes(wl, seed: int, work: Path) -> dict:
    data = gen_synthetic(
        work / "data", n_segments=wl.n_segments, dim=DIM, anomaly_fraction=ANOMALY_FRACTION,
        shift=SHIFT, seed=seed, frames_per_segment=FRAMES_PER_SEGMENT, with_audio=wl.audio,
    )

    def run(endpoint=None) -> dict:
        manifest = RunManifest(
            visual_path=data.paths["visual"],
            text_path=data.paths["text"],
            captions_path=data.paths["captions"],
            audio_path=data.paths.get("audio"),
            labels_path=data.paths["labels"],
            out_dir=work / "out",
            config=PipelineConfig(seed=seed, window=wl.window, opt_iters=wl.opt_iters,
                                  prompt_dim=wl.prompt_dim),
            scorer=wl.scorer,
            endpoint=endpoint,
        )
        run_pipeline(manifest)
        return {name: sha256(manifest.out_dir / name) for name in (SCORES_FILE, LOSS_FILE, REPORT_FILE)}

    if wl.scorer != "remote":
        return run()
    with LoopbackScorerServer(StubScorer(wl.prompt_dim, DIM, seed=seed)) as server:
        return run(server.endpoint)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args()

    hashes = {"workloads": {}, "ablation": {}}
    with tempfile.TemporaryDirectory(prefix="hypervad_hashes_") as tmp:
        work = Path(tmp)
        for name, wl in WORKLOADS.items():
            hashes["workloads"][name] = {
                f"seed {seed}": workload_hashes(wl, seed, work / f"{name}-s{seed}") for seed in args.seeds
            }
        for row in ablation_table(ROOT, work / "ablation"):
            hashes["ablation"][row["variant"]] = row["scores_sha256"]
    print(json.dumps(hashes, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
