#!/usr/bin/env python3
"""Desk-scale experiment: generate a synthetic dataset, run the pipeline
under each ablation toggle, and print an AUC/AP comparison table. A variant
whose metrics are undefined (single-class labels) prints as undefined with
its reason; the other variants still run, and the script then exits 3, as
``hypervad run`` does.

Usage:
  python scripts/run_synthetic_experiment.py [--out DIR] [--seed N]
      [--n-segments N] [--dim D] [--shift S] [--window W]
"""

import argparse
import sys
import tempfile
from pathlib import Path

from hypervad.cli import EXIT_OK, EXIT_UNDEFINED_METRICS
from hypervad.core import PipelineConfig
from hypervad.pipeline import RunManifest, run_pipeline
from hypervad.synth import gen_synthetic

VARIANTS = [
    ("full pipeline", {}),
    ("no caption cleaning", {"cleaning": False}),
    ("euclidean fusion", {"fusion_mode": "euclidean"}),
    ("no prompt optimizer", {"optimizer": False}),
    ("no refinement", {"refinement": False}),
    ("visual only", {"drop_audio": True}),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="working directory (default: temp)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-segments", type=int, default=400)
    parser.add_argument("--dim", type=int, default=16)
    parser.add_argument("--shift", type=float, default=6.0)
    parser.add_argument("--anomaly-fraction", type=float, default=0.1)
    parser.add_argument("--window", type=int, default=PipelineConfig().window)
    args = parser.parse_args()

    root = Path(args.out) if args.out else Path(tempfile.mkdtemp(prefix="hypervad_"))
    data = gen_synthetic(
        root / "data",
        n_segments=args.n_segments,
        dim=args.dim,
        anomaly_fraction=args.anomaly_fraction,
        shift=args.shift,
        seed=args.seed,
        with_audio=True,
    )
    oracle = "n/a" if data.oracle_auc is None else f"{data.oracle_auc:.4f}"
    print(f"dataset: {data.n_segments} segments ({data.n_anomalous} anomalous), "
          f"dim {data.dim}, generator oracle AUC {oracle}")
    print(f"{'variant':<22} {'AUC-ROC':>8} {'AP':>8} {'final loss':>12}")

    config = PipelineConfig(seed=args.seed, window=args.window)
    undefined = False
    for name, overrides in VARIANTS:
        overrides = dict(overrides)
        drop_audio = overrides.pop("drop_audio", False)
        manifest = RunManifest(
            visual_path=data.paths["visual"],
            text_path=data.paths["text"],
            captions_path=data.paths["captions"],
            audio_path=None if drop_audio else data.paths["audio"],
            labels_path=data.paths["labels"],
            out_dir=root / name.replace(" ", "_"),
            config=config,
            **overrides,
        )
        result = run_pipeline(manifest)
        metrics = result.eval_report
        loss = f"{result.prompt_state.loss_history[-1]:>12.4f}"
        if metrics.defined:
            print(f"{name:<22} {metrics.auc_roc:>8.4f} {metrics.average_precision:>8.4f} {loss}")
        else:
            undefined = True
            print(f"{name:<22} {'undefined':>17} {loss}  ({metrics.undefined_reason})")
    print(f"outputs under {root}")
    return EXIT_UNDEFINED_METRICS if undefined else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
