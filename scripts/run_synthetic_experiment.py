#!/usr/bin/env python3
"""Desk-scale experiment: generate a synthetic dataset, score it under
each ablation variant in-process (``hypervad.pipeline.ablate``: one load,
one scorer, nothing written but the dataset), and print an AUC/AP comparison
table. Without ``--out`` the dataset goes to a temporary directory that is
removed before exit. A variant whose metrics are undefined (single-class
labels) prints as undefined with its reason; the other variants still print,
and the script then exits 3, as ``hypervad run`` does. Errors exit through
``hypervad.cli.exit_status``; ``--help`` lists the options."""

import argparse
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

from hypervad.cli import EXIT_OK, EXIT_UNDEFINED_METRICS, exit_status
from hypervad.core import PipelineConfig
from hypervad.dataio import integer, real
from hypervad.pipeline import ABLATION_VARIANTS, RunManifest, ablate
from hypervad.synth import gen_synthetic

# perfbench/ablation.py loads this script by path and reads this name.
VARIANTS = ABLATION_VARIANTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], argument_default=argparse.SUPPRESS)
    parser.add_argument("--out", help="working directory (default: a temporary one, removed)")
    parser.add_argument("--seed", type=integer, help="seeds the dataset and the config")
    parser.add_argument("--n-segments", type=integer)
    parser.add_argument("--dim", type=integer)
    parser.add_argument("--shift", type=real)
    parser.add_argument("--anomaly-fraction", type=real)
    parser.add_argument("--window", type=integer)
    return exit_status(run, **vars(parser.parse_args()))


def run(out=None, window=None, **synth) -> int:
    """Generate the dataset from ``gen_synthetic``'s arguments ``synth``, score
    every variant and print the table; an option left unset takes its callee's default."""
    settings = {"seed": synth.get("seed"), "window": window}
    config = PipelineConfig(**{name: value for name, value in settings.items() if value is not None})
    with nullcontext(out) if out else tempfile.TemporaryDirectory(prefix="hypervad_") as root:
        data = gen_synthetic(Path(root) / "data", **synth, with_audio=True)
        oracle = "n/a" if data.oracle_auc is None else f"{data.oracle_auc:.4f}"
        print(f"dataset: {data.n_segments} segments ({data.n_anomalous} anomalous), "
              f"dim {data.dim}, generator oracle AUC {oracle}")
        print(f"{'variant':<22} {'AUC-ROC':>8} {'AP':>8} {'final loss':>12}")
        manifest = RunManifest(
            visual_path=data.paths["visual"],
            text_path=data.paths["text"],
            captions_path=data.paths["captions"],
            audio_path=data.paths["audio"],
            labels_path=data.paths["labels"],
            config=config,
        )
        results = ablate(manifest)
    undefined = False
    for name, result in results:
        metrics = result.eval_report
        loss = f"{result.prompt_state.loss_history[-1]:>12.4f}"
        if metrics.defined:
            print(f"{name:<22} {metrics.auc_roc:>8.4f} {metrics.average_precision:>8.4f} {loss}")
        else:
            undefined = True
            print(f"{name:<22} {'undefined':>17} {loss}  ({metrics.undefined_reason})")
    print(f"outputs under {Path(out)}" if out else "outputs removed (no --out)")
    return EXIT_UNDEFINED_METRICS if undefined else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
