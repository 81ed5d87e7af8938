"""Ablation table: the component toggles of scripts/run_synthetic_experiment.py
on one small fixed input, with AUC/AP and the scores.csv hash of each row.

The table is ungated output. Its input does not follow the benchmark seed,
so that rows and hashes compare across runs and commits.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from hypervad.core import PipelineConfig
from hypervad.pipeline import SCORES_FILE, RunManifest, run_pipeline
from hypervad.synth import gen_synthetic

INPUT = dict(n_segments=400, dim=16, anomaly_fraction=0.1, shift=6.0, seed=0, with_audio=True)
WINDOW = 10


def load_variants(root: Path):
    """The (name, overrides) rows of the experiment script."""
    path = root / "scripts" / "run_synthetic_experiment.py"
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.VARIANTS


def ablation_table(root: Path, work: Path) -> list:
    data = gen_synthetic(work / "data", **INPUT)
    config = PipelineConfig(seed=INPUT["seed"], window=WINDOW)
    rows = []
    for name, overrides in load_variants(root):
        overrides = dict(overrides)
        drop_audio = overrides.pop("drop_audio", False)
        manifest = RunManifest(
            visual_path=data.paths["visual"],
            text_path=data.paths["text"],
            captions_path=data.paths["captions"],
            audio_path=None if drop_audio else data.paths["audio"],
            labels_path=data.paths["labels"],
            out_dir=work / name.replace(" ", "_"),
            config=config,
            **overrides,
        )
        result = run_pipeline(manifest)
        digest = hashlib.sha256((manifest.out_dir / SCORES_FILE).read_bytes()).hexdigest()
        rows.append({
            "variant": name,
            "auc_roc": result.eval_report.auc_roc,
            "average_precision": result.eval_report.average_precision,
            "final_loss": result.prompt_state.loss_history[-1],
            "scores_sha256": digest,
        })
    return rows


def findings(rows: list) -> dict:
    """The two facts later changes are judged against: whether fusion and
    audio reach the scores, and whether refinement helps."""
    by_name = {row["variant"]: row for row in rows}
    full = by_name["full pipeline"]
    unrefined = by_name["no refinement"]
    same = {by_name[n]["scores_sha256"] for n in ("full pipeline", "euclidean fusion", "visual only")}
    return {
        "full_euclidean_visual_only_identical": len(same) == 1,
        "refinement_lowers_auc": full["auc_roc"] < unrefined["auc_roc"],
        "refinement_lowers_ap": full["average_precision"] < unrefined["average_precision"],
    }
