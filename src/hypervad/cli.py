"""Command-line interface.

Verbs:
    validate   check dataset files against every invariant
    run        execute the full pipeline and write scores + report
    eval       score a scores CSV against a labels CSV
    synth      generate a synthetic dataset

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 metrics
undefined (single-class labels).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .core import PipelineConfig, PipelineError, ValidationError
from .dataio import read_config
from .pipeline import RunManifest, eval_only, load_dataset, require_files, run_pipeline
from .synth import gen_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_UNDEFINED_METRICS = 3


def _optional_path(text: str):
    """An empty path means the file is absent, as if the option were not given."""
    return Path(text) if text else None


def _add_dataset_args(p: argparse.ArgumentParser):
    p.add_argument("--visual", dest="visual_path", type=Path, required=True,
                   help="visual embeddings file")
    p.add_argument("--text", dest="text_path", type=Path, required=True,
                   help="text (caption) embeddings file")
    p.add_argument("--captions", dest="captions_path", type=Path, required=True,
                   help="captions JSONL file")
    p.add_argument("--audio", dest="audio_path", type=_optional_path,
                   help="optional audio embeddings file")
    p.add_argument("--labels", dest="labels_path", type=_optional_path,
                   help="per-frame labels CSV")


def build_parser() -> argparse.ArgumentParser:
    """Each option's dest names the parameter it sets in the one API call its
    verb makes. An option left unset is absent from the parsed arguments, so
    the default of that parameter applies."""
    parser = argparse.ArgumentParser(prog="hypervad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    unset = argparse.SUPPRESS

    v = sub.add_parser("validate", help="validate dataset files", argument_default=unset)
    _add_dataset_args(v)

    r = sub.add_parser("run", help="run the scoring pipeline", argument_default=unset)
    _add_dataset_args(r)
    r.add_argument("--config", type=_optional_path, help="key=value config file")
    r.add_argument("--out", dest="out_dir", type=Path, required=True, help="output directory")
    r.add_argument("--seed", type=int, help="override config seed")
    r.add_argument("--no-clean", dest="cleaning", action="store_false",
                   help="disable caption cleaning")
    r.add_argument("--no-optimize", dest="optimizer", action="store_false",
                   help="disable prompt optimization")
    r.add_argument("--no-refine", dest="refinement", action="store_false",
                   help="disable Mahalanobis refinement")
    r.add_argument("--fusion", dest="fusion_mode", choices=["hyperbolic", "euclidean"])
    r.add_argument("--scorer", choices=["stub", "remote"])
    r.add_argument("--endpoint", help="remote scorer base URL")

    e = sub.add_parser("eval", help="evaluate a scores CSV against labels")
    e.add_argument("--scores", dest="scores_path", required=True)
    e.add_argument("--labels", dest="labels_path", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dataset", argument_default=unset)
    s.add_argument("--out", dest="out_dir", required=True, help="output directory")
    s.add_argument("--n-segments", type=int)
    s.add_argument("--dim", type=int)
    s.add_argument("--anomaly-fraction", type=float)
    s.add_argument("--shift", type=float)
    s.add_argument("--seed", type=int)
    s.add_argument("--frames-per-segment", type=int)
    s.add_argument("--with-audio", action="store_true")
    return parser


def _cmd_validate(**paths) -> int:
    dataset, labels = load_dataset(RunManifest(**paths, out_dir=Path(".")))
    print(
        f"OK: {dataset.n_segments} segments, {dataset.n_frames} frames, "
        f"modalities: {['audio', 'text', 'visual'] if dataset.has_audio else ['text', 'visual']}"
        + (f", {int(labels.sum())} positive frames" if labels is not None else "")
    )
    return EXIT_OK


def _cmd_run(config=None, seed=None, **options) -> int:
    require_files(("config", config))
    config = read_config(config) if config else PipelineConfig()
    if seed is not None:
        config = replace(config, seed=seed)
    result = run_pipeline(RunManifest(**options, config=config))
    print(f"wrote {result.out_dir}/scores.csv, loss_history.csv, report.json")
    if result.eval_report is not None:
        if not result.eval_report.defined:
            print(f"metrics undefined: {result.eval_report.undefined_reason}")
            return EXIT_UNDEFINED_METRICS
        print(
            f"AUC-ROC {result.eval_report.auc_roc:.4f}  "
            f"AP {result.eval_report.average_precision:.4f}"
        )
    return EXIT_OK


def _cmd_eval(**paths) -> int:
    report = eval_only(**paths)
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.defined else EXIT_UNDEFINED_METRICS


def _cmd_synth(**options) -> int:
    result = gen_synthetic(**options)
    oracle = "undefined" if result.oracle_auc is None else f"{result.oracle_auc:.4f}"
    print(
        f"wrote {result.n_segments} segments ({result.n_anomalous} anomalous) "
        f"to {result.out_dir}; generator oracle AUC {oracle}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    handler = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "eval": _cmd_eval,
        "synth": _cmd_synth,
    }[args.pop("verb")]
    try:
        return handler(**args)
    except ValidationError as exc:
        for issue in exc.issues:
            print(f"validation error: {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
