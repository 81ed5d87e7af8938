"""Command-line interface.

Exit codes: 0 success, 1 validation error, 2 runtime error or usage error
(an option argparse rejects), 3 metrics undefined (single-class labels).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import PipelineConfig, PipelineError, ValidationError
from .dataio import integer, read_config, real
from .pipeline import RunManifest, eval_only, preflight, run_pipeline
from .synth import gen_synthetic

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_UNDEFINED_METRICS = 3


def _optional_path(text: str):
    """An empty path means the file is absent, as if the option were not given."""
    return Path(text) if text else None


def build_parser() -> argparse.ArgumentParser:
    """Each option's dest names the parameter it sets in the one API call its
    verb makes. An option left unset is absent from the parsed arguments, so
    the default of that parameter applies."""
    parser = argparse.ArgumentParser(prog="hypervad", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)
    unset = argparse.SUPPRESS

    for verb, summary in (("validate", "check run's inputs and options, then stop before its first stage"),
                          ("run", "run the scoring pipeline")):
        p = sub.add_parser(verb, help=summary, argument_default=unset)
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
        p.add_argument("--config", type=_optional_path, help="key=value config file")
        p.add_argument("--out", dest="out_dir", type=Path, required=verb == "run", help="output directory")
        p.add_argument("--seed", type=integer, help="override config seed")
        p.add_argument("--no-clean", dest="cleaning", action="store_false",
                       help="disable caption cleaning")
        p.add_argument("--no-optimize", dest="optimizer", action="store_false",
                       help="disable prompt optimization")
        p.add_argument("--no-refine", dest="refinement", action="store_false",
                       help="disable Mahalanobis refinement")
        p.add_argument("--fusion", dest="fusion_mode", choices=["hyperbolic", "euclidean"])
        p.add_argument("--scorer", choices=["stub", "remote"])
        p.add_argument("--endpoint", help="remote scorer base URL")

    e = sub.add_parser("eval", help="evaluate a scores CSV against labels")
    e.add_argument("--scores", dest="scores_path", required=True)
    e.add_argument("--labels", dest="labels_path", required=True)

    s = sub.add_parser("synth", help="generate a synthetic dataset", argument_default=unset)
    s.add_argument("--out", dest="out_dir", required=True, help="output directory")
    s.add_argument("--n-segments", type=integer)
    s.add_argument("--dim", type=integer)
    s.add_argument("--anomaly-fraction", type=real)
    s.add_argument("--shift", type=real)
    s.add_argument("--seed", type=integer)
    s.add_argument("--frames-per-segment", type=integer)
    s.add_argument("--with-audio", action="store_true")
    return parser


def _manifest(config=None, seed=None, **options) -> RunManifest:
    """The manifest of ``validate`` and ``run``: the config file's settings,
    with ``seed`` over them, and every other option by name. One
    ValidationError lists the issues of the config file and settings, then
    those of the other options."""
    overrides = {} if seed is None else {"seed": seed}
    issues = []
    try:
        config = read_config(config, **overrides) if config else PipelineConfig(**overrides)
    except ValidationError as exc:
        issues, config = exc.issues, PipelineConfig()
    try:
        manifest = RunManifest(**options, config=config)
    except ValidationError as exc:
        issues += exc.issues
    if issues:
        raise ValidationError(issues)
    return manifest


def _cmd_validate(**options) -> int:
    dataset, labels, _ = preflight(_manifest(**options))
    print(
        f"OK: {dataset.n_segments} segments, {dataset.n_frames} frames, "
        f"modalities: {['audio', 'text', 'visual'] if dataset.has_audio else ['text', 'visual']}"
        + (f", {int(labels.sum())} positive frames" if labels is not None else "")
    )
    return EXIT_OK


def _cmd_run(**options) -> int:
    manifest = _manifest(**options)
    result = run_pipeline(manifest)
    print(f"wrote {manifest.out_dir}/scores.csv, loss_history.csv, report.json")
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
    return exit_status(handler, **args)


def exit_status(action, *args, **kwargs) -> int:
    """Run ``action``; map what it raises to its stderr lines and exit code (1 validation, 2 runtime)."""
    try:
        return action(*args, **kwargs)
    except ValidationError as exc:
        for issue in exc.issues:
            print(f"validation error: {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PipelineError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
