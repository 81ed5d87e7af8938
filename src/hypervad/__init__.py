"""Training-free anomaly scoring over precomputed video segment embeddings.

The pipeline cleans captions by semantic self-alignment, fuses modalities in
the Poincare ball, adapts a continuous prompt at test time against a
pluggable scorer, refines scores with Mahalanobis-weighted neighbor
aggregation, and evaluates frame-level AUC-ROC / AP.
"""

from .core import (
    Dataset,
    Modality,
    PipelineConfig,
    PipelineError,
    SegmentRecord,
    StageError,
    TransportError,
    ValidationError,
    validate_dataset,
)
from .evaluate import EvalReport, auc_roc, average_precision, expand_to_frames
from .hyperbolic import (
    KarcherResult,
    distance,
    exp_map_origin,
    log_map_origin,
    mobius_add,
    weighted_geodesic_mean,
)
from .pipeline import RunManifest, RunResult, eval_only, run_pipeline
from .prompt_opt import PromptState, Scorer, StubScorer, binary_entropy, total_loss
from .refine import VisualStats, fit_visual_stats, mahalanobis, refine_scores
from .remote import LoopbackScorerServer, RemoteScorer
from .synth import gen_synthetic

__version__ = "0.1.0"
