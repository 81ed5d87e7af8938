"""Training-free anomaly scoring over precomputed video segment embeddings.

The pipeline cleans captions by semantic self-alignment, fuses modalities in
the Poincare ball, adapts a continuous prompt at test time against a
pluggable scorer, refines scores with Mahalanobis-weighted neighbor
aggregation, and evaluates frame-level AUC-ROC / AP.
"""

__version__ = "0.1.0"
