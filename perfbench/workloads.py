"""The benchmark's workloads and the closed forms their outputs must match.

Every workload is one synthetic video generated from the benchmark seed:
dim 16, anomaly fraction 0.1, shift 6, 16 frames per segment. The same seed
goes to ``gen_synthetic`` and to ``PipelineConfig.seed``, so the stub scorer
and the generator share their readout direction.
"""

from __future__ import annotations

from dataclasses import dataclass

DIM = 16
ANOMALY_FRACTION = 0.1
SHIFT = 6.0
FRAMES_PER_SEGMENT = 16


@dataclass(frozen=True)
class Workload:
    name: str
    n_segments: int
    window: int
    audio: bool
    scorer: str  # "stub" in-process, or "remote" over loopback HTTP
    opt_iters: int
    prompt_dim: int = 32

    @property
    def n_windows(self) -> int:
        return -(-self.n_segments // self.window)

    @property
    def takes_karcher_means(self) -> bool:
        """Audio fusion and windows of several segments both take Karcher means."""
        return self.audio or self.window > 1

    @property
    def score_all_calls(self) -> int:
        """Scorer calls made through ``score_all``: every window, once before
        the first step and once after each step."""
        return self.n_windows * (self.opt_iters + 1)

    @property
    def remote_requests(self) -> int:
        """HTTP requests per video: one score per window per evaluation, plus
        2 * prompt_dim finite-difference probes per window per step."""
        return self.n_windows * (1 + self.opt_iters * (1 + 2 * self.prompt_dim))


# Sizes keep one run near 1 to 2 s on the reference machine, so that a
# measured run holds a dozen or more timed repetitions.
WORKLOADS = {
    w.name: w
    for w in (
        # Two-point Karcher fusion per segment plus 80 ten-point window
        # means: hyperbolic and fusion dominate.
        Workload("audio-window10", 800, window=10, audio=True, scorer="stub", opt_iters=50),
        # No Karcher call at all; 1500 windows make the per-window scorer
        # calls and the per-row refinement dominate.
        Workload("unimodal-window1", 1500, window=1, audio=False, scorer="stub", opt_iters=50),
        # The scorer behind loopback HTTP in its own process: 1400 requests
        # per video dominate.
        Workload("remote-loopback", 200, window=2, audio=False, scorer="remote", opt_iters=1,
                 prompt_dim=6),
    )
}
