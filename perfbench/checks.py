"""Correctness checks run on the outputs of every repetition."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from pathlib import Path

from hypervad import dataio, pipeline


class Checks:
    """Collects failed checks and the scores.csv hash of every repetition."""

    def __init__(self):
        self.run = 0
        self.failures = []
        self.failed_runs = 0
        self.hashes = []

    @contextmanager
    def repetition(self):
        """Count the enclosed checks of one repetition as one failed run if any fails."""
        before = len(self.failures)
        yield
        self.failed_runs += len(self.failures) > before

    def expect(self, ok: bool, message: str) -> None:
        self.run += 1
        if not ok:
            self.failures.append(message)

    def outputs(self, out_dir: Path, labels_path: Path) -> str:
        """Check one run's written outputs; return the scores.csv sha256."""
        scores_path = Path(out_dir) / pipeline.SCORES_FILE
        digest = hashlib.sha256(scores_path.read_bytes()).hexdigest()
        if self.hashes:
            self.expect(digest == self.hashes[0],
                        f"scores.csv sha256 {digest} differs from the first repetition's {self.hashes[0]}")
        self.hashes.append(digest)

        scores = dataio.read_scores(scores_path)
        labels = dataio.read_labels(labels_path)
        self.expect(scores.size == labels.size,
                    f"{scores.size} frame scores for {labels.size} labels")
        self.expect(bool(((scores >= 0.0) & (scores <= 1.0)).all()),
                    f"scores outside [0, 1]: min {scores.min()}, max {scores.max()}")

        reported = dataio.read_report(Path(out_dir) / pipeline.REPORT_FILE)["metrics"]
        recomputed = pipeline.eval_only(scores_path, labels_path).as_dict()
        self.expect(reported == recomputed,
                    f"report.json metrics {reported} differ from eval_only {recomputed}")
        return digest

    def equal(self, what: str, got, want) -> None:
        self.expect(got == want, f"{what}: got {got}, expected {want}")

    def as_dict(self) -> dict:
        return {"run": self.run, "failed": len(self.failures), "failed_runs": self.failed_runs,
                "failures": self.failures}

