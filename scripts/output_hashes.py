#!/usr/bin/env python3
"""Print the sha256 of every benchmark workload's outputs and of each
ablation row's scores, as one JSON object, so that two trees compare by diff:

  python3 scripts/output_hashes.py [--seeds 0 1] > hashes.json

With ``--parent REV`` it compares instead: REV's src, perfbench and scripts
are extracted by ``git archive`` into a temporary directory (the checkout
and its .git are left untouched), REV's own copy of this script hashes that
tree, and every hash that differs from this tree's is printed. The exit
status is 1 on any difference, 0 when all match, and 2 when REV's script
or git archive fails (its standard error is printed).

Each workload of perfbench/workloads.py is generated and run once per seed as
the benchmark runs it, and its scores.csv, loss_history.csv and report.json
are hashed; remote-loopback is scored by an in-process loopback server. The
six rows of perfbench/ablation.py follow. The package is imported from this
checkout's src/, so each tree hashes its own code.
"""

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from hypervad.core import PipelineConfig  # noqa: E402
from hypervad.dataio import integer  # noqa: E402
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


def tree_hashes(seeds) -> dict:
    hashes = {"workloads": {}, "ablation": {}}
    with tempfile.TemporaryDirectory(prefix="hypervad_hashes_") as tmp:
        work = Path(tmp)
        for name, wl in WORKLOADS.items():
            hashes["workloads"][name] = {
                f"seed {seed}": workload_hashes(wl, seed, work / f"{name}-s{seed}") for seed in seeds
            }
        for row in ablation_table(ROOT, work / "ablation"):
            hashes["ablation"][row["variant"]] = row["scores_sha256"]
    return hashes


def parent_hashes(rev: str, seeds) -> dict:
    """The hashes REV's own script prints for REV's tree."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "perfbench", "scripts"],
        capture_output=True,
    )
    if archive.returncode:
        _fail(archive.stderr.decode(errors="replace"), f"git archive {rev} exited {archive.returncode}")
    # extraction filters came with Python 3.10.12 and 3.11.4
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tempfile.TemporaryDirectory(prefix="hypervad_parent_") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, **safe)
        child = subprocess.run(
            [sys.executable, str(Path(tmp) / "scripts" / "output_hashes.py"), "--seeds", *map(str, seeds)],
            capture_output=True, text=True,
        )
    if child.returncode:
        _fail(child.stderr, f"{rev}'s output_hashes.py exited {child.returncode}")
    return json.loads(child.stdout)


def _fail(stderr: str, what: str):
    sys.stderr.write(f"{stderr}{what}\n")
    raise SystemExit(2)


def leaves(tree: dict, prefix=()):
    """(path, hash) for every hash in a nested hash object."""
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, prefix + (key,))
        else:
            yield "/".join(prefix + (key,)), value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=integer, nargs="+", default=[0, 1])
    parser.add_argument("--parent", metavar="REV", help="compare with the hashes of git revision REV")
    args = parser.parse_args()

    if args.parent is None:
        print(json.dumps(tree_hashes(args.seeds), indent=2))
        return 0
    theirs = dict(leaves(parent_hashes(args.parent, args.seeds)))
    ours = dict(leaves(tree_hashes(args.seeds)))
    differ = sorted(k for k in ours.keys() | theirs.keys() if ours.get(k) != theirs.get(k))
    for key in differ:
        print(f"differs: {key}: {args.parent} {theirs.get(key)}, this tree {ours.get(key)}")
    print(f"{len(ours) - len(differ)} of {len(ours)} hashes match {args.parent}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
