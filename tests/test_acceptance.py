"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`).

Criteria are property- and oracle-based: closed-form identities, brute-force
cross-checks, empirical descent, end-to-end separability on synthetic data,
determinism, ablation executability, and wire-protocol conformance.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hypervad.captions import clean_caption_indices
from hypervad.core import Modality, PipelineConfig
from hypervad.evaluate import auc_roc, average_precision
from hypervad.fusion import fuse_sequence, prepare_tangent
from hypervad.hyperbolic import (
    distance,
    exp_map,
    exp_map_origin,
    log_map_origin,
    mobius_add,
    weighted_geodesic_mean,
)
from hypervad.pipeline import RunManifest, load_dataset, run_pipeline
from hypervad.prompt_opt import StubScorer, optimize_prompt
from hypervad.refine import fit_visual_stats, mahalanobis, refine_scores
from hypervad.remote import LoopbackScorerServer, RemoteScorer
from hypervad.synth import gen_synthetic

from conftest import make_matrix
from oracles import (
    analytic_total_gradient,
    ap_sweep_oracle,
    auc_pairwise_oracle,
    cosine_argmax_oracle,
    finite_difference_total_gradient,
    inverse_2x2,
    karcher_objective,
    knn_refine_oracle,
    mobius_neg,
)
from test_prompt_opt import make_summaries


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def shift6_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_shift6")
    result = gen_synthetic(
        out, n_segments=400, dim=16, anomaly_fraction=0.1, shift=6.0, seed=0,
        frames_per_segment=16, with_audio=True,
    )
    return result


def manifest_for(result, out_dir, **kw):
    defaults = dict(
        visual_path=result.paths["visual"],
        text_path=result.paths["text"],
        captions_path=result.paths["captions"],
        audio_path=result.paths.get("audio"),
        labels_path=result.paths["labels"],
        out_dir=out_dir,
        config=PipelineConfig(seed=0, window=1),
    )
    defaults.update(kw)
    return RunManifest(**defaults)


def test_criterion_1_hyperbolic_identities():
    with criterion(1, "hyperbolic identity suite"):
        start = time.time()
        rng = np.random.default_rng(101)

        # exp/log roundtrip at norms up to 5 and dims up to 512
        for dim in (1, 2, 16, 128, 512):
            for _ in range(20):
                c = float(rng.uniform(0.25, 2.0))
                v = rng.normal(size=dim)
                v = v / np.linalg.norm(v) * rng.uniform(1e-6, 5.0) / math.sqrt(c)
                back = log_map_origin(exp_map_origin(v, c), c)
                assert np.max(np.abs(back - v)) <= 1e-9

        # Mobius identities
        zero = np.zeros(4)
        for _ in range(200):
            x = rng.uniform(-0.4, 0.4, size=4)
            y = rng.uniform(-0.4, 0.4, size=4)
            assert np.max(np.abs(mobius_add(x, zero, 1.0) - x)) <= 1e-12
            assert np.max(np.abs(mobius_add(zero, y, 1.0) - y)) <= 1e-12
            assert np.max(np.abs(mobius_add(mobius_neg(x), x, 1.0))) <= 1e-12

        # triangle inequality on 1e4 random triples
        c = 1.0
        for _ in range(10_000):
            pts = []
            for _ in range(3):
                u = rng.normal(size=3)
                u = u / np.linalg.norm(u) * rng.uniform(0.0, 0.95)
                pts.append(u)
            x, y, z = pts
            assert distance(x, z, c) <= distance(x, y, c) + distance(y, z, c) + 1e-9

        # flat limit: d -> 2 * euclidean as c -> 0
        c = 1e-8
        for _ in range(200):
            a = rng.normal(size=5)
            a = a / np.linalg.norm(a) * rng.uniform(0.005, 0.1)
            b = rng.normal(size=5)
            b = b / np.linalg.norm(b) * rng.uniform(0.005, 0.1)
            d = distance(a, b, c)
            assert abs(d - 2 * np.linalg.norm(a - b)) / (2 * np.linalg.norm(a - b)) < 1e-4

        elapsed = time.time() - start
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_2_karcher_mean_suite():
    with criterion(2, "Karcher mean suite"):
        rng = np.random.default_rng(202)
        tol = 1e-10

        x = rng.uniform(-0.5, 0.5, size=6)
        single = weighted_geodesic_mean([x], [2.0], 1.0)
        assert single.converged and np.array_equal(single.point, x)
        same = weighted_geodesic_mean([x, x, x], [0.4, 0.1, 0.5], 1.0)
        assert same.converged
        assert np.max(np.abs(same.point - x)) <= tol

        for _ in range(20):
            p = rng.uniform(-0.6, 0.6, size=4)
            pair = weighted_geodesic_mean([p, mobius_neg(p)], [0.5, 0.5], 1.0)
            assert pair.converged
            assert np.max(np.abs(pair.point)) <= 1e-9

        # local-minimum perturbation on 100 random instances, d <= 64, n <= 16
        for i in range(100):
            d = int(rng.integers(2, 65))
            n = int(rng.integers(2, 17))
            pts = []
            for _ in range(n):
                u = rng.normal(size=d)
                u = u / np.linalg.norm(u) * rng.uniform(0.0, 0.9)
                pts.append(u)
            w = rng.uniform(0.05, 1.0, size=n)
            res = weighted_geodesic_mean(pts, w, 1.0)
            assert res.converged, f"instance {i} did not converge"
            base = karcher_objective(res.point, pts, w, 1.0)
            for _ in range(3):
                noise = rng.normal(size=d)
                noise = noise / np.linalg.norm(noise) * (10 * tol)
                moved = exp_map(res.point, noise, 1.0)
                assert karcher_objective(moved, pts, w, 1.0) >= base - 1e-9

        # flat limit equals Euclidean weighted mean
        c = 1e-8
        for _ in range(20):
            pts = rng.uniform(-0.3, 0.3, size=(5, 4))
            w = rng.uniform(0.1, 1.0, size=5)
            res = weighted_geodesic_mean(pts, w, c)
            euclid = (w / w.sum()) @ pts
            assert np.max(np.abs(res.point - euclid)) < 1e-5


def test_criterion_3_gradient_correctness():
    with criterion(3, "prompt gradient analytic vs finite differences"):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            prompt_dim = int(rng.integers(2, 129))
            emb_dim = int(rng.integers(2, 17))
            n = int(rng.integers(1, 33))
            scorer = StubScorer(prompt_dim, emb_dim, seed=seed)
            q = rng.normal(size=prompt_dim)
            embs = rng.normal(size=(n, emb_dim))
            mu = float(rng.uniform(0.0, n))
            lam = float(rng.uniform(0.0, 3.0))
            a = analytic_total_gradient(q, embs, scorer, mu, lam)
            f = finite_difference_total_gradient(q, embs, scorer, mu, lam, step=1e-6)
            worst = max(worst, float(np.max(np.abs(a - f))))
        print(f"  [criterion 3] worst component error {worst:.3e}")
        assert worst < 1e-5


def test_criterion_4_loss_descent():
    with criterion(4, "empirical loss descent at defaults"):
        monotone_fractions = []
        for seed in range(50):
            rng = np.random.default_rng(4000 + seed)
            n = int(rng.integers(4, 24))
            embs = rng.normal(size=(n, 8))
            scorer = StubScorer(16, 8, seed=seed)
            state, _ = optimize_prompt(
                np.zeros(16),
                make_summaries(embs),
                scorer,
                PipelineConfig(learning_rate=0.05, opt_iters=50, sparsity_weight=1.0),
            )
            assert state.loss_history[-1] <= state.loss_history[0] + 1e-12, f"seed {seed}"
            monotone_fractions.append(state.monotone_fraction)
        frac_instances = float(np.mean([f >= 0.9 for f in monotone_fractions]))
        # diagnostic, reported not asserted beyond the final-vs-initial bound
        print(
            f"  [criterion 4] monotone in >=90% of steps on {frac_instances:.0%} of instances "
            f"(median step-monotonicity {np.median(monotone_fractions):.2f})"
        )


def test_criterion_5_caption_cleaning_oracle():
    with criterion(5, "caption cleaning matches brute-force argmax"):
        for seed in range(200):
            rng = np.random.default_rng(5000 + seed)
            n = int(rng.integers(1, 257))
            dim = int(rng.integers(1, 9))
            frames = rng.normal(size=(n, dim))
            captions = rng.normal(size=(n, dim))
            if n >= 3:
                captions[2] = captions[0]  # engineered exact tie
            if seed % 10 == 0 and n >= 2:
                captions[1] = 0.0  # zero-norm row
                frames[0] = 0.0
            idx, _ = clean_caption_indices(
                make_matrix(frames, Modality.VISUAL), make_matrix(captions, Modality.TEXT)
            )
            oracle = cosine_argmax_oracle(frames, captions)
            assert np.array_equal(idx, oracle), f"seed {seed}"


def test_criterion_6_mahalanobis_and_refinement_oracles():
    with criterion(6, "Mahalanobis and refinement oracles"):
        rng = np.random.default_rng(606)

        # 2x2 closed-form inverse agreement
        rows = rng.normal(size=(12, 2)) @ np.array([[2.0, 0.3], [0.3, 0.5]])
        stats = fit_visual_stats(make_matrix(rows), shrinkage=0.0)
        centered = rows - rows.mean(axis=0)
        cov = centered.T @ centered / (rows.shape[0] - 1)
        assert np.max(np.abs(stats.precision - inverse_2x2(cov))) <= 1e-12

        # identity precision reduces to the Euclidean norm exactly
        from hypervad.refine import VisualStats

        eye_stats = VisualStats(np.zeros(5), np.eye(5))
        for _ in range(50):
            x = rng.normal(size=5)
            assert mahalanobis(x, eye_stats) == np.linalg.norm(x)

        # refinement equals the brute-force KNN oracle, K=1 identity,
        # convex range bound
        for trial in range(30):
            n = int(rng.integers(2, 257))
            k = int(rng.integers(1, min(n, 12) + 1))
            scores = rng.uniform(size=n)
            text_rows = rng.normal(size=(n, 4))
            if trial % 3 == 0:
                text_rows[1] = text_rows[0]  # duplicate rows force distance ties
            vis = rng.normal(size=(max(n, 5), 4))
            stats = fit_visual_stats(make_matrix(vis), shrinkage=0.1)
            text = make_matrix(text_rows, Modality.TEXT)

            out = refine_scores(scores, text, stats, k)
            oracle = knn_refine_oracle(scores, text_rows, stats.mean, stats.precision, k)
            assert np.array_equal(out, oracle), f"trial {trial}"

            assert np.array_equal(refine_scores(scores, text, stats, 1), scores)

            from hypervad.refine import neighbor_sets

            sets = neighbor_sets(text, k)
            for t in range(n):
                group = scores[sets[t]]
                assert group.min() - 1e-12 <= out[t] <= group.max() + 1e-12


def test_criterion_7_metric_oracles():
    with criterion(7, "AUC and AP metric oracles"):
        rng = np.random.default_rng(707)
        for n in (10, 50, 200, 500):
            for tie_heavy in (False, True):
                scores = (
                    rng.choice(np.linspace(0.1, 0.9, 5), size=n)
                    if tie_heavy
                    else rng.uniform(size=n)
                )
                labels = rng.integers(0, 2, size=n)
                labels[0], labels[1] = 0, 1
                assert auc_roc(scores, labels) == auc_pairwise_oracle(scores, labels)
                assert abs(average_precision(scores, labels) - ap_sweep_oracle(scores, labels)) <= 1e-12

        # monotone-transform invariance on 100 instances
        for _ in range(100):
            n = int(rng.integers(5, 80))
            scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1
            base = auc_roc(scores, labels)
            assert auc_roc(np.log(scores + 1.0) * 4, labels) == pytest.approx(base, abs=1e-12)
            assert auc_roc(np.expm1(scores), labels) == pytest.approx(base, abs=1e-12)


def test_criterion_8_end_to_end_separability(shift6_dataset, tmp_path):
    with criterion(8, "end-to-end synthetic separability"):
        start = time.time()

        # generator's own oracle is the upper-bound sanity check
        assert shift6_dataset.oracle_auc >= 0.99

        result = run_pipeline(manifest_for(shift6_dataset, tmp_path / "full"))
        auc = result.eval_report.auc_roc
        print(f"  [criterion 8] full pipeline AUC {auc:.4f}, generator oracle {shift6_dataset.oracle_auc:.4f}")
        assert auc >= 0.90

        # shift = 0: classes indistinguishable across 20 seeds
        zero_aucs = []
        for seed in range(20):
            data = gen_synthetic(
                tmp_path / f"zero{seed}", n_segments=400, dim=16,
                anomaly_fraction=0.1, shift=0.0, seed=seed, frames_per_segment=4,
            )
            res = run_pipeline(
                manifest_for(
                    data, tmp_path / f"zrun{seed}",
                    config=PipelineConfig(seed=seed, window=1),
                )
            )
            zero_aucs.append(res.eval_report.auc_roc)
        lo, hi, mean = min(zero_aucs), max(zero_aucs), float(np.mean(zero_aucs))
        print(f"  [criterion 8] shift=0 AUC over 20 seeds: min {lo:.3f} max {hi:.3f} mean {mean:.3f}")
        for seed, value in enumerate(zero_aucs):
            assert 0.4 <= value <= 0.6, f"seed {seed}: AUC {value:.3f} outside 0.5 +/- 0.1"

        elapsed = time.time() - start
        print(f"  [criterion 8] runtime {elapsed:.1f}s")
        assert elapsed < 60.0


def test_criterion_9_modality_agnostic(shift6_dataset, tmp_path):
    with criterion(9, "modality-agnostic unimodal fallback"):
        mono_manifest = manifest_for(shift6_dataset, tmp_path / "mono", audio_path=None)
        result = run_pipeline(mono_manifest)  # must complete without error
        assert result.report["dataset"]["has_audio"] is False

        dataset, _ = load_dataset(mono_manifest)
        config = mono_manifest.config
        fused = fuse_sequence(dataset, config)
        text = dataset.text
        for t, point in enumerate(fused):
            expected = exp_map_origin(prepare_tangent(text[t]), config.curvature)
            assert np.array_equal(point, expected), f"segment {t}"


def test_criterion_10_determinism(shift6_dataset, tmp_path):
    with criterion(10, "byte-identical reruns"):
        run_pipeline(manifest_for(shift6_dataset, tmp_path / "one"))
        run_pipeline(manifest_for(shift6_dataset, tmp_path / "two"))
        for name in ("scores.csv", "loss_history.csv", "report.json"):
            a = (tmp_path / "one" / name).read_bytes()
            b = (tmp_path / "two" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def test_criterion_11_ablation_grid(shift6_dataset, tmp_path):
    with criterion(11, "ablation grid executability"):
        # component grid: (audio, cleaning, fusion, optimizer), refinement on
        grid = [
            (True, False, "euclidean", False),
            (True, True, "euclidean", False),
            (True, False, "hyperbolic", False),
            (False, False, "hyperbolic", True),
            (False, True, "hyperbolic", False),
            (True, True, "hyperbolic", False),
            (True, True, "hyperbolic", True),
        ]
        small = gen_synthetic(
            tmp_path / "grid_data", n_segments=80, dim=8, anomaly_fraction=0.1,
            shift=6.0, seed=3, frames_per_segment=4, with_audio=True,
        )
        for i, (audio, cleaning, fusion_mode, optimizer) in enumerate(grid):
            m = manifest_for(
                small, tmp_path / f"grid{i}",
                audio_path=small.paths["audio"] if audio else None,
                cleaning=cleaning, fusion_mode=fusion_mode, optimizer=optimizer,
                config=PipelineConfig(seed=3, window=2),
            )
            result = run_pipeline(m)
            active = set(result.report["active_components"])
            assert ("audio_captions" in active) == audio
            assert ("caption_cleaning" in active) == cleaning
            assert ("hyperbolic_fusion" in active) == (fusion_mode == "hyperbolic")
            assert ("euclidean_fusion" in active) == (fusion_mode == "euclidean")
            assert ("prompt_optimizer" in active) == optimizer
            assert "mahalanobis_refinement" in active
            assert result.report["toggles"]["fusion"] == fusion_mode

        # regression guard on the shift=6 instance: optimizer must not cost
        # more than 0.02 AUC against the optimizer-off ablation
        on = run_pipeline(manifest_for(shift6_dataset, tmp_path / "opt_on"))
        off = run_pipeline(manifest_for(shift6_dataset, tmp_path / "opt_off", optimizer=False))
        print(
            f"  [criterion 11] AUC optimizer on {on.eval_report.auc_roc:.4f} "
            f"vs off {off.eval_report.auc_roc:.4f}"
        )
        assert on.eval_report.auc_roc >= off.eval_report.auc_roc - 0.02


def test_criterion_12_remote_scorer_conformance():
    with criterion(12, "remote scorer wire-protocol conformance"):
        rng = np.random.default_rng(1212)
        stub = StubScorer(12, 6, seed=99)
        with LoopbackScorerServer(stub) as server, RemoteScorer(server.endpoint) as remote:
            worst_score, worst_grad = 0.0, 0.0
            for _ in range(25):
                q = rng.normal(size=12)
                s = rng.normal(size=6)
                worst_score = max(worst_score, abs(remote.score(q, s, text="x") - stub.score(q, s)))
            for _ in range(5):
                q = rng.normal(size=12)
                s = rng.normal(size=6)
                worst_grad = max(
                    worst_grad, float(np.max(np.abs(remote.grad_q(q, s) - stub.grad_q(q, s))))
                )
        print(f"  [criterion 12] score dev {worst_score:.2e}, gradient dev {worst_grad:.2e}")
        assert worst_score < 1e-9
        assert worst_grad < 1e-4
