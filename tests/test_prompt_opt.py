import inspect
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypervad.captions import SummarySet
from hypervad.core import PipelineConfig, ValidationError
from hypervad.prompt_opt import (
    EPS_P,
    PromptState,
    StubScorer,
    binary_entropy,
    loss_score_gradient,
    optimize_prompt,
    resolve_target_mass,
    total_loss,
)

from oracles import (
    analytic_total_gradient,
    finite_difference_total_gradient,
    optimize_prompt_per_row,
    stub_score_matmul,
)


def make_summaries(embs: np.ndarray) -> SummarySet:
    n = embs.shape[0]
    return SummarySet(
        texts=tuple(f"summary {i}" for i in range(n)),
        embeddings=embs,
        segment_to_window=np.arange(n),
    )


class TestBinaryEntropy:
    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_endpoints_zero_by_continuity(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        # oracle: -0.9 ln 0.9 - 0.1 ln 0.1 evaluated independently
        expected = -0.9 * math.log(0.9) - 0.1 * math.log(0.1)
        assert binary_entropy(0.9) == pytest.approx(expected, abs=1e-15)
        assert binary_entropy(0.9) == pytest.approx(0.325083, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.2)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_bounds(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= math.log(2) + 1e-15


class TestTotalLoss:
    def test_confident_on_target_is_zero(self):
        assert total_loss([0.0, 0.0, 1.0], target_mass=1.0, sparsity_weight=5.0) == 0.0

    def test_hand_evaluated_example(self):
        # both terms by hand: 2 ln2 entropy, |1 - 0| * 2 sparsity
        loss = total_loss([0.5, 0.5], target_mass=0.0, sparsity_weight=2.0)
        assert loss == pytest.approx(2 * math.log(2) + 2.0, abs=1e-12)
        assert loss == pytest.approx(3.386294, abs=1e-6)

    def test_degenerate_sparsity(self):
        assert total_loss([1.0, 1.0], target_mass=0.0, sparsity_weight=0.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            total_loss([1.2], 0.0, 1.0)


class TestStubScorer:
    def test_same_seed_bit_identical(self, rng):
        q = rng.normal(size=8)
        s = rng.normal(size=5)
        a = StubScorer(8, 5, seed=123)
        b = StubScorer(8, 5, seed=123)
        assert a.score(q, s) == b.score(q, s)
        assert np.array_equal(a.grad_q(q, s), b.grad_q(q, s))

    def test_zero_logit_scores_half(self, rng):
        s = rng.normal(size=4)
        scorer = StubScorer(6, 4, seed=0)
        scorer.b = -float(scorer.u @ s)
        assert scorer.score(np.zeros(6), s) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("logit, want", [(1000.0, 1.0), (-1000.0, 0.0)])
    def test_saturated_logit_scores_exactly(self, rng, logit, want):
        # math.exp(1000) overflows: each sign must take the branch that does not
        s = rng.normal(size=4)
        scorer = StubScorer(6, 4, seed=0)
        scorer.b = logit - float(scorer.u @ s)
        got = scorer.score(np.zeros(6), s)
        assert type(got) is float and got == want

    def test_analytic_grad_matches_finite_difference(self, rng):
        h = 1e-6
        for seed in range(20):
            scorer = StubScorer(7, 4, seed=seed)
            q = rng.normal(size=7)
            s = rng.normal(size=4)
            analytic = scorer.grad_q(q, s)
            numeric = np.zeros(7)
            for i in range(7):
                e = np.zeros(7)
                e[i] = h
                numeric[i] = (scorer.score(q + e, s) - scorer.score(q - e, s)) / (2 * h)
            assert np.max(np.abs(analytic - numeric)) < 1e-6

    def test_score_in_unit_interval(self, rng):
        scorer = StubScorer(4, 4, seed=1)
        for _ in range(50):
            v = scorer.score(rng.normal(size=4) * 10, rng.normal(size=4) * 10)
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("trial", range(12))
    def test_equals_matmul_form_bit_for_bit(self, trial):
        # dims drawn from 1 to 128, corners first; odd rows sit 60 along +u
        # or -u, so |logit| > 40 and the score is 1.0 or about 1e-26
        rng = np.random.default_rng([trial, 0xD07])
        corners = [(1, 1), (1, 128), (128, 1), (128, 128)]
        prompt_dim, emb_dim = corners[trial] if trial < 4 else rng.integers(1, 129, size=2)
        scorer = StubScorer(int(prompt_dim), int(emb_dim), seed=trial)
        q = rng.normal(size=prompt_dim)
        embs = rng.normal(size=(40, emb_dim))
        embs[1::2] += np.where(np.arange(20) % 2, -60.0, 60.0)[:, None] * scorer.u
        logits = embs @ scorer.u + scorer.w @ q + scorer.b
        assert np.min(np.abs(logits[1::2])) > 40
        got = np.array([scorer.score(q, e) for e in embs])
        want = np.array([stub_score_matmul(scorer, q, e) for e in embs])
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", [
        lambda wide: wide[:, :3].copy(),
        lambda wide: np.asfortranarray(wide[:, :3]),
        lambda wide: wide[:, 2:5],
        lambda wide: wide[:0, :3].copy(),
    ], ids=["c", "fortran", "column_slice", "empty"])
    def test_score_batch_is_the_one_row_view(self, layout):
        rng = np.random.default_rng(0xBA7)
        scorer = StubScorer(5, 3, seed=7)
        q = rng.normal(size=5)
        embs = layout(rng.normal(size=(60, 7)) * 3.0)
        texts = tuple(f"summary {t}" for t in range(len(embs)))
        got = scorer.score_batch(q, embs, texts)
        want = np.array([scorer.score(q, embs[t], texts[t]) for t in range(len(embs))], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (len(embs),)
        assert got.tobytes() == want.tobytes()

    def test_score_batch_rejects_short_texts(self, rng):
        scorer = StubScorer(5, 3, seed=7)
        embs = rng.normal(size=(4, 3))
        with pytest.raises(ValueError, match="too short"):
            scorer.score_batch(rng.normal(size=5), embs, ("a", "b", "c"))


def per_row_scores(scorer, q, embs, texts) -> np.ndarray:
    """Each row by the three-argument ``score``, which computes w . q itself."""
    return np.array([scorer.score(q, embs[t], texts[t]) for t in range(len(embs))], dtype=np.float64)


class TestScoreBatchPromptTerm:
    """``score_batch`` computes w . q once and hands it to every row's
    ``score``; the bytes must be those of rows that each compute it."""

    @pytest.mark.parametrize("n, emb_dim, prompt_dim", [(1500, 16, 32), (80, 16, 32), (100, 16, 6)],
                             ids=["unimodal-window1", "audio-window10", "remote-loopback"])
    def test_workload_shapes_match_per_row_bytes(self, n, emb_dim, prompt_dim):
        for seed in range(3):
            rng = np.random.default_rng([seed, n, prompt_dim])
            scorer = StubScorer(prompt_dim, emb_dim, seed=seed)
            q = rng.normal(size=prompt_dim)
            embs = rng.normal(size=(n, emb_dim)) * 3.0
            texts = tuple(f"summary {t}" for t in range(n))
            got = scorer.score_batch(q, embs, texts)
            want = per_row_scores(scorer, q, embs, texts)
            assert got.dtype == np.float64 and got.shape == (n,)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 41])
    def test_saturated_logits_match_per_row_bytes(self, n):
        # rows sit 60 along u, alternating in sign from +: |logit| > 40
        rng = np.random.default_rng([0x5A7, n])
        scorer = StubScorer(6, 4, seed=3)
        q = rng.normal(size=6)
        embs = np.where(np.arange(n) % 2, -60.0, 60.0)[:, None] * scorer.u
        embs += rng.normal(size=(n, 4)) * 0.1
        logits = embs @ scorer.u + scorer.w @ q + scorer.b
        assert n == 0 or np.min(np.abs(logits)) > 40
        assert (logits > 0).sum() == (n + 1) // 2 and (logits < 0).sum() == n // 2
        texts = tuple(f"summary {t}" for t in range(n))
        got = scorer.score_batch(q, embs, texts)
        want = per_row_scores(scorer, q, embs, texts)
        assert got.shape == (n,) and got.tobytes() == want.tobytes()

    def test_given_prompt_term_scores_as_computed_one(self, rng):
        for seed in range(20):
            scorer = StubScorer(7, 5, seed=seed)
            q, e = rng.normal(size=7), rng.normal(size=5) * 3.0
            given = scorer.score(q, e, "t", float(scorer.w.dot(q)))
            assert type(given) is float and given == scorer.score(q, e, "t")

    @pytest.mark.parametrize("n", [0, 1, 300])
    def test_one_prompt_dot_per_batch(self, rng, n):
        dots = []

        class CountedDots(np.ndarray):
            def dot(self, *args, **kwargs):
                dots.append(1)
                return np.asarray(self).dot(*args, **kwargs)

        scorer = StubScorer(5, 3, seed=2)
        want_w = scorer.w.copy()
        scorer.w = scorer.w.view(CountedDots)
        q, embs = rng.normal(size=5), rng.normal(size=(n, 3))
        texts = ("",) * n
        got = scorer.score_batch(q, embs, texts)
        assert len(dots) == 1
        scorer.w = want_w
        assert got.tobytes() == per_row_scores(scorer, q, embs, texts).tobytes()

    @pytest.mark.parametrize("n", [0, 3])
    def test_prompt_of_another_shape_raises_even_without_rows(self, rng, n):
        scorer = StubScorer(5, 3, seed=2)
        with pytest.raises(ValueError, match="not aligned"):
            scorer.score_batch(rng.normal(size=4), rng.normal(size=(n, 3)), ("",) * n)


class CountingScorer(StubScorer):
    """The stub, counting the calls it receives by name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = Counter()

    def score(self, q, emb, text="", wq=None):
        self.calls["score"] += 1
        return super().score(q, emb, text, wq)

    def grad_q(self, q, emb, text=""):
        self.calls["grad_q"] += 1
        return super().grad_q(q, emb, text)

    def grad_sum(self, q, embs, texts, coeff, scores):
        self.calls["grad_sum"] += 1
        return super().grad_sum(q, embs, texts, coeff, scores)


class TestGradSum:
    @pytest.mark.parametrize("prompt_dim, n, saturated", [
        (1, 1, False), (1, 50, False), (1, 50, True), (6, 1, True),
        (2, 1, True), (2, 8001, True), (16, 200, False), (16, 200, True), (32, 1500, False),
    ])
    def test_equals_per_row_sum_bit_for_bit(self, prompt_dim, n, saturated):
        # saturated rows sit 60 along u, alternating in sign from +: scores
        # of exactly 1.0, whose gradient row is all zeros, some of them -0.0,
        # and of about 1e-26
        emb_dim = 4
        for seed in range(10):
            rng = np.random.default_rng([seed, prompt_dim, n])
            scorer = StubScorer(prompt_dim, emb_dim, seed=seed)
            q = rng.normal(size=prompt_dim)
            if saturated:
                embs = np.where(np.arange(n) % 2, -60.0, 60.0)[:, None] * scorer.u
                embs += rng.normal(size=(n, emb_dim)) * 0.1
                assert np.min(np.abs(embs @ scorer.u + scorer.w @ q + scorer.b)) > 40
            else:
                embs = rng.normal(size=(n, emb_dim)) * 3.0
            mu, lam = float(rng.uniform(0, n)), float(rng.uniform(0, 1))
            scores = np.array([scorer.score(q, e) for e in embs])
            coeff = loss_score_gradient(scores, mu, lam)
            assert n == 1 or coeff.min() < 0 < coeff.max()
            texts = tuple(f"summary {t}" for t in range(n))
            got = scorer.grad_sum(q, embs, texts, coeff, scores)
            want = analytic_total_gradient(q, embs, scorer, mu, lam)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # the sign of a zero too

    def test_grad_q_is_the_one_row_sum(self, rng):
        scorer = StubScorer(5, 3, seed=4)
        for _ in range(20):
            q, e = rng.normal(size=5), rng.normal(size=3)
            one_row = scorer.grad_sum(q, e[None, :], ("",), np.ones(1), np.array([scorer.score(q, e)]))
            assert np.array_equal(scorer.grad_q(q, e), one_row)


class TestOptimizePrompt:
    def test_zero_iterations_is_identity(self, rng):
        embs = rng.normal(size=(5, 4))
        scorer = StubScorer(6, 4, seed=2)
        q0 = rng.normal(size=6)
        state, scores = optimize_prompt(q0, make_summaries(embs), scorer, PipelineConfig(opt_iters=0))
        assert np.array_equal(state.q, q0)
        assert state.iteration == 0
        assert len(state.loss_history) == 1
        expected = [scorer.score(q0, e) for e in embs]
        assert np.allclose(scores, expected, atol=0)

    def test_loss_history_includes_initial(self, rng):
        embs = rng.normal(size=(4, 3))
        scorer = StubScorer(5, 3, seed=3)
        state, _ = optimize_prompt(np.zeros(5), make_summaries(embs), scorer, PipelineConfig(opt_iters=12))
        assert state.iteration == 12
        assert len(state.loss_history) == 13

    def test_final_loss_not_above_initial_on_seeded_instances(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            embs = rng.normal(size=(8, 6))
            scorer = StubScorer(8, 6, seed=seed)
            state, _ = optimize_prompt(np.zeros(8), make_summaries(embs), scorer, PipelineConfig(opt_iters=50))
            assert state.loss_history[-1] <= state.loss_history[0] + 1e-12

    def test_stationary_saddle_at_half(self, rng):
        # entropy gradient is exactly zero at p = 0.5, so with no sparsity
        # pull the score must stay there; this is the expected behavior
        s = rng.normal(size=4)
        scorer = StubScorer(6, 4, seed=4)
        scorer.b = -float(scorer.u @ s)
        assert np.any(scorer.w != 0)
        state, scores = optimize_prompt(
            np.zeros(6),
            make_summaries(s[None, :]),
            scorer,
            PipelineConfig(opt_iters=5, target_mass=0.5, sparsity_weight=0.0),
        )
        assert abs(scores[0] - 0.5) < 1e-12
        assert np.max(np.abs(state.q)) < 1e-12

    def test_sparsity_pull_moves_mass_toward_target(self, rng):
        # entropy-flat start: all scores exactly 0.5, so only the sparsity
        # term acts; mass must move toward the target from either side
        n, pdim, edim = 6, 5, 4
        embs = np.zeros((n, edim))
        for target, expect_sign in ((0.0, -1.0), (float(n), +1.0)):
            scorer = StubScorer(pdim, edim, seed=5)
            scorer.b = 0.0
            before = np.full(n, 0.5).sum()
            state, scores = optimize_prompt(
                np.zeros(pdim),
                make_summaries(embs),
                scorer,
                PipelineConfig(learning_rate=0.01, opt_iters=1, target_mass=target, sparsity_weight=100.0),
            )
            delta = scores.sum() - before
            assert math.copysign(1.0, delta) == expect_sign

    def test_determinism(self, rng):
        embs = rng.normal(size=(6, 4))
        runs = []
        for _ in range(2):
            scorer = StubScorer(5, 4, seed=11)
            runs.append(
                optimize_prompt(np.zeros(5), make_summaries(embs), scorer, PipelineConfig(opt_iters=20))
            )
        (s1, a1), (s2, a2) = runs
        assert np.array_equal(s1.q, s2.q)
        assert s1.loss_history == s2.loss_history
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("prompt_dim", [1, 3, 32])
    def test_matches_per_row_optimizer_bit_for_bit(self, prompt_dim):
        emb_dim = 4
        for seed in range(6):
            rng = np.random.default_rng([seed, prompt_dim])
            n = int(rng.integers(1, 80))
            summaries = make_summaries(rng.normal(size=(n, emb_dim)) * 3.0)
            config = PipelineConfig(opt_iters=25, sparsity_weight=float(rng.uniform(0, 3)))
            q0 = rng.normal(size=prompt_dim)
            state, scores = optimize_prompt(q0, summaries, StubScorer(prompt_dim, emb_dim, seed=seed), config)
            want_state, want = optimize_prompt_per_row(
                q0, summaries, StubScorer(prompt_dim, emb_dim, seed=seed), config)
            assert not np.array_equal(state.q, q0)
            assert np.array_equal(state.q, want_state.q) and state.q.tobytes() == want_state.q.tobytes()
            assert state.loss_history == want_state.loss_history
            assert np.array_equal(scores, want)

    def test_one_gradient_call_per_step(self, rng):
        n, opt_iters = 7, 4
        scorer = CountingScorer(3, 2, seed=6)
        optimize_prompt(np.zeros(3), make_summaries(rng.normal(size=(n, 2))), scorer,
                        PipelineConfig(opt_iters=opt_iters))
        assert scorer.calls == Counter(score=n * (opt_iters + 1), grad_sum=opt_iters)
        assert scorer.calls["grad_q"] == 0

    def test_non_finite_gradient_aborts_with_iteration(self, rng):
        class BrokenScorer:
            def score_batch(self, q, embs, texts):
                return np.full(embs.shape[0], 0.4)

            def grad_sum(self, q, embs, texts, coeff, scores):
                return np.full(q.shape, np.nan)

        with pytest.raises(ValueError, match="iteration 0"):
            optimize_prompt(
                np.zeros(3),
                make_summaries(rng.normal(size=(2, 4))),
                BrokenScorer(),
                PipelineConfig(opt_iters=3),
            )

    @pytest.mark.parametrize("value", [1.5, -0.25, math.nan])
    def test_score_outside_unit_interval_aborts(self, rng, value):
        class OutOfRangeScorer:
            def score_batch(self, q, embs, texts):
                return np.array([value if text == "summary 1" else 0.5 for text in texts])

            def grad_sum(self, q, embs, texts, coeff, scores):
                return np.zeros(q.shape)

        with pytest.raises(ValueError, match=re.escape(f"scorer returned {value} outside [0, 1] for summary 1")):
            optimize_prompt(np.zeros(3), make_summaries(rng.normal(size=(3, 4))), OutOfRangeScorer(),
                            PipelineConfig(opt_iters=2))

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_score_batch_of_another_length_aborts(self, rng, extra):
        class WrongLengthScorer(StubScorer):
            def score_batch(self, q, embs, texts):
                return np.full(embs.shape[0] + extra, 0.5)

        with pytest.raises(ValueError, match=re.escape(f"scores of shape ({3 + extra},) for 3 summaries")):
            optimize_prompt(np.zeros(3), make_summaries(rng.normal(size=(3, 4))), WrongLengthScorer(3, 4, seed=0),
                            PipelineConfig(opt_iters=2))

    @pytest.mark.parametrize("reshape", [lambda g: g[:1], lambda g: g[:, None], lambda g: np.append(g, 0.0)],
                             ids=["first-entry", "column", "one-longer"])
    def test_gradient_of_another_shape_aborts_with_iteration(self, rng, reshape):
        # a (1,) or (3, 1) gradient would broadcast into the prompt unseen
        class MisshapenScorer(StubScorer):
            def grad_sum(self, q, embs, texts, coeff, scores):
                return reshape(super().grad_sum(q, embs, texts, coeff, scores))

        want = f"of shape {reshape(np.zeros(3)).shape} for a prompt of shape (3,) at iteration 0"
        with pytest.raises(ValueError, match=re.escape(want)):
            optimize_prompt(np.zeros(3), make_summaries(rng.normal(size=(3, 4))), MisshapenScorer(3, 4, seed=0),
                            PipelineConfig(opt_iters=3))

    def test_scorer_takes_only_prompt_embedding_and_text(self, rng):
        # the Scorer protocol's parameters and nothing else: each call gets
        # the prompt, the summaries' embedding rows and their texts (and
        # grad_sum the coefficients and scores), by position
        class MinimalScorer:
            def __init__(self, stub):
                self.stub, self.calls = stub, []

            def score_batch(self, q, embs, texts):
                self.calls.append(("score_batch", embs, list(texts)))
                return self.stub.score_batch(q, embs, texts)

            def grad_sum(self, q, embs, texts, coeff, scores):
                self.calls.append(("grad_sum", embs, list(texts)))
                return self.stub.grad_sum(q, embs, texts, coeff, scores)

        summaries = make_summaries(rng.normal(size=(4, 3)))
        minimal = MinimalScorer(StubScorer(5, 3, seed=2))
        config = PipelineConfig(opt_iters=3)
        state, scores = optimize_prompt(np.zeros(5), summaries, minimal, config)
        expected_state, expected = optimize_prompt(np.zeros(5), summaries, StubScorer(5, 3, seed=2), config)
        assert np.array_equal(scores, expected)
        assert state.loss_history == expected_state.loss_history
        assert [name for name, _, _ in minimal.calls] == ["score_batch"] + ["grad_sum", "score_batch"] * 3
        assert all(embs is summaries.embeddings and texts == list(summaries.texts)
                   for _, embs, texts in minimal.calls)

    @pytest.mark.parametrize("setting, value, message", [
        ("sparsity_weight", -5.0, "sparsity_weight must be non-negative"),
        ("target_mass", -3.0, "target_mass must be non-negative"),
        ("learning_rate", True, "learning_rate must be a number, got True"),
        ("opt_iters", True, "opt_iters must be an integer, got True"),
        ("opt_iters", 2.5, "opt_iters must be an integer, got 2.5"),
    ])
    def test_objective_settings_come_only_from_a_validated_config(self, setting, value, message):
        # these reached the optimizer as loose keyword arguments; now the
        # objective reads them from a PipelineConfig, which rejects them
        assert list(inspect.signature(optimize_prompt).parameters) == ["q0", "summaries", "scorer", "config"]
        with pytest.raises(ValidationError, match=re.escape(message)):
            PipelineConfig(**{setting: value})

    def test_analytic_vs_fd_total_gradient(self):
        for seed in range(15):
            rng = np.random.default_rng(seed)
            pdim = int(rng.integers(2, 16))
            edim = int(rng.integers(2, 8))
            n = int(rng.integers(1, 12))
            scorer = StubScorer(pdim, edim, seed=seed)
            q = rng.normal(size=pdim)
            embs = rng.normal(size=(n, edim))
            mu = float(rng.uniform(0, n))
            lam = float(rng.uniform(0, 3))
            a = analytic_total_gradient(q, embs, scorer, mu, lam)
            f = finite_difference_total_gradient(q, embs, scorer, mu, lam, step=1e-6)
            assert np.max(np.abs(a - f)) < 1e-5


class TestHelpers:
    def test_resolve_target_mass_default(self):
        assert resolve_target_mass(None, 40) == pytest.approx(4.0)
        assert resolve_target_mass(7.5, 40) == 7.5

    def test_monotone_fraction(self):
        state = PromptState(q=np.zeros(1), loss_history=[4.0, 3.0, 3.5, 2.0, 1.0])
        assert state.monotone_fraction == pytest.approx(0.75)

    def test_entropy_clamp_constant_in_range(self):
        assert 0 < EPS_P < 1e-3
