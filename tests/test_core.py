import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypervad.core import (
    PipelineConfig,
    SegmentTable,
    ValidationError,
    out_dir_issues,
    seeded_unit_vector,
    segment_tiling,
    validate_dataset,
)

from conftest import make_rows, make_segments


class TestSegmentTable:
    def test_has_audio_tracks_caption(self):
        segs = SegmentTable.from_rows([(0, 0, 3, "x", None), (1, 4, 7, "y", "a")])
        dataset = validate_dataset(segs, np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)))
        assert dataset.audio_rows.tolist() == [False, True]

    def test_n_frames_inclusive(self):
        segs = SegmentTable.from_rows([(0, 0, 3, "x", None), (1, 4, 7, "y", None)])
        assert segment_tiling(segs) == ([], 8)

    def test_columns_are_read_only_int64_copies(self):
        start = np.array([0, 4], dtype=np.int32)
        segs = SegmentTable([0, 1], start, np.array([3, 7]), ["x", "y"], [None, "a"])
        for column in (segs.index, segs.frame_start, segs.frame_end):
            assert column.dtype == np.int64
            with pytest.raises(ValueError):
                column[0] = 9
        start[0] = 9  # the caller's own array stays writable
        assert segs.frame_start.tolist() == [0, 4]
        assert (segs.visual, segs.audio, len(segs)) == (("x", "y"), (None, "a"), 2)

    def test_no_rows(self):
        segs = SegmentTable.from_rows([])
        assert len(segs) == 0 and segs.frame_end.dtype == np.int64
        assert segment_tiling(segs) == ([], 0)

    @pytest.mark.parametrize("column, values, message", [
        ("frame_end", [3.0, 7.0], "frame_end must hold integers within int64"),
        ("frame_end", [True, False], "frame_end must hold integers within int64"),
        ("index", [2**63, 2**63 + 1], "index must hold integers within int64"),  # uint64
        ("index", [0, 2**63], "index must hold integers within int64"),  # float64
        ("frame_start", [0, -2**63 - 1], "frame_start must hold integers within int64"),  # object
        ("frame_start", [0], r"frame_start must hold one value per segment, got shape \(1,\)"),
    ])
    def test_rejects_columns_beyond_int64(self, column, values, message):
        columns = {"index": [0, 1], "frame_start": [0, 4], "frame_end": [3, 7], "visual": ["x", "y"],
                   "audio": [None, None], column: values}
        with pytest.raises(ValueError, match=message):
            SegmentTable(**columns)

    def test_rejects_audio_of_another_length(self):
        with pytest.raises(ValueError, match="audio must hold one caption or None per segment, got 1 for 2"):
            SegmentTable([0, 1], [0, 4], [3, 7], ["x", "y"], [None])


class TestPipelineConfig:
    def test_defaults_valid(self):
        PipelineConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"curvature": 0.0},
            {"curvature": -1.0},
            {"neighbors": 0},
            {"sparsity_weight": -1.0},
            {"opt_iters": -1},
            {"audio_weight": -1e-12},
            {"shrinkage": 1.5},
            {"learning_rate": 0.0},
            {"window": 0},
            {"seed": -1},
            {"audio_weight": 1.0 + 1e-12},
            {"prompt_dim": 0},
        ],
    )
    def test_invariant_violations(self, overrides):
        with pytest.raises(ValidationError):
            PipelineConfig(**overrides)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, pytest.param(10**400, id="int beyond float64"),
    ])
    @pytest.mark.parametrize("name", [
        "curvature", "audio_weight", "learning_rate", "target_mass",
        "sparsity_weight", "shrinkage",
    ])
    def test_rejects_non_finite_floats(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            PipelineConfig(**{name: value})

    @pytest.mark.parametrize("overrides, message", [
        ({"window": True}, "window must be an integer, got True"),
        ({"neighbors": 2.5}, "neighbors must be an integer, got 2.5"),
        ({"prompt_dim": 2.5}, "prompt_dim must be an integer, got 2.5"),
        ({"opt_iters": 1.0}, "opt_iters must be an integer, got 1.0"),
        ({"curvature": True}, "curvature must be a number, got True"),
        ({"target_mass": "1"}, "target_mass must be a number, got '1'"),
        # a real is an int or a float; these would fail in a stage or in report.json
        ({"learning_rate": np.float32(0.05)}, "learning_rate must be a number, got np.float32(0.05)"),
        ({"curvature": np.int64(1)}, "curvature must be a number, got np.int64(1)"),
        ({"learning_rate": Fraction(1, 20)}, "learning_rate must be a number, got Fraction(1, 20)"),
    ])
    def test_rejects_mistyped_settings(self, overrides, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            PipelineConfig(**overrides)

    @pytest.mark.parametrize("audio_weight", [0, 0.0, 0.3, 1.0, 1])
    def test_audio_weight_closed_unit_interval(self, audio_weight):
        assert PipelineConfig(audio_weight=audio_weight).audio_weight == audio_weight

    def test_visual_weight_is_not_a_setting(self):
        # the visual share is 1 - audio_weight
        assert "visual_weight" not in PipelineConfig().as_dict()
        with pytest.raises(TypeError, match="visual_weight"):
            PipelineConfig(visual_weight=0.5)

    def test_float_settings_take_ints(self):
        config = PipelineConfig(curvature=2, target_mass=0)
        assert (config.curvature, config.target_mass) == (2, 0)

    def test_collects_all_issues(self):
        with pytest.raises(ValidationError) as exc:
            PipelineConfig(curvature=-1.0, neighbors=0)
        assert len(exc.value.issues) == 2


class TestValidateDataset:
    def _embs(self, n, dim=4, rng=None):
        rng = rng or np.random.default_rng(0)
        return {"visual": rng.normal(size=(n, dim)), "text": rng.normal(size=(n, dim))}

    def test_consistent_shapes_valid(self):
        ds = validate_dataset(make_segments(3), **self._embs(3))
        assert ds.n_segments == 3
        assert ds.n_frames == 12
        assert ds.audio is None and not ds.has_audio

    def test_rejects_non_2d(self):
        embs = self._embs(3)
        embs["visual"] = np.ones(5)
        with pytest.raises(ValidationError, match=r"visual: embeddings must be 2-D, got shape \(5,\)"):
            validate_dataset(make_segments(3), **embs)

    def test_arrays_are_read_only_float64(self):
        visual = np.ones((2, 2), dtype=np.float32)
        text = np.ones((2, 2))
        ds = validate_dataset(make_segments(2), visual, text, text.copy())
        for data in (ds.visual, ds.text, ds.audio):
            assert data.dtype == np.float64
            with pytest.raises(ValueError):
                data[0, 0] = 7.0
        text[0, 0] = 7.0  # the caller's own array stays writable

    def test_count_mismatch(self):
        with pytest.raises(ValidationError, match="count mismatch"):
            validate_dataset(make_segments(3), **self._embs(2))

    def test_nan_names_row(self):
        embs = self._embs(3)
        embs["visual"][1, 2] = np.nan
        with pytest.raises(ValidationError, match=r"visual: non-finite entry in row\(s\) 1"):
            validate_dataset(make_segments(3), **embs)

    def test_non_contiguous_segments(self):
        rows = make_rows(3)
        rows[1] = (1, 5, 7, "caption 1", None)  # gap: segment 0 ends at 3
        with pytest.raises(ValidationError, match="segment 1: non-contiguous"):
            validate_dataset(SegmentTable.from_rows(rows), **self._embs(3))

    def test_inverted_frame_range(self):
        segs = SegmentTable.from_rows([(0, 3, 1, "x", None)])
        with pytest.raises(ValidationError, match="frame_start"):
            validate_dataset(segs, **self._embs(1))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 6),
        dim=st.integers(1, 4),
        mutation=st.sampled_from(["none", "count", "nan", "gap", "inverted"]),
        seed=st.integers(0, 2**31),
    )
    def test_accepts_iff_invariants_hold(self, n, dim, mutation, seed):
        rng = np.random.default_rng(seed)
        rows = make_rows(n)
        embs = self._embs(n, dim, rng)
        if mutation == "count":
            embs["visual"] = rng.normal(size=(n + 1, dim))
        elif mutation == "nan" and n >= 1:
            embs["text"][rng.integers(n), rng.integers(dim)] = np.inf
        elif mutation == "gap" and n >= 2:
            i = int(rng.integers(1, n))
            rows[i] = (i, rows[i][1] + 1, rows[i][2], "zz", None)
        elif mutation == "inverted" and n >= 1:
            i = int(rng.integers(n))
            rows[i] = (i, rows[i][1], rows[i][1] - 1, "zz", None)
        else:
            mutation = "none"

        segs = SegmentTable.from_rows(rows)
        if mutation == "none":
            validate_dataset(segs, **embs)
        else:
            with pytest.raises(ValidationError):
                validate_dataset(segs, **embs)


def test_seeded_unit_vector_deterministic_unit():
    a = seeded_unit_vector(7, 16)
    b = seeded_unit_vector(7, 16)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
    assert not np.array_equal(a, seeded_unit_vector(8, 16))


@pytest.mark.parametrize("out, blocker", [
    ("d", None),              # an existing directory
    ("new", None),            # missing, under a directory
    ("new/deeper", None),
    ("f", "f"),               # an existing file
    ("f/sub", "f"),           # under a file
    ("f/sub/deeper", "f"),
    ("link", "link"),         # a dangling symlink: mkdir would fail on it
    ("link/sub", "link"),
    (None, "kind"),           # not a path at all
    (3, "kind"),
    (b"d", "kind"),
])
def test_out_dir_must_be_a_directory_or_makeable(tmp_path, out, blocker):
    (tmp_path / "d").mkdir()
    (tmp_path / "f").write_text("x", encoding="utf-8")
    (tmp_path / "link").symlink_to(tmp_path / "gone")
    if blocker == "kind":
        assert out_dir_issues(out) == [f"output directory must be a path, got {out!r}"]
        return
    issues = out_dir_issues(tmp_path / out)
    if blocker is None:
        assert issues == []
    else:
        assert issues == [f"output directory {tmp_path / out} is unusable: {tmp_path / blocker} is not a directory"]
