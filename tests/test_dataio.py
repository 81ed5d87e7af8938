import json
from dataclasses import fields

import numpy as np
import pytest

from hypervad import dataio
from hypervad.core import Modality, PipelineConfig, SegmentRecord, ValidationError
from hypervad.dataio import (
    _BLOCK_LINES,
    MAGIC,
    MODALITY_CODES,
    read_captions,
    read_config,
    read_embeddings,
    read_labels,
    read_report,
    read_scores,
    write_captions,
    write_config,
    write_embeddings,
    write_labels,
    write_loss_history,
    write_report,
    write_scores,
)

from conftest import make_segments
from oracles import frame_csv_oracle, read_frame_csv_oracle


class TestEmbeddingFormat:
    def test_roundtrip(self, tmp_path, rng):
        path = tmp_path / "x.emb"
        data = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
        write_embeddings(path, data, Modality.AUDIO)
        back = read_embeddings(path, Modality.AUDIO)
        assert back.dtype == np.float64
        assert np.array_equal(back, data)

    def test_empty_matrix_roundtrip(self, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(path, np.zeros((0, 4)), Modality.TEXT)
        assert read_embeddings(path, Modality.TEXT).shape == (0, 4)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(path, np.zeros((2, 3)), Modality.VISUAL)
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert raw[4:8] == (1).to_bytes(4, "little")  # version
        assert raw[8] == 0  # visual modality code
        assert raw[9:13] == (3).to_bytes(4, "little")  # dim
        assert raw[13:17] == (2).to_bytes(4, "little")  # count
        assert len(raw) == 17 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(path, np.zeros((1, 1)), Modality.VISUAL)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="bad magic"):
            read_embeddings(path, Modality.VISUAL)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(path, np.zeros((1, 1)), Modality.VISUAL)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="version"):
            read_embeddings(path, Modality.VISUAL)

    def test_unknown_modality_code(self, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(path, np.zeros((1, 1)), Modality.VISUAL)
        raw = bytearray(path.read_bytes())
        raw[8] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError, match="header has modality code 7, but visual"):
            read_embeddings(path, Modality.VISUAL)

    @pytest.mark.parametrize("written, read", [
        (Modality.TEXT, Modality.VISUAL), (Modality.VISUAL, Modality.AUDIO),
        (Modality.AUDIO, Modality.TEXT),
    ])
    def test_header_modality_must_match_slot(self, tmp_path, written, read):
        path = tmp_path / "x.emb"
        write_embeddings(path, np.zeros((1, 1)), written)
        message = (f"{path}: header has modality code {MODALITY_CODES[written]}, "
                   f"but {read.value} embeddings need code {MODALITY_CODES[read]}")
        with pytest.raises(ValidationError) as excinfo:
            read_embeddings(path, read)
        assert excinfo.value.issues == [message]

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.emb"
        write_embeddings(path, np.ones((3, 2)), Modality.VISUAL)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(ValidationError, match="payload"):
            read_embeddings(path, Modality.VISUAL)

    @pytest.mark.parametrize("rows, bad_row", [([[1e39, 1.0]], 0), ([[1.0, 2.0], [0.5, -1e39]], 1)])
    def test_float32_overflow_rejected_before_writing(self, tmp_path, rows, bad_row):
        path = tmp_path / "x.emb"
        with pytest.raises(ValueError, match=rf"x\.emb: row {bad_row} has a value beyond float32"):
            write_embeddings(path, rows, Modality.VISUAL)
        assert not path.exists()

    def test_float32_max_still_written(self, tmp_path):
        path = tmp_path / "x.emb"
        top = float(np.finfo(np.float32).max)
        write_embeddings(path, [[top, -top]], Modality.VISUAL)
        assert read_embeddings(path, Modality.VISUAL).tolist() == [[top, -top]]

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.emb"
        path.write_bytes(b"MMV")
        with pytest.raises(ValidationError, match="truncated"):
            read_embeddings(path, Modality.VISUAL)


class TestCaptionsFormat:
    def test_roundtrip_with_optional_audio(self, tmp_path):
        path = tmp_path / "c.jsonl"
        segs = make_segments(3, audio=True)
        from hypervad.core import SegmentRecord

        segs[1] = SegmentRecord(1, 4, 7, "no audio here", None)
        write_captions(path, segs)
        back = read_captions(path)
        assert back == segs
        assert back[1].audio_caption is None
        assert back[0].has_audio

    def test_bad_record_named_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"index": 0, "frame_start": 0}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match=":1: bad caption record"):
            read_captions(path)

    def test_absent_audio_reads_as_none(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"index": 0, "frame_start": 0, "frame_end": 3, "visual": "v"}\n',
                        encoding="utf-8")
        assert read_captions(path) == [SegmentRecord(0, 0, 3, "v", None)]

    @pytest.mark.parametrize("key, value", [
        ("index", 1.9),
        ("index", True),
        ("frame_start", "0"),
        ("frame_end", 7.6),
        ("visual", 12345),
        ("visual", None),
        ("audio", ["a"]),
    ])
    def test_wrong_field_type_named_line(self, tmp_path, key, value):
        # these used to be coerced: int(1.9) == 1, str(["a"]) == "['a']"
        good = {"index": 0, "frame_start": 0, "frame_end": 3, "visual": "v", "audio": "a"}
        bad = {**good, "index": 1, "frame_start": 4, "frame_end": 7, key: value}
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f":2: bad caption record: '{key}' must be"):
            read_captions(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = '{"index": 0, "frame_start": 0, "frame_end": 3, "visual": "v"}'
        path.write_text(f"\n{record}\n   \n", encoding="utf-8")
        assert read_captions(path) == [SegmentRecord(0, 0, 3, "v", None)]
        path.write_text(f"{record}\n\n[0]\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=":3: bad caption record"):
            read_captions(path)

    def test_non_object_record_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[0, 0, 3]\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=":1: bad caption record: expected a JSON object"):
            read_captions(path)


class TestLabelScoreCsv:
    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, [0, 1, 1, 0])
        assert read_labels(path).tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("field, message", [
        pytest.param("2", "label must be 0 or 1", id="2"),
        pytest.param("0_1", "'_' is not allowed in a number", id="0_1"),
    ])
    def test_labels_reject_non_binary(self, tmp_path, field, message):
        path = tmp_path / "labels.csv"
        path.write_text(f"frame,label\n0,{field}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"labels.csv:2: {message}"):
            read_labels(path)

    @pytest.mark.parametrize("frames, message", [
        pytest.param(["0", "2"], "labels.csv:3: frames must be contiguous", id="gap"),
        # ten frames and then frame 10 spelled 1_0, which int() accepts
        pytest.param([*map(str, range(10)), "1_0"], "labels.csv:12: '_' is not allowed", id="1_0"),
    ])
    def test_labels_reject_gap(self, tmp_path, frames, message):
        path = tmp_path / "labels.csv"
        path.write_text("frame,label\n" + "".join(f"{f},0\n" for f in frames), encoding="utf-8")
        with pytest.raises(ValidationError, match=message):
            read_labels(path)

    @pytest.mark.parametrize("bad, message", [
        pytest.param("nan", "score must be finite", id="nan"),
        pytest.param("inf", "score must be finite", id="inf"),
        pytest.param("-inf", "score must be finite", id="-inf"),
        pytest.param("0_5", "'_' is not allowed in a number", id="0_5"),
    ])
    def test_scores_reject_non_finite(self, tmp_path, bad, message):
        path = tmp_path / "scores.csv"
        path.write_text(f"frame,score\n0,0.5\n1,{bad}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"scores.csv:3: {message}"):
            read_scores(path)

    @pytest.mark.parametrize("header", ["frame,label", "frame", "frame,score,x"])
    def test_header_must_name_its_column(self, tmp_path, header):
        # a labels file given as scores used to read its labels as scores
        path = tmp_path / "scores.csv"
        path.write_text(f"{header}\r\n0,1\r\n", encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            read_scores(path)
        assert excinfo.value.issues == [
            f"{path}:1: expected the header 'frame,score', got {header.split(',')}"
        ]

    def test_written_bytes(self, tmp_path):
        write_labels(tmp_path / "l.csv", [0, 1])
        write_scores(tmp_path / "s.csv", [0.1, 1 / 3])
        write_loss_history(tmp_path / "h.csv", np.array([2.5, 1.0]))
        assert (tmp_path / "l.csv").read_bytes() == b"frame,label\r\n0,0\r\n1,1\r\n"
        assert (tmp_path / "s.csv").read_bytes() == b"frame,score\r\n0,0.1\r\n1,0.3333333333333333\r\n"
        assert (tmp_path / "h.csv").read_bytes() == b"iteration,loss\r\n0,2.5\r\n1,1.0\r\n"

    def test_bytes_match_csv_writer_oracle(self, tmp_path, rng):
        # 24,000 frames, as many as 1,500 segments of 16 frames
        scores = rng.uniform(size=24_000)
        scores[:4] = [0.0, 1.0, 1 / 3, 0.9999999999999999]
        labels = (scores > 0.9).astype(np.int64)
        write_scores(tmp_path / "s.csv", scores)
        write_labels(tmp_path / "l.csv", labels)
        frame_csv_oracle(tmp_path / "s_oracle.csv", ("frame", "score"), scores, lambda v: repr(float(v)))
        frame_csv_oracle(tmp_path / "l_oracle.csv", ("frame", "label"), labels, int)
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_oracle.csv").read_bytes()
        assert (tmp_path / "l.csv").read_bytes() == (tmp_path / "l_oracle.csv").read_bytes()

    def test_scores_roundtrip_full_precision(self, tmp_path):
        path = tmp_path / "scores.csv"
        values = [0.1, 1 / 3, 0.9999999999999999, 0.0]
        write_scores(path, values)
        assert read_scores(path).tolist() == values

    @pytest.mark.parametrize("case", [
        "piecewise", "signed_zeros", "float32", "int_list", "empty", "labels", "loss_history",
    ])
    def test_runs_match_csv_writer_oracle(self, tmp_path, rng, case):
        # runs of 1 to 40 equal values over more than two blocks, drawn from
        # a pool with 0.0 and -0.0 so that equal runs also meet
        lengths = rng.integers(1, 41, size=600)
        pool = np.array([0.0, -0.0, 0.25, 1 / 3, 0.9999999999999999])
        piecewise = np.repeat(pool[rng.integers(0, len(pool), size=len(lengths))], lengths)
        to_float = lambda v: repr(float(v))  # noqa: E731
        write, header, values, fmt = {
            "piecewise": (write_scores, ("frame", "score"), piecewise, to_float),
            "signed_zeros": (write_scores, ("frame", "score"), np.array([0.0, -0.0, -0.0, 0.0]), to_float),
            "float32": (write_scores, ("frame", "score"), piecewise.astype(np.float32) / 3, to_float),
            "int_list": (write_scores, ("frame", "score"), [0, 1], to_float),
            "empty": (write_scores, ("frame", "score"), np.array([]), to_float),
            "labels": (write_labels, ("frame", "label"), (piecewise > 0.3).astype(np.int64), int),
            "loss_history": (write_loss_history, ("iteration", "loss"), piecewise[:50].tolist(), to_float),
        }[case]
        write(tmp_path / "got.csv", values)
        frame_csv_oracle(tmp_path / "want.csv", header, values, fmt)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("n", [_BLOCK_LINES - 1, _BLOCK_LINES, _BLOCK_LINES + 1])
    def test_canonical_blocks_read_as_csv_rows(self, tmp_path, rng, n):
        labels = np.repeat(rng.integers(0, 2, size=n), 3)[:n]
        scores = np.repeat(rng.uniform(size=n), 2)[:n]
        scores[::7] = -0.0
        write_labels(tmp_path / "l.csv", labels)
        write_scores(tmp_path / "s.csv", scores)
        for path, read, column in ((tmp_path / "l.csv", read_labels, "label"),
                                   (tmp_path / "s.csv", read_scores, "score")):
            got, want = read(path), read_frame_csv_oracle(path, column)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("column, text", [
        pytest.param("label", "frame,label\n0,1\n1,0\n", id="lf"),
        pytest.param("label", "frame,label\r0,1\r1,0\r", id="cr"),
        pytest.param("label", "0,1\r\n1,0\r\n", id="no_header"),
        pytest.param("score", "frame,score\r\n", id="header_only"),
        pytest.param("score", "", id="empty"),
        pytest.param("label", "frame,label\r\n0,1\r\n\r\n1,0\r\n\r\n", id="blank_lines"),
        pytest.param("score", 'frame,score\r\n"0","0.5"\r\n1,0.5\r\n', id="quoted"),
        pytest.param("label", "frame,label\r\n0, 1\r\n", id="leading_space"),
        pytest.param("label", "frame,label\r\n0,1\r\n1,0,\r\n", id="trailing_comma"),
        pytest.param("label", "frame,label\r\n0,1\r\n1,2\r\n", id="label_2"),
        pytest.param("label", "frame,label\r\n0,1\r\n2,0\r\n", id="gap"),
        pytest.param("score", "frame,score\r\n0,0.5\r\n1,nan\r\n", id="nan"),
    ])
    def test_other_text_reads_as_csv_rows(self, tmp_path, column, text):
        path = tmp_path / f"{column}.csv"
        path.write_bytes(text.encode())
        read = {"label": read_labels, "score": read_scores}[column]
        try:
            want = read_frame_csv_oracle(path, column)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as excinfo:
                read(path)
            assert excinfo.value.issues == exc.issues
        else:
            got = read(path)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_written_files_never_reach_csv_reader(self, tmp_path, rng, monkeypatch):
        labels = np.repeat(rng.integers(0, 2, size=1000), 9)
        scores = np.repeat(rng.uniform(size=1000), 9)
        write_labels(tmp_path / "l.csv", labels)
        write_scores(tmp_path / "s.csv", scores)

        def refuse(*args, **kwargs):
            raise AssertionError("csv.reader called")

        monkeypatch.setattr(dataio.csv, "reader", refuse)
        assert np.array_equal(read_labels(tmp_path / "l.csv"), labels)
        assert np.array_equal(read_scores(tmp_path / "s.csv"), scores)


class TestConfigFormat:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        config = PipelineConfig(curvature=2.0, seed=9, window=3, target_mass=1.5)
        write_config(path, config)
        assert read_config(path) == config

    def test_every_field_roundtrips(self, tmp_path):
        # int fields stay int and float fields (target_mass too) stay float
        path = tmp_path / "run.cfg"
        values = {
            f.name: 1 if type(f.default) is int else 0.5 for f in fields(PipelineConfig)
        }
        values.update(window=3, neighbors=2)
        config = PipelineConfig(**values)
        write_config(path, config)
        back = read_config(path)
        assert back == config
        assert [type(getattr(back, f.name)) for f in fields(back)] == [
            type(values[f.name]) for f in fields(back)
        ]

    def test_int_field_rejects_float_literal(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("neighbors = 2.5\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad value for neighbors"):
            read_config(path)

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("curvture = 1.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="unknown config key"):
            read_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate"):
            read_config(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nseed = 5\n", encoding="utf-8")
        assert read_config(path).seed == 5

    def test_bad_value_reports_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = abc\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="bad value for seed"):
            read_config(path)

    def test_invalid_config_values_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("curvature = -2.0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="curvature"):
            read_config(path)


class TestReport:
    def test_roundtrip_sorted_keys(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(path, {"b": 1, "a": {"z": None, "c": 0.5}})
        assert read_report(path) == {"b": 1, "a": {"z": None, "c": 0.5}}
        text = path.read_text(encoding="utf-8")
        assert text.index('"a"') < text.index('"b"')
