import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypervad import dataio
from hypervad.core import Modality, PipelineConfig, SegmentRecord, ValidationError
from hypervad.dataio import (
    _BLOCK_CHARS,
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
from oracles import (
    frame_csv_oracle,
    read_canonical_by_lines,
    read_captions_per_line,
    read_frame_csv_oracle,
    read_labels_by_blocks,
)

# Caption records for the reader comparisons: audio given, absent and null.
R0 = '{"index": 0, "frame_start": 0, "frame_end": 3, "visual": "v0", "audio": "a0"}'
R1 = '{"index": 1, "frame_start": 4, "frame_end": 7, "visual": "v1"}'
R2 = '{"index": 2, "frame_start": 8, "frame_end": 9, "visual": "v2", "audio": null}'
# The parse rule and dtype of each frame-CSV column.
COLUMNS = {"label": (dataio._label, np.int64), "score": (dataio._score, np.float64)}


def assert_same_outcome(read, oracle, path):
    """``read(path)`` returns what ``oracle(path)`` returns, or raises a
    ValidationError with the same issues."""
    try:
        want = oracle(path)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as excinfo:
            read(path)
        assert excinfo.value.issues == exc.issues
        return None
    got = read(path)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    else:
        assert repr(got) == repr(want)  # repr tells 0 from 0.0 and False
    return got


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

    @pytest.mark.parametrize("text", [
        pytest.param("", id="empty"),
        pytest.param("\n \n\t\n", id="blank_only"),
        pytest.param(f"\n{R0}\n\n   \n\t\n{R1}\n", id="blank_and_space_lines"),
        pytest.param(f"{R0}\r{R1}\r", id="cr"),
        pytest.param(f"{R0}\r\n{R1}\n{R2}\r\n\r{R0}", id="mixed_line_ends"),
        # str.splitlines would split these lines; a file iterator does not
        pytest.param('{"index": 0, "frame_start": 0, "frame_end": 3, "visual": "a\u2028b"}\n', id="u2028"),
        pytest.param('{"index": 0, "frame_start": 0, "frame_end": 3, "visual": "a\x85b", "audio": "\x85"}\n',
                     id="u0085"),
        pytest.param(f"{R0}\u2028\n{R1}\x85\n", id="u2028_after_record"),
        pytest.param(f"\ufeff{R0}\n", id="bom"),
        pytest.param(f"{R0}   \n{R1} \t\n", id="trailing_spaces"),
        pytest.param('{ "index" :0 ,"frame_start":0,\t"frame_end":3,"visual":"v"}\n', id="json_whitespace"),
        pytest.param('{"index": NaN, "frame_start": 0, "frame_end": 3, "visual": "v"}\n', id="nan_index"),
        pytest.param('{"index": 0, "frame_start": 0, "frame_end": Infinity, "visual": "v"}\n', id="inf_frame"),
        pytest.param('{"index": true, "frame_start": 0, "frame_end": 3, "visual": "v"}\n', id="bool_index"),
        pytest.param('{"index": 0.0, "frame_start": 0, "frame_end": 3, "visual": "v"}\n', id="float_index"),
        pytest.param('{"index": 1e0, "frame_start": 0, "frame_end": 3, "visual": "v"}\n', id="exponent_index"),
        pytest.param(f"{R2}\n", id="audio_null"),
        pytest.param(f"{R1}\n", id="audio_absent"),
        pytest.param('{"index": 0, "frame_start": 0, "frame_end": 3, "visual": "v", "audio": 5}\n',
                     id="audio_number"),
        pytest.param('{"index": 0, "frame_start": 0, "frame_end": 3, "visual": null}\n', id="visual_null"),
        pytest.param('{"index": 0, "frame_start": 0, "frame_end": 3}\n', id="visual_absent"),
        pytest.param('{"x": [1, {"y": 2}], "index": 0, "frame_start": 0, "frame_end": 3, "visual": "v"}\n',
                     id="extra_keys"),
        pytest.param('{"index": 5, "index": 0, "frame_start": 0, "frame_end": 3, "visual": "v"}\n',
                     id="duplicate_key"),
        pytest.param('{"index": 10000000000000000000000, "frame_start": 0, "frame_end": 3, "visual": "v"}\n',
                     id="big_int"),
        pytest.param('{"index": 0, "frame_start": 0, "frame_end": 3, "visual": "a\\"b\\n\\u00e9"}\n',
                     id="escapes"),
        pytest.param('{"index": 0, "frame_start": 0, "frame_end": 3, "visual": "a\tb"}\n', id="raw_tab"),
        # a joined-array parse, json.loads("[" + ",".join(lines) + "]"), would take both
        pytest.param(f"{R0} {R1}\n", id="two_records_one_line"),
        pytest.param('{"index": 0, "frame_start": 0,\n"frame_end": 3, "visual": "v0"}\n', id="record_over_two_lines"),
        pytest.param(f"{R0}x\n", id="trailing_text"),
        pytest.param(f"x{R0}\n", id="leading_text"),
        pytest.param(f"{R0}\n[0]\n", id="array"),
        pytest.param(f"{R0}\n7\n", id="number"),
        pytest.param(f'{R0}\n"s"\n', id="string"),
        pytest.param(f"{R0}\nnull\n", id="null"),
        pytest.param(f"{R0}\n{{\n", id="unclosed"),
    ])
    def test_matches_per_line_reader(self, tmp_path, text):
        path = tmp_path / "c.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert_same_outcome(read_captions, read_captions_per_line, path)

    def test_written_files_never_reach_json_loads(self, tmp_path, monkeypatch):
        segs = make_segments(50, audio=True)
        segs[7] = SegmentRecord(7, 28, 31, "no audio", None)
        write_captions(tmp_path / "c.jsonl", segs)

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(dataio.json, "loads", refuse)
        assert read_captions(tmp_path / "c.jsonl") == segs

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(st.tuples(
            st.integers(-2**70, 2**70), st.integers(-2**70, 2**70), st.integers(-2**70, 2**70),
            st.text(), st.none() | st.text())),
        ascii_only=st.booleans(),
    )
    def test_roundtrip_matches_per_line_reader(self, tmp_path_factory, records, ascii_only):
        # with ascii_only false, U+2028, U+0085 and the like reach the file raw
        segs = [SegmentRecord(*record) for record in records]
        path = tmp_path_factory.mktemp("captions") / "c.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for seg in segs:
                record = {"index": seg.index, "frame_start": seg.frame_start, "frame_end": seg.frame_end,
                          "visual": seg.visual_caption, "audio": seg.audio_caption}
                fh.write(json.dumps(record, ensure_ascii=ascii_only) + "\n")
        assert read_captions(path) == segs
        assert read_captions_per_line(path) == segs


class TestLabelScoreCsv:
    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_labels(path, [0, 1, 1, 0])
        assert read_labels(path).tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("field, message", [
        pytest.param("2", "label must be 0 or 1", id="2"),
        pytest.param("0_1", "'_' is not allowed in a number", id="0_1"),
        # int() takes any Unicode decimal digit: this is ARABIC-INDIC DIGIT ONE
        pytest.param("\u0661", "a number must be ASCII", id="arabic_indic_1"),
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
        pytest.param("\uff10.5", "a number must be ASCII", id="fullwidth_0.5"),
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
        pytest.param("label", "frame,label\r\n0,1\n1,0\r\n2,0\r1,0\r\n", id="mixed_line_ends"),
        pytest.param("label", "frame,label\r\n0,1\r\n1,0", id="no_final_crlf"),
        pytest.param("label", "frame,label\r\n0,1\r\r\n1,0\r\n", id="cr_crlf"),
        pytest.param("label", "\ufeffframe,label\r\n0,1\r\n", id="bom"),
        pytest.param("label", "frame,label\r\n", id="label_header_only"),
        pytest.param("score", "frame,score\r\n0,0.5 \r\n1,0.25\t\r\n", id="trailing_spaces"),
        pytest.param("score", "frame,score\r\n0,0.5\r\n1,NaN\r\n", id="NaN"),
        pytest.param("score", "frame,score\r\n0,0.50\r\n", id="not_shortest"),
        pytest.param("label", "frame,label\r\n0,1\u2028\r\n", id="u2028"),
        pytest.param("label", "frame,label\r\n0,True\r\n", id="bool"),
        pytest.param("label", "frame,label\r\n0,1.0\r\n", id="float_label"),
        pytest.param("label", "frame,label\r\n0,99999999999999999999\r\n", id="huge_label"),
        pytest.param("label", "frame,label\r\n\u0660,\u0661\r\n", id="arabic_indic_digits"),
        pytest.param("label", "frame,label\r\n0,1\r\n\uff11,0\r\n", id="fullwidth_frame"),
        pytest.param("score", "frame,score\r\n0,\uff10.5\r\n", id="fullwidth_score"),
    ])
    def test_other_text_reads_as_csv_rows(self, tmp_path, column, text):
        path = tmp_path / f"{column}.csv"
        path.write_bytes(text.encode())
        read = {"label": read_labels, "score": read_scores}[column]
        assert_same_outcome(read, lambda p: read_frame_csv_oracle(p, column), path)
        # the block reader takes the text the line-block reader took, and no other
        outcomes = []
        for canonical in (dataio._read_canonical, read_canonical_by_lines):
            with open(path, encoding="utf-8", newline="") as fh:
                values = canonical(fh, column, *COLUMNS[column])
            outcomes.append(None if values is None else (values.dtype, values.tolist()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("end", [-2, -1, 0, 1, 2], ids=lambda end: f"block{end:+d}")
    def test_row_ends_near_the_block_boundary(self, tmp_path, monkeypatch, end):
        # rows of 0.5 and 0.25 (one character longer) put the end of a row at
        # _BLOCK_CHARS + end characters past the header, then 50 rows follow;
        # at +1 that row's CRLF is split between a block and the next line
        values, length = [], 0
        while length + len(f"{len(values)},0.5\r\n") <= _BLOCK_CHARS + end:
            length += len(f"{len(values)},0.5\r\n")
            values.append(0.5)
        short = _BLOCK_CHARS + end - length
        values[:short] = [0.25] * short
        values += [0.75] * 50
        path = tmp_path / "s.csv"
        write_scores(path, values)
        body = path.read_bytes().decode()[len("frame,score\r\n"):]
        assert body[_BLOCK_CHARS + end - 2 : _BLOCK_CHARS + end] == "\r\n"
        monkeypatch.setattr(dataio.csv, "reader", None)  # the block path must take it all
        assert read_scores(path).tolist() == values
        with open(path, encoding="utf-8", newline="") as fh:
            assert read_canonical_by_lines(fh, "score", *COLUMNS["score"]).tolist() == values

    LABELS = "frame,label\r\n" + "".join(f"{i},{i % 3 // 2}\r\n" for i in range(40))

    @pytest.mark.parametrize("text", [
        pytest.param(LABELS, id="canonical"),
        pytest.param(LABELS[:-2], id="no_final_crlf"),
        pytest.param(LABELS[:-1], id="final_cr"),
        pytest.param(LABELS.replace(",0\r\n", ",0\n"), id="lf_rows"),
        pytest.param(LABELS.replace(",1\r\n", ",2\r\n"), id="label_2"),
    ])
    def test_every_block_size_matches_line_blocks(self, tmp_path, monkeypatch, text):
        # blocks of 1 to 30 characters end at every offset of every row,
        # inside a CRLF too
        path = tmp_path / "label.csv"
        path.write_bytes(text.encode())
        with open(path, encoding="utf-8", newline="") as fh:
            want = read_canonical_by_lines(fh, "label", *COLUMNS["label"])
        for block_chars in range(1, 31):
            monkeypatch.setattr(dataio, "_BLOCK_CHARS", block_chars)
            with open(path, encoding="utf-8", newline="") as fh:
                got = dataio._read_canonical(fh, "label", *COLUMNS["label"])
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want) and got.dtype == want.dtype
            assert_same_outcome(read_labels, lambda p: read_frame_csv_oracle(p, "label"), path)

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(st.floats(allow_nan=False, allow_infinity=False)
                        | st.sampled_from([0.0, -0.0, 0.5, 1 / 3]), max_size=300),
        labels=st.lists(st.integers(0, 1), max_size=300),
        block_chars=st.integers(1, 200),
    )
    def test_roundtrip_in_any_block_size(self, tmp_path_factory, scores, labels, block_chars):
        folder = tmp_path_factory.mktemp("frames")
        write_scores(folder / "s.csv", scores)
        write_labels(folder / "l.csv", labels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_BLOCK_CHARS", block_chars)
            mp.setattr(dataio.csv, "reader", None)  # written text never needs the row reader
            got_scores, got_labels = read_scores(folder / "s.csv"), read_labels(folder / "l.csv")
        assert got_scores.tolist() == scores
        assert np.array_equal(np.signbit(got_scores), np.signbit(scores))
        assert got_labels.dtype == np.int64 and got_labels.tolist() == labels
        assert np.array_equal(read_frame_csv_oracle(folder / "s.csv", "score"), got_scores)

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


def mutations(raw: bytes, kind: str):
    """``raw`` with one byte inserted, deleted or replaced at each position
    in its header, around each change of row width and at its end; inserted
    and replacing bytes are those a row holds or a slip could add."""
    body = len(b"frame,label\r\n")
    edges = [body, body + 10 * 5, body + 10 * 5 + 90 * 6, len(raw)]
    positions = sorted({i for edge in edges for i in range(edge - 7, edge + 8) if 0 <= i <= len(raw)}
                       | set(range(min(body, len(raw)))))
    for i in positions:
        if kind == "delete":
            if i < len(raw):
                yield raw[:i] + raw[i + 1 :]
            continue
        for byte in b"0129,\r\n _\xff":
            if kind == "insert":
                yield raw[:i] + bytes([byte]) + raw[i:]
            elif i < len(raw) and raw[i] != byte:
                yield raw[:i] + bytes([byte]) + raw[i + 1 :]


class TestFixedWidthLabels:
    # frames 0-9 are 5-byte rows, 10-99 6-byte rows and so on; 0 frames is
    # the header-only file
    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 9_999, 10_000])
    def test_written_labels_skip_the_row_reader(self, tmp_path, rng, monkeypatch, n):
        labels = rng.integers(0, 2, size=n)
        path = tmp_path / "labels.csv"
        write_labels(path, labels)
        assert dataio._fixed_width_labels(path.read_bytes()) is not None
        assert_same_outcome(read_labels, read_labels_by_blocks, path)
        assert_same_outcome(read_labels, lambda p: read_frame_csv_oracle(p, "label"), path)
        monkeypatch.setattr(dataio.csv, "reader", None)
        assert np.array_equal(read_labels(path), labels)

    @pytest.mark.parametrize("kind", ["insert", "delete", "replace"])
    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101])
    def test_mutated_bytes_match_block_reader(self, tmp_path, kind, n):
        path = tmp_path / "labels.csv"
        write_labels(path, np.arange(n) % 3 // 2)
        for raw in mutations(path.read_bytes(), kind):
            path.write_bytes(raw)
            got = assert_same_outcome(read_labels, read_labels_by_blocks, path)
            # the fixed-width reader takes exactly the bytes write_labels writes
            fast = dataio._fixed_width_labels(raw)
            if fast is not None or got is not None:
                write_labels(tmp_path / "back.csv", got)
                assert ((tmp_path / "back.csv").read_bytes() == raw) == (fast is not None)

    ROWS = "".join(f"{i},{i % 2}\r\n" for i in range(12))

    @pytest.mark.parametrize("raw", [
        pytest.param(("frame,label\r\n" + ROWS).replace("\r\n", "\n").encode(), id="lf"),
        pytest.param(ROWS.encode(), id="no_header"),
        pytest.param(("\ufeffframe,label\r\n" + ROWS).encode(), id="bom"),
        pytest.param(("frame,label\r\n" + ROWS).replace("\r\n1,1", "\r\n01,1").encode(), id="frame_01"),
        pytest.param(("frame,label\r\n" + ROWS).replace("\r\n0,0", "\r\n00,0").encode(), id="frame_00"),
        pytest.param(("frame,label\r\n" + ROWS).replace("3,1", "3,2").encode(), id="label_2"),
        pytest.param(("frame,label\r\n" + ROWS).replace("5,1", "5, 1").encode(), id="space"),
        pytest.param(("frame,label\r\n" + ROWS)[:-2].encode(), id="no_final_crlf"),
        pytest.param(("frame,label\r\n" + ROWS).encode() + b"12,\xff\r\n", id="not_utf8"),
        pytest.param(("frame,label\r\n" + ROWS + "12,\u0661\r\n").encode(), id="arabic_indic_1"),
    ])
    def test_other_bytes_take_the_row_reader(self, tmp_path, raw):
        path = tmp_path / "labels.csv"
        path.write_bytes(raw)
        assert dataio._fixed_width_labels(raw) is None
        assert_same_outcome(read_labels, read_labels_by_blocks, path)
        if b"\xff" not in raw:  # the oracle has no UTF-8 wrapper
            assert_same_outcome(read_labels, lambda p: read_frame_csv_oracle(p, "label"), path)

    @pytest.mark.parametrize("lo, hi", [(0, 1), (0, 10), (3, 7), (10, 11), (10, 100), (57, 63),
                                        (100, 101), (998, 1003), (1000, 10_000), (10_000, 10_001)])
    def test_digit_column(self, lo, hi):
        for place in (1, 10, 100, 1000, 10_000):
            want = "".join(str(frame // place % 10) for frame in range(lo, hi)).encode()
            assert dataio._digit_column(lo, hi, place) == want

    @settings(max_examples=60, deadline=None)
    @given(labels=st.lists(st.integers(0, 1), max_size=120), repeat=st.integers(1, 12))
    def test_roundtrip(self, tmp_path_factory, labels, repeat):
        # up to 1,440 frames, so every row width up to four digits
        labels = np.repeat(np.array(labels, dtype=np.int64), repeat)
        path = tmp_path_factory.mktemp("labels") / "l.csv"
        write_labels(path, labels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio.csv, "reader", None)  # written text never needs the row reader
            got = read_labels(path)
        assert got.dtype == np.int64 and np.array_equal(got, labels)
        assert np.array_equal(read_labels_by_blocks(path), labels)


class TestNotUtf8Text:
    LABELS = b"frame,label\r\n" + b"".join(b"%d,0\r\n" % i for i in range(20_000))

    @pytest.mark.parametrize("read, raw, bad, line, reason", [
        pytest.param(read_captions, (R0 + "\r\n\r" + R1 + "\n").encode() + b'\xff"x"\n', b"\xff", 4,
                     "invalid start byte", id="captions"),
        # past the first buffer a text file is decoded in
        pytest.param(read_captions, (R0 + "\n").encode() * 200 + b"\xe9t\xe9\n", b"\xe9t", 201,
                     "invalid continuation byte", id="captions_late"),
        pytest.param(read_labels, b"frame,label\r\n0,1\r\n1,0\r\n2,\xe2\x82", b"\xe2\x82", 4,
                     "unexpected end of data", id="labels_at_end"),
        pytest.param(read_labels, LABELS + b"20000,\xff\r\n", b"\xff", 20_002, "invalid start byte",
                     id="labels_late_block"),
        pytest.param(read_scores, b"frame,score\n0,0.5\n1,0.\xff5\n", b"\xff", 3, "invalid start byte",
                     id="scores_rows"),
        pytest.param(read_config, b"seed = 3\n# caf\xe9 au lait\n", b"\xe9 ", 2, "invalid continuation byte",
                     id="config"),
    ])
    def test_names_file_and_line(self, tmp_path, read, raw, bad, line, reason):
        path = tmp_path / "input.txt"
        path.write_bytes(raw)
        with pytest.raises(ValidationError) as excinfo:
            read(path)
        offset = raw.index(bad)
        assert excinfo.value.issues == [
            f"{path}:{line}: not UTF-8 text: {reason} (byte 0x{bad[0]:02x} at offset {offset})"
        ]


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

    @pytest.mark.parametrize("key, value", [
        # int() and float() take any Unicode decimal digit
        pytest.param("seed", "\u0663", id="arabic_indic_3"),
        pytest.param("curvature", "\uff12.0", id="fullwidth_2.0"),
    ])
    def test_non_ascii_digits_rejected(self, tmp_path, key, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"# comment\n{key} = {value}\n", encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            read_config(path)
        message = f"bad value for {key}: a number must be ASCII, got {value!r}"
        assert excinfo.value.issues == [f"{path}:2: {message}"]

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
