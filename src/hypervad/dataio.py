"""On-disk formats: binary embeddings, captions JSONL, label/score CSVs,
key=value config files, and the JSON run report.

Embedding container (little-endian): magic "MMVE", version u32 = 1,
modality u8 (0=visual, 1=audio, 2=text), dim u32, count u32, then
count * dim float32 values row-major. Values are widened to float64 on
load; all other formats are UTF-8 text, and a byte that is not UTF-8 is a
ValidationError naming the file and the line that holds it.

A captions line is parsed by the C scanner behind ``json.loads`` and built
into a record after one exact type test of its fields. A labels file in the
form it is written is read whole as bytes: the rows of frames with the same
number of digits have one width, so each such slab is checked column by
column, each column one strided bytes slice. A scores file in the form it
is written is read in blocks of ``_BLOCK_CHARS`` characters, each ended at
a line end and taken only if its values write it back byte for byte. Any
other line or text takes the per-line path, which words every error.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import INT_SETTINGS, Modality, PipelineConfig, SegmentRecord, ValidationError

MAGIC = b"MMVE"
VERSION = 1
_HEADER = struct.Struct("<4sIBII")
# The header's modality byte, as listed in the module docstring.
MODALITY_CODES = {Modality.VISUAL: 0, Modality.AUDIO: 1, Modality.TEXT: 2}


FLOAT32_RANGE = f"float32's range (±{float(np.finfo(np.float32).max):.4g})"


def float32_rows(data: np.ndarray):
    """An (n, d) float64 array as little-endian float32, plus the first row
    holding a finite value beyond float32's range, or None."""
    with np.errstate(over="ignore"):
        values = data.astype("<f4")
    overflow = np.isinf(values) & np.isfinite(data)
    return values, int(np.argmax(overflow.any(axis=1))) if overflow.any() else None


def write_embeddings(path, data: np.ndarray, modality: Modality) -> None:
    """Write an (n, d) array as a ``modality`` embedding file. A finite
    value beyond float32's range is a ValueError, and no file is written."""
    values, row = float32_rows(np.asarray(data, dtype=np.float64))
    if row is not None:
        raise ValueError(f"{path}: row {row} has a value beyond {FLOAT32_RANGE}")
    write_float32_embeddings(path, values, modality)


def write_float32_embeddings(path, values: np.ndarray, modality: Modality) -> None:
    """Write (n, d) little-endian float32 values, as :func:`float32_rows`
    gives them, as a ``modality`` embedding file."""
    count, dim = values.shape
    header = _HEADER.pack(MAGIC, VERSION, MODALITY_CODES[modality], dim, count)
    Path(path).write_bytes(header + values.tobytes())


def read_embeddings(path, modality: Modality) -> np.ndarray:
    """The (count, dim) float64 array of an embedding file whose header
    names ``modality``; any other modality code is a ValidationError."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValidationError(f"{path}: truncated embedding file ({len(raw)} bytes)")
    magic, version, modality_code, dim, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    if modality_code != MODALITY_CODES[modality]:
        raise ValidationError(
            f"{path}: header has modality code {modality_code}, but {modality.value} "
            f"embeddings need code {MODALITY_CODES[modality]}"
        )
    expected = count * dim * 4
    body = raw[_HEADER.size :]
    if len(body) != expected:
        raise ValidationError(
            f"{path}: payload is {len(body)} bytes, header promises {expected}"
        )
    return np.frombuffer(body, dtype="<f4").reshape(count, dim).astype(np.float64)


# One row per caption-record key: JSON key, SegmentRecord field, required
# type, and whether the key may be null or absent. Types are checked exactly
# (``type(v) is int``), so a bool, a float or a list never passes as a value.
_CAPTION_FIELDS = (
    ("index", "index", int, False),
    ("frame_start", "frame_start", int, False),
    ("frame_end", "frame_end", int, False),
    ("visual", "visual_caption", str, False),
    ("audio", "audio_caption", str, True),
)


def write_captions(path, segments) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seg in segments:
            record = {key: getattr(seg, name) for key, name, _, _ in _CAPTION_FIELDS}
            fh.write(json.dumps(record) + "\n")


def _caption_record(obj) -> SegmentRecord:
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    values = {}
    for key, name, kind, optional in _CAPTION_FIELDS:
        if key not in obj and not optional:
            raise ValueError(f"missing key {key!r}")
        value = obj.get(key)
        if type(value) is not kind and not (optional and value is None):
            raise ValueError(f"{key!r} must be {kind.__name__}, got {value!r}")
        values[name] = value
    return SegmentRecord(**values)


def _utf8_text(read):
    """``read(path, ...)``, with a file that is not UTF-8 rejected as a
    ValidationError naming the line of its first byte that does not decode
    (CR, LF and CRLF each end a line)."""
    @functools.wraps(read)
    def wrapper(path, *args):
        try:
            return read(path, *args)
        except UnicodeDecodeError:
            raw = Path(path).read_bytes()  # the reader's error counts from its buffer, not the file
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = raw[: exc.start]
                lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
                raise ValidationError(
                    f"{path}:{lineno}: not UTF-8 text: {exc.reason} "
                    f"(byte 0x{raw[exc.start]:02x} at offset {exc.start})"
                ) from exc
            raise  # the file changed between the two reads
    return wrapper


# The scanner ``json.loads`` runs, without its per-call wrapping: it returns
# the value that starts at an index and the index just past it.
_scan_json = json.JSONDecoder().scan_once


@_utf8_text
def read_captions(path):
    """One record per non-blank line. A line that is one JSON object whose
    ``_CAPTION_FIELDS`` have their exact types is built at once; any other
    line goes through ``json.loads`` and ``_caption_record``, which word
    what is wrong with it."""
    segments = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj, stop = _scan_json(line, 0)
                index, start, end, visual, audio = (
                    obj["index"], obj["frame_start"], obj["frame_end"], obj["visual"], obj.get("audio"))
            except (StopIteration, ValueError, KeyError, TypeError, RecursionError):
                stop = None
            if (stop == len(line) and type(index) is int and type(start) is int and type(end) is int
                    and type(visual) is str and (audio is None or type(audio) is str)):
                segments.append(SegmentRecord(index, start, end, visual, audio))
                continue
            try:
                segments.append(_caption_record(json.loads(line)))
            except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                raise ValidationError(f"{path}:{lineno}: bad caption record: {exc}") from exc
    return segments


# Rows per block a frame CSV is written in, and characters per block a
# scores file is read in (each then ended at its line end): they bound the
# text held at once, whatever the file's length.
_BLOCK_LINES = 4096
_BLOCK_CHARS = 1 << 15


def _frame_text(start, values) -> str:
    """The canonical text of the frame rows ``start, start + 1, ...`` that
    hold ``values`` (int64 or float64): the bytes ``csv.writer`` would
    write, ``frame,value`` with CRLF line ends, each value the ``repr`` of
    its Python scalar. ``repr`` runs once per run of values with the same
    bit pattern (so ``0.0`` and ``-0.0`` are two runs), not once per row:
    a run is that many copies of one ``%d,<repr>`` row, and one ``%`` fills
    in the frame numbers (no ``repr`` of a number holds a ``%``)."""
    bits = values.view(np.int64)
    first = np.ones(len(values), dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    firsts = np.flatnonzero(first)
    counts = np.diff(firsts, append=len(values))
    rows = "".join([f"%d,{v!r}\r\n" * c for v, c in zip(values[firsts].tolist(), counts.tolist())])
    return rows % tuple(range(start, start + len(values)))


def _write_frame_csv(path, header, values) -> None:
    """Blocks stream through the file's buffer, so no string of the whole
    body is built."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(
            _frame_text(lo, values[lo : lo + _BLOCK_LINES])
            for lo in range(0, len(values), _BLOCK_LINES)
        )


@_utf8_text
def _read_frame_csv(path, column, parse, dtype) -> np.ndarray:
    """Rows ``frame,<column>`` after an optional header, frames contiguous
    from 0. ``parse`` turns a field into a value or raises ValueError. Text
    in the written form takes the block path; any other text, and every
    error, goes row by row."""
    with open(path, encoding="utf-8", newline="") as fh:
        values = _read_canonical(fh, column, parse, dtype)
        if values is None:
            fh.seek(0)
            values = np.asarray(_read_csv_rows(path, fh, column, parse), dtype=dtype)
    return values


def _read_canonical(fh, column, parse, dtype):
    """The values of a file holding exactly the text ``_write_frame_csv``
    writes, block by block; None for any other text. A block is taken only
    if its values write it back byte for byte, so each value is the one
    ``_read_csv_rows`` would parse from the same field. A block is
    ``_BLOCK_CHARS`` characters and the rest of the line they end in, so a
    CRLF split between the two halves stays whole."""
    if fh.readline() != f"frame,{column}\r\n":
        return None
    blocks = [np.empty(0, dtype=dtype)]
    start = 0
    while block := fh.read(_BLOCK_CHARS):
        block += fh.readline()
        fields = block.replace("\r\n", ",").split(",")[1::2]
        try:
            parsed = {field: parse(field) for field in set(fields)}
        except ValueError:
            return None
        values = np.fromiter(map(parsed.__getitem__, fields), dtype)
        if _frame_text(start, values) != block:
            return None
        blocks.append(values)
        start += len(values)
    return np.concatenate(blocks)


def _read_csv_rows(path, fh, column, parse) -> list:
    """Any text ``csv.reader`` splits into such rows; the one place that
    words what is wrong with a row."""
    values = []
    for lineno, row in enumerate(csv.reader(fh), start=1):
        if not row:
            continue
        if lineno == 1 and row[0] == "frame":
            if row != ["frame", column]:
                raise ValidationError(f"{path}:1: expected the header 'frame,{column}', got {row}")
            continue
        if len(row) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 'frame,{column}', got {row}")
        try:
            if "_" in row[0] or "_" in row[1]:
                raise ValueError(f"'_' is not allowed in a number, got {row}")
            if not (row[0].isascii() and row[1].isascii()):
                raise ValueError(f"a number must be ASCII, got {row}")
            frame, value = int(row[0]), parse(row[1])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if frame != len(values):
            raise ValidationError(
                f"{path}:{lineno}: frames must be contiguous from 0, got {frame} "
                f"at position {len(values)}"
            )
        values.append(value)
    return values


def _label(field: str) -> int:
    label = int(field)
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return label


def _score(field: str) -> float:
    score = float(field)
    if not math.isfinite(score):
        raise ValueError(f"score must be finite, got {field!r}")
    return score


def write_labels(path, labels) -> None:
    _write_frame_csv(path, "frame,label", np.asarray(labels, dtype=np.int64))


_LABELS_HEADER = b"frame,label\r\n"
_DIGIT_BYTES = [b"%d" % digit for digit in range(10)]
_LABEL_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _digit_column(lo, hi, place) -> bytes:
    """The ASCII digit at ``place`` (1, 10, 100, ...) of each frame in
    ``range(lo, hi)``: runs of ``place`` equal digits. At most ten runs,
    one period, are built and then repeated, so the bytes built exceed the
    column by fewer than eleven runs."""
    first, last = lo // place, (hi - 1) // place
    period = b"".join([_DIGIT_BYTES[q % 10] * place for q in range(first, min(last, first + 9) + 1)])
    start = lo - first * place
    return (period * ((start + hi - lo - 1) // len(period) + 1))[start : start + hi - lo]


def _fixed_width_labels(raw: bytes):
    """The labels of a file holding exactly the bytes ``write_labels``
    writes; None for any other bytes. A frame of k digits is a row of
    k + 4 bytes, ``<frame>,<label>`` and CR LF, so the rows of one digit
    count form a fixed-width slab, each of whose columns is one strided
    slice of ``raw``, compared whole. The slabs must cover ``raw`` to its
    last byte."""
    if not raw.startswith(_LABELS_HEADER):
        return None
    labels = []
    pos, lo, digits = len(_LABELS_HEADER), 0, 1
    while pos < len(raw):
        width = digits + 4
        hi = min(10**digits, lo + (len(raw) - pos) // width)
        if hi == lo:  # fewer bytes left than one row holds
            return None
        count = hi - lo
        end = pos + count * width
        *frame, comma, label, cr, lf = [raw[pos + j : end : width] for j in range(width)]
        if (comma, cr, lf) != (b"," * count, b"\r" * count, b"\n" * count) or label.translate(None, b"01"):
            return None
        if any(column != _digit_column(lo, hi, 10**place) for place, column in enumerate(reversed(frame))):
            return None
        labels.append(label)
        pos, lo, digits = end, hi, digits + 1
    return np.frombuffer(b"".join(labels).translate(_LABEL_VALUES), dtype=np.int8).astype(np.int64)


@_utf8_text
def read_labels(path) -> np.ndarray:
    """Labels written by ``write_labels`` are read as fixed-width byte rows;
    any other text, and every error, goes row by row."""
    labels = _fixed_width_labels(Path(path).read_bytes())
    if labels is None:
        with open(path, encoding="utf-8", newline="") as fh:
            labels = np.asarray(_read_csv_rows(path, fh, "label", _label), dtype=np.int64)
    return labels


def write_scores(path, frame_scores) -> None:
    _write_frame_csv(path, "frame,score", np.asarray(frame_scores, dtype=np.float64))


def read_scores(path) -> np.ndarray:
    return _read_frame_csv(path, "score", _score, np.float64)


def write_loss_history(path, loss_history) -> None:
    _write_frame_csv(path, "iteration,loss", np.asarray(loss_history, dtype=np.float64))


_CONFIG_PARSERS = {
    f.name: int if f.name in INT_SETTINGS else float for f in fields(PipelineConfig)
}


@_utf8_text
def read_config(path) -> PipelineConfig:
    """Parse a flat key=value file. Unknown keys are hard errors, catching
    typos before a long run."""
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_PARSERS:
                raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in overrides:
                raise ValidationError(f"{path}:{lineno}: duplicate config key {key!r}")
            try:
                if not value.isascii():
                    raise ValueError(f"a number must be ASCII, got {value!r}")
                overrides[key] = _CONFIG_PARSERS[key](value)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return PipelineConfig(**overrides)


def write_config(path, config: PipelineConfig) -> None:
    lines = [f"{key} = {value}" for key, value in config.as_dict().items() if value is not None]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
