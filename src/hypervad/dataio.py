"""On-disk formats: binary embeddings, captions JSONL, label/score CSVs,
key=value config files, and the JSON run report.

Embedding container (little-endian): magic "MMVE", version u32 = 1,
modality u8 (0=visual, 1=audio, 2=text), dim u32, count u32, then
count * dim float32 values row-major. Values are widened to float64 on
load; all other formats are UTF-8 text.

Each reader opens its input file once, and two rules hold before it parses
anything: a path that names no file is the one issue "<what> file not
found: <path>", and a text file that is not UTF-8 is the one issue naming
the line of its first bad byte, whatever else is wrong with it.

A captions line is parsed by the C scanner behind ``json.loads``, and its
values become one row of the SegmentTable after one exact test of their
types and int64 range; the table's columns are built from the rows at the
end. A labels file in the form it is written is read whole as bytes: the
rows of frames with the same number of digits have one width, so each such
slab is checked column by column, each column one strided bytes slice; any
other labels text takes the per-row path, which words every error. A scores
file is always read row by row on that path.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .core import INT64_MAX, INT_SETTINGS, Modality, PipelineConfig, SegmentTable, ValidationError

MAGIC = b"MMVE"
VERSION = 1
_HEADER = struct.Struct("<4sIBII")
# The header's modality byte, as listed in the module docstring.
MODALITY_CODES = {Modality.VISUAL: 0, Modality.AUDIO: 1, Modality.TEXT: 2}


def integer(text: str) -> int:
    """``int(text)`` under the number rule of every file and option: no
    ``_`` and ASCII only, where ``int("1_0")`` reads 10 and ``int("٣")``
    reads 3. A ValueError otherwise."""
    return int(_number_text(text))


def real(text: str) -> float:
    """``float(text)`` under the number rule of :func:`integer`."""
    return float(_number_text(text))


def _number_text(text: str) -> str:
    if "_" in text:
        raise ValueError(f"'_' is not allowed in a number, got {text!r}")
    if not text.isascii():
        raise ValueError(f"a number must be ASCII, got {text!r}")
    return text


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
    count, dim = values.shape
    header = _HEADER.pack(MAGIC, VERSION, MODALITY_CODES[modality], dim, count)
    Path(path).write_bytes(header + values.tobytes())


def _read_input(path, what: str, text: bool = True) -> bytes:
    """The bytes of input file ``path`` under the module's two rules, the
    UTF-8 one only for ``text``: the one place an input file is opened."""
    if not Path(path).is_file():
        raise ValidationError(f"{what} file not found: {path}")
    raw = Path(path).read_bytes()
    if text:
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = raw[: exc.start]
            lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1  # CR, LF, CRLF
            raise ValidationError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} "
                                  f"(byte 0x{raw[exc.start]:02x} at offset {exc.start})") from exc
    return raw


def _lines(raw: bytes, newline=None):
    """UTF-8 ``raw``'s lines as ``open`` yields them with ``newline``, a
    buffer at a time: an ``io.StringIO`` would hold 4 bytes per character."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline=newline)


def read_embeddings(path, modality: Modality) -> np.ndarray:
    """The (count, dim) float64 array of an embedding file whose header
    names ``modality``; any other modality code is a ValidationError."""
    raw = _read_input(path, f"{modality.value} embeddings", text=False)
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


# One row per caption-record key, in the order of the SegmentTable columns
# they fill: JSON key, required type, and whether the key may be null or
# absent. Types are checked exactly (``type(v) is int``), so a bool, a float
# or a list never passes as a value, and an int must lie within int64.
_CAPTION_FIELDS = (
    ("index", int, False),
    ("frame_start", int, False),
    ("frame_end", int, False),
    ("visual", str, False),
    ("audio", str, True),
)
_INT64_MIN = -INT64_MAX - 1


def write_captions(path, segments: SegmentTable) -> None:
    """One JSON object per segment, its keys in ``_CAPTION_FIELDS`` order."""
    keys = [key for key, _, _ in _CAPTION_FIELDS]
    rows = zip(segments.index.tolist(), segments.frame_start.tolist(), segments.frame_end.tolist(),
               segments.visual, segments.audio)
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(keys, row))) + "\n")


def _caption_row(obj) -> tuple:
    """The table row of one parsed record, or a ValueError that words what
    is wrong with it: the type of each field in order, then the int64 range
    of each integer."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    row = []
    for key, kind, optional in _CAPTION_FIELDS:
        if key not in obj and not optional:
            raise ValueError(f"missing key {key!r}")
        value = obj.get(key)
        if type(value) is not kind and not (optional and value is None):
            raise ValueError(f"{key!r} must be {kind.__name__}, got {value!r}")
        row.append(value)
    for (key, kind, _), value in zip(_CAPTION_FIELDS, row):
        if kind is int and not _INT64_MIN <= value <= INT64_MAX:
            raise ValueError(f"{key!r} must fit in int64, got {value}")
    return tuple(row)


# The scanner ``json.loads`` runs, without its per-call wrapping: it returns
# the value that starts at an index and the index just past it.
_scan_json = json.JSONDecoder().scan_once


def read_captions(path) -> SegmentTable:
    """The SegmentTable of a captions file, one row per non-blank line. A
    line that is one JSON object whose ``_CAPTION_FIELDS`` have their exact
    types and ranges is taken as the scanner returns its values; any other
    line goes through ``json.loads`` and ``_caption_row``, which word what
    is wrong with it."""
    rows = []
    for lineno, line in enumerate(_lines(_read_input(path, "captions")), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, stop = _scan_json(line, 0)
            row = index, start, end, visual, audio = (
                obj["index"], obj["frame_start"], obj["frame_end"], obj["visual"], obj.get("audio"))
        except (StopIteration, ValueError, KeyError, TypeError, RecursionError):
            stop = None
        if (stop == len(line) and type(index) is int and type(start) is int and type(end) is int
                and type(visual) is str and (audio is None or type(audio) is str)
                and _INT64_MIN <= index <= INT64_MAX and _INT64_MIN <= start <= INT64_MAX
                and _INT64_MIN <= end <= INT64_MAX):
            rows.append(row)
            continue
        try:
            rows.append(_caption_row(json.loads(line)))
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ValidationError(f"{path}:{lineno}: bad caption record: {exc}") from exc
    return SegmentTable.from_rows(rows)


# Rows per block a frame CSV is written in: it bounds the text held at
# once, whatever the file's length.
_BLOCK_LINES = 4096


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


def _read_csv_rows(path, raw, column, parse, dtype) -> np.ndarray:
    """The values of any UTF-8 text ``raw`` (the bytes of ``path``) that
    ``csv.reader`` splits into rows ``frame,<column>``, after an optional
    header, frames contiguous from 0; the one place that words what is wrong
    with a row."""
    values = []
    for lineno, row in enumerate(csv.reader(_lines(raw, newline="")), start=1):
        if not row:
            continue
        if lineno == 1 and row[0] == "frame":
            if row != ["frame", column]:
                raise ValidationError(f"{path}:1: expected the header 'frame,{column}', got {row}")
            continue
        if len(row) != 2:
            raise ValidationError(f"{path}:{lineno}: expected 'frame,{column}', got {row}")
        try:
            frame, value = integer(row[0]), parse(row[1])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
        if frame != len(values):
            raise ValidationError(
                f"{path}:{lineno}: frames must be contiguous from 0, got {frame} "
                f"at position {len(values)}"
            )
        values.append(value)
    return np.asarray(values, dtype=dtype)


def _label(field: str) -> int:
    label = integer(field)
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    return label


def _score(field: str) -> float:
    score = real(field)
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


def read_labels(path) -> np.ndarray:
    """Labels written by ``write_labels`` are read as fixed-width byte rows;
    any other text, and every error, goes row by row over the same bytes."""
    raw = _read_input(path, "labels")
    labels = _fixed_width_labels(raw)
    return _read_csv_rows(path, raw, "label", _label, np.int64) if labels is None else labels


def write_scores(path, frame_scores) -> None:
    _write_frame_csv(path, "frame,score", np.asarray(frame_scores, dtype=np.float64))


def read_scores(path) -> np.ndarray:
    return _read_csv_rows(path, _read_input(path, "scores"), "score", _score, np.float64)


def write_loss_history(path, loss_history) -> None:
    _write_frame_csv(path, "iteration,loss", np.asarray(loss_history, dtype=np.float64))


_CONFIG_PARSERS = {
    f.name: integer if f.name in INT_SETTINGS else real for f in fields(PipelineConfig)
}


def read_config(path, **overrides) -> PipelineConfig:
    """The settings of a flat key=value file, with ``overrides`` over them.
    One ValidationError lists every issue: a path that names no file, a file
    that is not UTF-8 (then no setting is read from it) or each bad line in
    order (unknown keys among them, catching typos before a long run), then
    the settings' own issues."""
    issues, settings, seen, lines = [], {}, set(), ()
    try:
        lines = _lines(_read_input(path, "config"))
    except ValidationError as exc:
        issues += exc.issues
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            issues.append(f"{path}:{lineno}: expected key=value, got {line!r}")
        elif key not in _CONFIG_PARSERS:
            issues.append(f"{path}:{lineno}: unknown config key {key!r}")
        elif key in seen:
            issues.append(f"{path}:{lineno}: duplicate config key {key!r}")
        else:
            seen.add(key)
            try:
                settings[key] = _CONFIG_PARSERS[key](value)
            except ValueError as exc:
                issues.append(f"{path}:{lineno}: bad value for {key}: {exc}")
    try:
        config = PipelineConfig(**{**settings, **overrides})
    except ValidationError as exc:
        issues += exc.issues
    if issues:
        raise ValidationError(issues)
    return config


def write_config(path, config: PipelineConfig) -> None:
    lines = [f"{key} = {value}" for key, value in config.as_dict().items() if value is not None]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_outputs(out_dir, files) -> None:
    """Write ``files``, each a ``(name, write, *args)`` called as
    ``write(path, *args)``, into ``out_dir`` as one set. Each is first
    written to a hidden temporary name there; only after every write has
    succeeded is the last-named file's old copy removed, the others put in
    place and then the last one, so a directory that holds the last-named
    file holds one complete set. Unless the process is killed, no temporary
    file outlives the call."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    staged = []
    try:
        for name, write, *args in files:
            staged.append((out_dir / f".{name}.{os.getpid()}.tmp", out_dir / name))
            write(staged[-1][0], *args)
        staged[-1][1].unlink(missing_ok=True)
        for tmp, path in staged:
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def read_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
