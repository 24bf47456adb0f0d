"""Reading and writing the on-disk formats.

One walk lives in a `.poses.json` document: a header object (fps required,
subject height and source tag optional) and a frames array; each frame record
carries an optional 2D joint map and an optional 3D joint map keyed by the
canonical joint names with spaces ("Left Ankle").  A missing joint is an
absent key, never a null.  Coordinates are serialized with 10 significant
digits, which keeps the parse(write(s)) round-trip within 5e-10 relative.

Parsing is total: any byte input produces either a SkeletonSequence or one of
the typed errors (MalformedDocument, UnknownJoint, NonMonotonicFrames,
NonPositiveDepth, MissingHeaderField) - never an unhandled exception.  Any
JSON layout of the document is read.  Its frames are decoded one at a time
into flat typed buffers, so the parse holds the document's text and 8 bytes
per value and per joint record, never a tree of the whole document; a
document the frame-by-frame scan does not read, or one with an error, is
read whole, and that reading defines every result and error.  Writing goes
frame by frame too: `stream_chunks` yields the bytes of `write_stream` one
frame at a time.

Also here: the per-walk `.gait.csv` report table (fixed column order), the
long-format matched-measurements CSV consumed by the agreement command, and
the `.truth.json` sidecar carrying a synthetic walk's ground truth.
"""

import csv
import json
import math
from array import array
from dataclasses import asdict
from typing import Iterable, Iterator, Mapping, Optional, TextIO, Union

import numpy as np

from .errors import MalformedDocument, MissingHeaderField, StrideLabError
from .report import PARAMETERS
from .skeleton import N_JOINTS, JointId, SkeletonSequence, canonical_joint
from .walker import GroundTruth

GAIT_CSV_COLUMNS = ("walk_id", "source", *(p.name for p in PARAMETERS))

MATCHED_CSV_COLUMNS = ("walk_id", "subject_id", "method", "parameter", "value")

_FLOAT_FMT = "%.10g"


def _round10(v: float) -> float:
    return float(_FLOAT_FMT % v)


def _rounded(obj):
    """A copy of a dict/list/tuple tree with every float rounded as
    `_round10` rounds it; tuples become lists, as JSON writes them."""
    if isinstance(obj, float):
        return _round10(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def _json_bytes(doc) -> bytes:
    """A JSON result file: indented by one space, UTF-8, ending in a newline."""
    return json.dumps(doc, indent=1).encode("utf-8") + b"\n"


def _fmt(v: float) -> str:
    return _FLOAT_FMT % v


def _require_number(obj, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise MalformedDocument(f"{what} must be a number, got {obj!r}")
    try:
        value = float(obj)
    except OverflowError:
        raise MalformedDocument(f"{what} is too large for a float") from None
    if not math.isfinite(value):
        raise MalformedDocument(f"{what} must be finite, got {obj!r}")
    return value


# The fields of a joint record in each joint map, with their defaults.
_FIELDS = {
    "joints_2d": (("x", None), ("y", None), ("confidence", 1.0)),
    "joints_3d": (("x", None), ("y", None), ("z", None)),
}
_LABELS = tuple(j.label for j in JointId)  # in column order
# Per joint map, the SkeletonSequence mask it fills, then each block with
# the fields (a slice or one index of _FIELDS[key]) that it takes.
_BLOCK_NAMES = {
    "joints_2d": ("mask_2d", ("pixels_2d", slice(0, 2)), ("confidence_2d", 2)),
    "joints_3d": ("mask_3d", ("points_3d", slice(0, 3))),
}


def _parse_joints(obj, key: str, columns: dict, where: str, base: int,
                  cells: array, values: array) -> None:
    """Append one frame's joint map `key`: each record's flat cell, `base`
    plus its joint's column, to `cells`, and its values in _FIELDS[key]
    order to `values`.

    `columns` caches each joint name's column (None: dropped) over a
    document."""
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where}: {key} must be an object")
    fields = _FIELDS[key]
    for name, rec in obj.items():
        if name not in columns:
            joint = canonical_joint(name)
            columns[name] = None if joint is None else joint.value
        col = columns[name]
        if col is None:
            continue
        if not isinstance(rec, dict):
            raise MalformedDocument(f"{where}: joint {name!r} must be an object")
        cells.append(base + col)
        for field, default in fields:
            v = rec.get(field, default)
            if type(v) is float and math.isfinite(v):
                values.append(v)
            else:
                values.append(_require_number(v, f"{where}: {name}.{field}"))


def _text(data: Union[bytes, str], what: str) -> str:
    """`data` as text; invalid UTF-8 raises MalformedDocument naming `what`."""
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"{what} is not valid UTF-8: {exc}") from exc
    return data


def load_json_object(data: Union[bytes, str], what: str) -> dict:
    """The JSON object that `data` holds; `what` ("document", "sidecar")
    names it in the MalformedDocument raised for invalid UTF-8, invalid
    JSON, nesting too deep for the parser, an integer too long to convert
    and a top level that is not an object."""
    data = _text(data, what)
    try:
        doc = json.loads(data)
    except RecursionError:
        raise MalformedDocument(f"{what} is not valid JSON: nested too deeply") from None
    except ValueError as exc:  # a JSONDecodeError or an over-long integer
        raise MalformedDocument(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument(f"{what} top level must be an object")
    return doc


class _FrameReader:
    """Reads frame records, in order, into flat typed buffers: each frame's
    index and time and, per joint map met, each joint record's flat
    (frame, joint) cell and field values.  `sequence` builds the
    SkeletonSequence's blocks from them, one assignment per array, and
    hands them over without a copy."""

    def __init__(self) -> None:
        self.indices = array("q")
        self.times = array("d")
        self.maps: dict = {}     # joint map key -> (cells, values) buffers
        self.columns: dict = {}  # the `_parse_joints` cache

    def read(self, rec) -> None:
        pos = len(self.indices)
        where = f"frames[{pos}]"
        if not isinstance(rec, dict):
            raise MalformedDocument(f"{where} must be an object")
        idx = rec.get("index")
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise MalformedDocument(f"{where}.index must be an integer")
        try:
            self.indices.append(idx)
        except OverflowError:
            raise MalformedDocument(f"{where}.index {idx} exceeds 64 bits") from None
        self.times.append(_require_number(rec.get("time_s"), f"{where}.time_s"))
        for key in _FIELDS:
            if key in rec:
                if key not in self.maps:
                    self.maps[key] = array("q"), array("d")
                _parse_joints(rec[key], key, self.columns, where, pos * N_JOINTS,
                              *self.maps[key])

    def sequence(self, fps: float, height: Optional[float], source: str) -> SkeletonSequence:
        """The frames read, under this header.  A modality's block exists
        when some frame carried its joint map; where one frame names a
        joint twice in a map, the last record counts."""
        F = len(self.indices)
        blocks: dict = {}
        for key, (cells, values) in self.maps.items():
            cells = np.frombuffer(cells, dtype=np.int64)
            values = np.frombuffer(values).reshape(-1, len(_FIELDS[key]))
            present = np.zeros(F * N_JOINTS, dtype=bool)
            present[cells] = True
            # numpy leaves unspecified which of two assignments to one cell
            # lands, so a cell met twice keeps its last record explicitly.
            if np.count_nonzero(present) < len(cells):
                last = len(cells) - 1 - np.unique(cells[::-1], return_index=True)[1]
                cells, values = cells[last], values[last]
            mask, *arrays = _BLOCK_NAMES[key]
            blocks[mask] = present.reshape(F, N_JOINTS)
            for name, part in arrays:
                taken = values[:, part]
                block = np.zeros((F * N_JOINTS,) + taken.shape[1:])
                block[cells] = taken
                blocks[name] = block.reshape((F, N_JOINTS) + taken.shape[1:])
        try:
            return SkeletonSequence(fps=fps, times=np.frombuffer(self.times),
                                    indices=np.frombuffer(self.indices, dtype=np.int64),
                                    subject_height_m=height, source=source, _owned=True,
                                    **blocks)
        except StrideLabError:
            raise
        except ValueError as exc:
            raise MalformedDocument(str(exc)) from exc


_decode = json.JSONDecoder().raw_decode


def _skip(text: str, pos: int) -> int:
    """The position of the first non-whitespace character from `pos` on."""
    return json.decoder.WHITESPACE.match(text, pos).end()


class _Unscanned(ValueError):
    """A document layout that `_scan` leaves to the whole-document parser."""


def _scan(text: str, read_frame) -> dict:
    """The top-level members of the JSON object in `text`, decoded one at a
    time.  Each element of the `frames` array goes to `read_frame` as soon
    as it is decoded, and `frames` maps to an empty list.

    Raises _Unscanned for a top level that is not an object, a repeated
    key, `frames` that is not an array, and trailing data, and the
    decoder's errors for invalid JSON."""
    pos = _skip(text, 0)
    if not text.startswith("{", pos):
        raise _Unscanned
    members: dict = {}
    while True:
        pos = _skip(text, pos + 1)
        if not text.startswith('"', pos):
            raise _Unscanned  # an empty object or a trailing comma
        key, pos = _decode(text, pos)
        pos = _skip(text, pos)
        if key in members or not text.startswith(":", pos):
            raise _Unscanned
        pos = _skip(text, pos + 1)
        if key == "frames":
            pos = _scan_array(text, pos, read_frame)
            members[key] = []
        else:
            members[key], pos = _decode(text, pos)
        pos = _skip(text, pos)
        if not text.startswith(",", pos):
            break
    if not text.startswith("}", pos) or _skip(text, pos + 1) != len(text):
        raise _Unscanned
    return members


def _scan_array(text: str, pos: int, read_element) -> int:
    """Hand each element of the JSON array at `pos` to `read_element` as it
    is decoded; the position after the array."""
    if not text.startswith("[", pos):
        raise _Unscanned
    pos = _skip(text, pos + 1)
    if text.startswith("]", pos):
        return pos + 1
    while True:
        element, pos = _decode(text, pos)
        read_element(element)
        pos = _skip(text, pos)
        if not text.startswith(",", pos):
            break
        pos = _skip(text, pos + 1)
    if not text.startswith("]", pos):
        raise _Unscanned
    return pos + 1


def parse_stream(data: Union[bytes, str]) -> SkeletonSequence:
    """Parse one `.poses.json` document into a SkeletonSequence.

    Frames are decoded and read one at a time, so no tree of the whole
    document is built.  A layout `_scan` does not read, and any document
    with an error, is read again whole by `load_json_object` into a fresh
    reader: that path defines every result and error, and checks the header
    before any frame.  Every frame is kept.  A modality's block exists when
    some frame carries its joint map; frames without the map then have none
    of its joints."""
    text = _text(data, "document")
    frames = _FrameReader()
    try:
        doc = _scan(text, frames.read)
    except (ValueError, RecursionError, StrideLabError):
        doc, frames = load_json_object(text, "document"), _FrameReader()
    del text  # a decoded copy of bytes is not kept while the arrays are built

    header = doc.get("header")
    if not isinstance(header, dict):
        raise MalformedDocument("missing or invalid 'header' object")
    if "fps" not in header:
        raise MissingHeaderField("header field 'fps' is required")
    fps = _require_number(header["fps"], "header.fps")
    height: Optional[float] = None
    if header.get("subject_height_m") is not None:
        height = _require_number(header["subject_height_m"], "header.subject_height_m")
    source = header.get("source", "")
    if not isinstance(source, str):
        raise MalformedDocument("header.source must be a string")

    records = doc.get("frames")
    if not isinstance(records, list):
        raise MalformedDocument("missing or invalid 'frames' array")
    for rec in records:
        frames.read(rec)
    return frames.sequence(fps, height, source)


def _record_templates(key: str) -> tuple[str, ...]:
    """Per joint column, the `%r` template of its record in joint map `key`,
    indented as `_json_bytes` indents it inside a frame."""
    body = ",\n".join(f'     "{field}": %r' for field, _ in _FIELDS[key])
    return tuple(f"    {json.dumps(label)}: {{\n{body}\n    }}" for label in _LABELS)


_RECORD_TEMPLATES = {key: _record_templates(key) for key in _FIELDS}


def stream_chunks(seq: SkeletonSequence) -> Iterator[bytes]:
    """The bytes of `write_stream(seq)` in order: the header, each frame,
    then the closing bytes, each chunk encoded as it is formatted."""
    header = {"fps": _round10(seq.fps)}
    if seq.subject_height_m is not None:
        header["subject_height_m"] = _round10(seq.subject_height_m)
    header["source"] = seq.source
    yield "".join((
        "{\n \"header\": {\n",
        ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in header.items()),
        "\n },\n \"frames\": ",
    )).encode("utf-8")

    maps = []  # (key, presence, values) per joint map
    if seq.pixels_2d is not None:
        values = np.concatenate([seq.pixels_2d, seq.confidence_2d[..., None]], axis=2)
        maps.append(("joints_2d", seq.mask_2d, values))
    if seq.points_3d is not None:
        maps.append(("joints_3d", seq.mask_3d, seq.points_3d))

    opening = "[\n"
    for f, (i, t) in enumerate(zip(seq.indices.tolist(), seq.times.tolist())):
        parts = [f'{opening}  {{\n   "index": {i!r},\n   "time_s": {_round10(t)!r}']
        for key, present, values in maps:
            templates, row = _RECORD_TEMPLATES[key], values[f].tolist()
            joints = [templates[j] % tuple(map(_round10, row[j]))
                      for j, seen in enumerate(present[f].tolist()) if seen]
            body = "{\n" + ",\n".join(joints) + "\n   }" if joints else "{}"
            parts.append(f'   "{key}": {body}')
        yield (",\n".join(parts) + "\n  }").encode("utf-8")
        opening = ",\n"
    yield b"\n ]\n}\n" if len(seq) else b"[]\n}\n"


def write_stream(seq: SkeletonSequence) -> bytes:
    """Serialize a SkeletonSequence; deterministic byte-for-byte.

    The bytes are those of `_json_bytes` on the document, but the frames are
    formatted by `stream_chunks`, one `%r` template per joint record: the
    pure-Python encoder that `indent` selects takes about twice as long."""
    return b"".join(stream_chunks(seq))


def write_gait_csv(
    fp: TextIO, entries: Iterable[tuple[str, str, Mapping[str, float]]]
) -> None:
    """Write the per-walk report table: (walk_id, source, values) per row,
    values mapping each of the four gait parameter names to its value."""
    w = csv.writer(fp, lineterminator="\n")
    w.writerow(GAIT_CSV_COLUMNS)
    for walk_id, source, values in entries:
        w.writerow([walk_id, source, *(_fmt(values[k]) for k in GAIT_CSV_COLUMNS[2:])])


def write_matched_csv(
    fp: TextIO, records: Iterable[tuple[str, str, str, str, float]]
) -> None:
    """Long-format measurements: walk_id, subject_id, method, parameter, value."""
    w = csv.writer(fp, lineterminator="\n")
    w.writerow(MATCHED_CSV_COLUMNS)
    for walk_id, subject_id, method, parameter, value in records:
        w.writerow([walk_id, subject_id, method, parameter, _fmt(value)])


def read_matched_csv(fp: TextIO) -> list[tuple[str, str, str, str, float]]:
    """The records of a matched CSV, which holds one row per (walk_id,
    method, parameter) with a finite value; a repeated row or any other
    value raises MalformedDocument."""
    reader = csv.reader(fp)
    try:
        head = next(reader)
    except StopIteration:
        raise MalformedDocument("empty matched CSV") from None
    if tuple(head) != MATCHED_CSV_COLUMNS:
        raise MalformedDocument(
            f"matched CSV columns must be {MATCHED_CSV_COLUMNS}, got {tuple(head)}"
        )
    out = []
    first: dict[tuple[str, str, str], int] = {}
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 5:
            raise MalformedDocument(f"line {lineno}: expected 5 cells, got {len(row)}")
        try:
            value = float(row[4])
        except ValueError:
            value = math.nan
        # A NaN or infinite value would silently drop its parameter from
        # every comparison, so it fails the file like any malformed cell.
        if not math.isfinite(value):
            raise MalformedDocument(
                f"line {lineno}: value is not a finite number: {row[4]!r}"
            )
        key = (row[0], row[2], row[3])
        if first.setdefault(key, lineno) != lineno:
            raise MalformedDocument(
                f"line {lineno}: walk {row[0]!r}, method {row[2]!r}, parameter "
                f"{row[3]!r} repeats line {first[key]}"
            )
        out.append((row[0], row[1], row[2], row[3], value))
    return out


def write_truth(truth: GroundTruth) -> bytes:
    """Serialize a synthetic walk's ground truth as a `.truth.json` sidecar."""
    doc = {p.truth_key: getattr(truth, p.truth_key) for p in PARAMETERS}
    doc.update(n_steps=truth.n_steps, duration_s=truth.duration_s,
               heading=truth.heading, schedule=[asdict(st) for st in truth.schedule])
    return _json_bytes(_rounded(doc))


def read_truth(data: Union[bytes, str]) -> dict:
    """Parse a `.truth.json` sidecar into a plain dict."""
    doc = load_json_object(data, "sidecar")
    for key in (p.truth_key for p in PARAMETERS):
        if key not in doc:
            raise MissingHeaderField(f"sidecar field {key!r} is required")
        _require_number(doc[key], key)
    return doc
