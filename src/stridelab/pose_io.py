"""Reading and writing the on-disk formats.

One walk lives in a `.poses.json` document: a header object (fps required,
subject height and source tag optional) and a frames array; each frame record
carries an optional 2D joint map and an optional 3D joint map keyed by the
canonical joint names with spaces ("Left Ankle").  A missing joint is an
absent key, never a null.  Coordinates are serialized with 10 significant
digits, which keeps the parse(write(s)) round-trip within 5e-10 relative.

Parsing is total: any byte input produces either a SkeletonSequence or one of
the typed errors (MalformedDocument, UnknownJoint, NonMonotonicFrames,
NonPositiveDepth, MissingHeaderField) - never an unhandled exception.

Also here: the per-walk `.gait.csv` report table (fixed column order), the
long-format matched-measurements CSV consumed by the agreement command, and
the `.truth.json` sidecar carrying a synthetic walk's ground truth.
"""

import csv
import json
import math
from dataclasses import asdict
from typing import Iterable, Mapping, Optional, TextIO, Union

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


def _parse_joints(obj, key: str, columns: dict, where: str) -> dict:
    """One frame's joint map `key` -> {column: values in _FIELDS[key] order}.

    `columns` caches each joint name's column (None: dropped) over a
    document."""
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where}: {key} must be an object")
    out: dict[int, list] = {}
    for name, rec in obj.items():
        if name not in columns:
            joint = canonical_joint(name)
            columns[name] = None if joint is None else joint.value
        col = columns[name]
        if col is None:
            continue
        if not isinstance(rec, dict):
            raise MalformedDocument(f"{where}: joint {name!r} must be an object")
        values = out[col] = []
        for field, default in _FIELDS[key]:
            v = rec.get(field, default)
            if type(v) is not float or not math.isfinite(v):
                v = _require_number(v, f"{where}: {name}.{field}")
            values.append(v)
    return out


def parse_stream(data: Union[bytes, str]) -> SkeletonSequence:
    """Parse one `.poses.json` document into a SkeletonSequence.

    Every frame is kept.  A modality's block exists when some frame carries
    its joint map; frames without the map then have none of its joints."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"document is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("top level must be an object")

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

    F = len(records)
    indices = np.empty(F, dtype=np.int64)
    times = np.empty(F)
    # Per joint map present in the document: (F, J, 3) values and (F, J) mask.
    maps = {key: (np.zeros((F, N_JOINTS, 3)), np.zeros((F, N_JOINTS), dtype=bool))
            for key in _FIELDS if any(isinstance(r, dict) and key in r for r in records)}
    columns: dict = {}
    for pos, rec in enumerate(records):
        where = f"frames[{pos}]"
        if not isinstance(rec, dict):
            raise MalformedDocument(f"{where} must be an object")
        idx = rec.get("index")
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise MalformedDocument(f"{where}.index must be an integer")
        try:
            indices[pos] = idx
        except OverflowError:
            raise MalformedDocument(f"{where}.index {idx} exceeds 64 bits") from None
        times[pos] = _require_number(rec.get("time_s"), f"{where}.time_s")
        for key, (values, present) in maps.items():
            joints = _parse_joints(rec.get(key, {}), key, columns, where)
            if joints:
                values[pos, list(joints)] = list(joints.values())
                present[pos, list(joints)] = True

    blocks: dict = {}
    if "joints_2d" in maps:
        values, blocks["mask_2d"] = maps["joints_2d"]
        blocks["pixels_2d"], blocks["confidence_2d"] = values[..., :2], values[..., 2]
    if "joints_3d" in maps:
        blocks["points_3d"], blocks["mask_3d"] = maps["joints_3d"]
    try:
        return SkeletonSequence(fps=fps, times=times, indices=indices,
                                subject_height_m=height, source=source, **blocks)
    except StrideLabError:
        raise
    except ValueError as exc:
        raise MalformedDocument(str(exc)) from exc


def _record_templates(key: str) -> tuple[str, ...]:
    """Per joint column, the `%r` template of its record in joint map `key`,
    indented as `_json_bytes` indents it inside a frame."""
    body = ",\n".join(f'     "{field}": %r' for field, _ in _FIELDS[key])
    return tuple(f"    {json.dumps(label)}: {{\n{body}\n    }}" for label in _LABELS)


_RECORD_TEMPLATES = {key: _record_templates(key) for key in _FIELDS}


def write_stream(seq: SkeletonSequence) -> bytes:
    """Serialize a SkeletonSequence; deterministic byte-for-byte.

    The bytes are those of `_json_bytes` on the document, but the frames are
    formatted here, one `%r` template per joint record: the pure-Python
    encoder that `indent` selects takes about twice as long."""
    header = {"fps": _round10(seq.fps)}
    if seq.subject_height_m is not None:
        header["subject_height_m"] = _round10(seq.subject_height_m)
    header["source"] = seq.source

    maps = []  # (key, presence, values) per joint map, as nested lists
    if seq.pixels_2d is not None:
        values = np.concatenate([seq.pixels_2d, seq.confidence_2d[..., None]], axis=2)
        maps.append(("joints_2d", seq.mask_2d.tolist(), values.tolist()))
    if seq.points_3d is not None:
        maps.append(("joints_3d", seq.mask_3d.tolist(), seq.points_3d.tolist()))

    frames = []
    for f, (i, t) in enumerate(zip(seq.indices.tolist(), seq.times.tolist())):
        parts = [f'  {{\n   "index": {i!r},\n   "time_s": {_round10(t)!r}']
        for key, present, values in maps:
            templates, row = _RECORD_TEMPLATES[key], values[f]
            joints = [templates[j] % tuple(map(_round10, row[j]))
                      for j, seen in enumerate(present[f]) if seen]
            body = "{\n" + ",\n".join(joints) + "\n   }" if joints else "{}"
            parts.append(f'   "{key}": {body}')
        frames.append(",\n".join(parts) + "\n  }")

    text = "".join((
        "{\n \"header\": {\n",
        ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in header.items()),
        "\n },\n \"frames\": ",
        "[\n" + ",\n".join(frames) + "\n ]" if frames else "[]",
        "\n}\n",
    ))
    return text.encode("utf-8")


def write_gait_csv(
    fp: TextIO, entries: Iterable[tuple[str, str, Mapping[str, float]]]
) -> None:
    """Write the per-walk report table: (walk_id, source, values) per row,
    values mapping each of the four gait parameter names to its value."""
    w = csv.writer(fp, lineterminator="\n")
    w.writerow(GAIT_CSV_COLUMNS)
    for walk_id, source, values in entries:
        w.writerow([walk_id, source, *(_fmt(values[k]) for k in GAIT_CSV_COLUMNS[2:])])


def read_gait_csv(fp: TextIO) -> list[dict]:
    """Read a `.gait.csv` back into one dict per walk (floats parsed)."""
    reader = csv.reader(fp)
    try:
        head = next(reader)
    except StopIteration:
        raise MalformedDocument("empty gait CSV") from None
    if tuple(head) != GAIT_CSV_COLUMNS:
        raise MalformedDocument(
            f"gait CSV columns must be {GAIT_CSV_COLUMNS}, got {tuple(head)}"
        )
    out = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(GAIT_CSV_COLUMNS):
            raise MalformedDocument(f"line {lineno}: expected {len(GAIT_CSV_COLUMNS)} cells")
        rec: dict = {"walk_id": row[0], "source": row[1]}
        for key, cell in zip(GAIT_CSV_COLUMNS[2:], row[2:]):
            try:
                rec[key] = float(cell)
            except ValueError:
                raise MalformedDocument(
                    f"line {lineno}: {key} is not a number: {cell!r}"
                ) from None
        out.append(rec)
    return out


def write_matched_csv(
    fp: TextIO, records: Iterable[tuple[str, str, str, str, float]]
) -> None:
    """Long-format measurements: walk_id, subject_id, method, parameter, value."""
    w = csv.writer(fp, lineterminator="\n")
    w.writerow(MATCHED_CSV_COLUMNS)
    for walk_id, subject_id, method, parameter, value in records:
        w.writerow([walk_id, subject_id, method, parameter, _fmt(value)])


def read_matched_csv(fp: TextIO) -> list[tuple[str, str, str, str, float]]:
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
    for lineno, row in enumerate(reader, start=2):
        if len(row) != 5:
            raise MalformedDocument(f"line {lineno}: expected 5 cells, got {len(row)}")
        try:
            value = float(row[4])
        except ValueError:
            raise MalformedDocument(
                f"line {lineno}: value is not a number: {row[4]!r}"
            ) from None
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
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocument(f"sidecar is not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"sidecar is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedDocument("sidecar top level must be an object")
    for key in (p.truth_key for p in PARAMETERS):
        if key not in doc:
            raise MissingHeaderField(f"sidecar field {key!r} is required")
        _require_number(doc[key], key)
    return doc
