"""Reading and writing the on-disk formats.

One walk lives in a `.poses.json` document: a header object (fps required,
subject height and source tag optional) and a frames array; each frame record
carries an optional 2D joint map and an optional 3D joint map keyed by the
canonical joint names with spaces ("Left Ankle").  A missing joint is an
absent key, never a null.  Coordinates are serialized with 10 significant
digits, which keeps the parse(write(s)) round-trip within 5e-10 relative.

Parsing is total: any byte input produces either a SkeletonSequence or one of
the typed errors (MalformedDocument, UnknownJoint, NonMonotonicFrames,
MissingHeaderField) - never an unhandled exception.

Also here: the per-walk `.gait.csv` report table (fixed column order), the
long-format matched-measurements CSV consumed by the agreement command, and
the `.truth.json` sidecar carrying a synthetic walk's ground truth.
"""

import csv
import io
import json
import math
from typing import Iterable, Mapping, Optional, TextIO, Union

from .errors import (
    MalformedDocument,
    MissingHeaderField,
    NonMonotonicFrames,
    StrideLabError,
)
from .skeleton import (
    JointId,
    Point2D,
    Point3D,
    SkeletonFrame2D,
    SkeletonFrame3D,
    SkeletonSequence,
    canonical_joint,
)
from .walker import GroundTruth

GAIT_CSV_COLUMNS = (
    "walk_id",
    "source",
    "gait_speed_m_s",
    "cadence_steps_min",
    "step_length_cm",
    "step_time_s",
)

MATCHED_CSV_COLUMNS = ("walk_id", "subject_id", "method", "parameter", "value")

_FLOAT_FMT = "%.10g"


def _round10(v: float) -> float:
    return float(_FLOAT_FMT % v)


def _fmt(v: float) -> str:
    return _FLOAT_FMT % v


def _require_number(obj, what: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise MalformedDocument(f"{what} must be a number, got {obj!r}")
    if not math.isfinite(obj):
        raise MalformedDocument(f"{what} must be finite, got {obj!r}")
    return float(obj)


def _parse_joints_2d(obj, where: str) -> dict[JointId, Point2D]:
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where}: joints_2d must be an object")
    out: dict[JointId, Point2D] = {}
    for name, rec in obj.items():
        joint = canonical_joint(name)
        if joint is None:
            continue
        if not isinstance(rec, dict):
            raise MalformedDocument(f"{where}: joint {name!r} must be an object")
        x = _require_number(rec.get("x"), f"{where}: {name}.x")
        y = _require_number(rec.get("y"), f"{where}: {name}.y")
        conf = rec.get("confidence", 1.0)
        out[joint] = Point2D(x, y, _require_number(conf, f"{where}: {name}.confidence"))
    return out


def _parse_joints_3d(obj, where: str) -> dict[JointId, Point3D]:
    if not isinstance(obj, dict):
        raise MalformedDocument(f"{where}: joints_3d must be an object")
    out: dict[JointId, Point3D] = {}
    for name, rec in obj.items():
        joint = canonical_joint(name)
        if joint is None:
            continue
        if not isinstance(rec, dict):
            raise MalformedDocument(f"{where}: joint {name!r} must be an object")
        out[joint] = Point3D(
            _require_number(rec.get("x"), f"{where}: {name}.x"),
            _require_number(rec.get("y"), f"{where}: {name}.y"),
            _require_number(rec.get("z"), f"{where}: {name}.z"),
        )
    return out


def parse_stream(data: Union[bytes, str]) -> SkeletonSequence:
    """Parse one `.poses.json` document into a SkeletonSequence."""
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

    has_2d = any(isinstance(r, dict) and "joints_2d" in r for r in records)
    has_3d = any(isinstance(r, dict) and "joints_3d" in r for r in records)
    frames_2d: list[SkeletonFrame2D] = []
    frames_3d: list[SkeletonFrame3D] = []
    prev_index: Optional[int] = None
    prev_time: Optional[float] = None
    for pos, rec in enumerate(records):
        where = f"frames[{pos}]"
        if not isinstance(rec, dict):
            raise MalformedDocument(f"{where} must be an object")
        idx = rec.get("index")
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise MalformedDocument(f"{where}.index must be an integer")
        time_s = _require_number(rec.get("time_s"), f"{where}.time_s")
        if prev_index is not None and idx <= prev_index:
            raise NonMonotonicFrames(
                f"frame index {idx} after {prev_index} at {where}"
            )
        if prev_time is not None and time_s <= prev_time:
            raise NonMonotonicFrames(
                f"frame time {time_s} after {prev_time} at {where}"
            )
        prev_index = idx
        prev_time = time_s
        try:
            if has_2d:
                frames_2d.append(
                    SkeletonFrame2D(
                        index=idx,
                        time_s=time_s,
                        joints=_parse_joints_2d(rec.get("joints_2d", {}), where),
                    )
                )
            if has_3d:
                frames_3d.append(
                    SkeletonFrame3D(
                        index=idx,
                        time_s=time_s,
                        joints=_parse_joints_3d(rec.get("joints_3d", {}), where),
                    )
                )
        except StrideLabError:
            raise
        except ValueError as exc:
            raise MalformedDocument(f"{where}: {exc}") from exc

    try:
        return SkeletonSequence(
            fps=fps,
            frames_2d=tuple(frames_2d) if has_2d or not has_3d else None,
            frames_3d=tuple(frames_3d) if has_3d or not has_2d else None,
            subject_height_m=height,
            source=source,
        )
    except ValueError as exc:
        raise MalformedDocument(str(exc)) from exc


def write_stream(seq: SkeletonSequence) -> bytes:
    """Serialize a SkeletonSequence; deterministic byte-for-byte."""
    header: dict = {"fps": _round10(seq.fps)}
    if seq.subject_height_m is not None:
        header["subject_height_m"] = _round10(seq.subject_height_m)
    header["source"] = seq.source

    n = len(seq)
    records = []
    for i in range(n):
        fr2 = seq.frames_2d[i] if seq.frames_2d is not None else None
        fr3 = seq.frames_3d[i] if seq.frames_3d is not None else None
        anchor = fr3 if fr3 is not None else fr2
        assert anchor is not None
        rec: dict = {"index": anchor.index, "time_s": _round10(anchor.time_s)}
        if fr2 is not None:
            rec["joints_2d"] = {
                j.label: {
                    "x": _round10(p.x),
                    "y": _round10(p.y),
                    "confidence": _round10(p.confidence),
                }
                for j in JointId
                if (p := fr2.joints.get(j)) is not None
            }
        if fr3 is not None:
            rec["joints_3d"] = {
                j.label: {"x": _round10(p.x), "y": _round10(p.y), "z": _round10(p.z)}
                for j in JointId
                if (p := fr3.joints.get(j)) is not None
            }
        records.append(rec)

    doc = {"header": header, "frames": records}
    return json.dumps(doc, indent=1).encode("utf-8") + b"\n"


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
    doc = {
        "speed_m_s": _round10(truth.speed_m_s),
        "cadence_steps_min": _round10(truth.cadence_steps_min),
        "step_length_m": _round10(truth.step_length_m),
        "step_time_s": _round10(truth.step_time_s),
        "n_steps": truth.n_steps,
        "duration_s": _round10(truth.duration_s),
        "heading": [_round10(h) for h in truth.heading],
        "schedule": [
            {
                "foot": st.foot,
                "time_s": _round10(st.time_s),
                "position_m": _round10(st.position_m),
            }
            for st in truth.schedule
        ],
    }
    return json.dumps(doc, indent=1).encode("utf-8") + b"\n"


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
    for key in ("speed_m_s", "cadence_steps_min", "step_length_m", "step_time_s"):
        if key not in doc:
            raise MissingHeaderField(f"sidecar field {key!r} is required")
        _require_number(doc[key], key)
    return doc
