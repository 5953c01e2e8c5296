"""Reader, writer and validator for the recording file set and the
tracker's detections table.

A recording is stored as three CSV tables:

* ``*_recordingMeta.csv`` - one row: site geometry and recording parameters.
* ``*_tracksMeta.csv``    - one row per vehicle: dimensions, class,
  direction, mean speed, frame span, lane-change count.
* ``*_tracks.csv``        - one row per vehicle per frame: kinematics, lane,
  surrounding-vehicle ids and DHW/THW/TTC.

``*_detections.csv``, the tracker's input, holds one row per detection:
frame, centre, extents and an optional class hint (``write_detections``,
``read_detections``).

Formatting is canonical (fixed column order, comma delimiter, dot decimal
separator, floats at 6 significant digits, LF line endings, UTF-8) so that
write -> read -> write is byte identical. List-valued recordingMeta cells
(lane markings, speed limits) are semicolon separated. Sentinels: neighbor
id 0 = none; dhw/thw/ttc -1 = undefined; speed limit -1 = unlimited.

Reading is one columnar scan, shared by ``read_recording`` (which raises the
first issue) and ``validate`` (which lists them all). ``_parse_table`` checks
a table's header in Python and reads the body of tracksMeta, tracks and the
detections with one C-parsed ``np.loadtxt``: one int64, float64 or class
column per field. That fast path stands only where it reads what the
per-cell parsers would: every line one row (no blank line, no lone CR), no
NUL, no class longer than its text field, and no cell a parser would flag
(a non-finite float, an unknown class or direction). Otherwise, and for the
one-row recordingMeta with its ';' lists, ``csv`` reads the table again and
every cell is parsed on its own, so the accepted cells and the issues are
always those of the per-cell parsers, each bad cell named by row and column.

Every stage reports through row masks: a check flags entries (file rows, or
tracks that name their file row) and ``_report`` issues them by entry and
then in check order. Issues come by file (recordingMeta, tracksMeta,
tracks); within the tracks table, each stage below runs only if the ones
before it found nothing:

1. header and cell-count problems;
2. type errors, by row and then by column;
3. cross-references: track ids missing from either table and frame gaps,
   per track in order of first appearance;
4. per-row checks, by row: the frame bound, laneId against y, the neighbor
   ids, the DHW/THW/TTC sentinels;
5. per-track summaries against tracksMeta, by track id.

The tracksMeta duplicate-id and extent checks are reported with its type
errors, by row.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DETECTION_COLUMNS,
    KINEMATIC_COLUMNS,
    DetectionTable,
    DrivingDirection,
    RecordingMeta,
    Track,
    UNLIMITED_SPEED,
    VehicleClass,
    compute_mean_speed,
    format_float,
    format_floats,
    lane_change_count,
    nearest_lane_id,
    write_table,
)
from .surround import NO_VEHICLE, UNDEFINED, Surround, check_rows

RECORDING_META_COLUMNS = [
    "id",
    "locationId",
    "frameRate",
    "duration",
    "upperLaneMarkings",
    "lowerLaneMarkings",
    "speedLimits",
]
TRACKS_META_COLUMNS = [
    "id",
    "length",
    "width",
    "class",
    "drivingDirection",
    "meanSpeed",
    "numFrames",
    "initialFrame",
    "finalFrame",
    "numLaneChanges",
]
TRACKS_COLUMNS = [
    "frame",
    "id",
    "x",
    "y",
    "xVelocity",
    "yVelocity",
    "xAcceleration",
    "yAcceleration",
    "laneId",
    "precedingId",
    "followingId",
    "leftPrecedingId",
    "leftAlongsideId",
    "leftFollowingId",
    "rightPrecedingId",
    "rightAlongsideId",
    "rightFollowingId",
    "dhw",
    "thw",
    "ttc",
]
DETECTIONS_COLUMNS = ["frame", *DETECTION_COLUMNS, "class"]

# Issue kinds reported by the validator / raised by the reader.
MISSING_FILE = "MissingFile"
MISSING_COLUMN = "MissingColumn"
TYPE_MISMATCH = "TypeMismatch"
DANGLING_REFERENCE = "DanglingReference"
NON_MONOTONE_FRAMES = "NonMonotoneFrames"
DUPLICATE_ID = "DuplicateId"
INVARIANT_VIOLATION = "InvariantViolation"

#: Stored meanSpeed may differ from a recomputation by 6-significant-digit
#: rounding of every velocity sample; 1e-4 relative leaves ample headroom.
MEAN_SPEED_REL_TOL = 1e-4


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    file: str
    message: str
    row: Optional[int] = None  # 1-based data row (header is row 0)
    column: Optional[str] = None

    def location(self) -> str:
        parts = [self.file]
        if self.row is not None:
            parts.append(f"row {self.row}")
        if self.column is not None:
            parts.append(f"column {self.column!r}")
        return ", ".join(parts)


@dataclass
class ValidationReport:
    issues: List[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


class DatasetError(Exception):
    """Raised by read_recording for the first invariant the files violate."""

    def __init__(self, issue: ValidationIssue) -> None:
        self.issue = issue
        super().__init__(f"{issue.kind} at {issue.location()}: {issue.message}")


@dataclass(frozen=True)
class RecordingFileSet:
    recording_meta_path: Path
    tracks_meta_path: Path
    tracks_path: Path

    @classmethod
    def for_recording(cls, directory: Path, recording_id: int) -> "RecordingFileSet":
        return cls.for_prefix(directory, f"{recording_id:02d}")

    @classmethod
    def for_prefix(cls, directory: Path, prefix: str) -> "RecordingFileSet":
        directory = Path(directory)
        return cls(
            recording_meta_path=directory / f"{prefix}_recordingMeta.csv",
            tracks_meta_path=directory / f"{prefix}_tracksMeta.csv",
            tracks_path=directory / f"{prefix}_tracks.csv",
        )


@dataclass(frozen=True)
class Recording:
    """Fully validated in-memory model of one recording."""

    meta: RecordingMeta
    tracks: Tuple[Track, ...]
    surround: Mapping[int, Surround]


def _format_list(values: Sequence[float]) -> str:
    return ";".join(format_float(v) for v in values)


def _format_limit(value: float) -> float:
    return -1.0 if value == UNLIMITED_SPEED else value


def _parse_limit(value: float) -> float:
    return UNLIMITED_SPEED if value == -1.0 else value


# ---------------------------------------------------------------------------
# Writing


def write_recording_meta(meta: RecordingMeta, path: Path) -> None:
    limits = [_format_limit(v) for v in meta.upper_speed_limits] + [
        _format_limit(v) for v in meta.lower_speed_limits
    ]
    write_table(path, RECORDING_META_COLUMNS, "ddggsss", [[
        [meta.recording_id],
        [meta.location_id],
        [meta.frame_rate],
        [meta.duration],
        [_format_list(meta.upper_lane_boundaries)],
        [_format_list(meta.lower_lane_boundaries)],
        [_format_list(limits)],
    ]])


def write_recording(
    meta: RecordingMeta,
    tracks: Sequence[Track],
    surround: Mapping[int, Surround],
    directory: Path,
) -> RecordingFileSet:
    """Write one recording in canonical form; returns the created file set.

    ``surround`` maps each track id to its surround columns, one row per
    frame of the track. The stored laneId is derived from the
    6-significant-digit y actually written, so the file is self-consistent
    even when quantization nudges a position across a lane marking.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = RecordingFileSet.for_recording(directory, meta.recording_id)
    ordered = sorted(tracks, key=lambda t: t.track_id)
    for track in ordered:
        check_rows(track, surround[track.track_id])

    write_recording_meta(meta, paths.recording_meta_path)

    # Lane ids come from the quantized y of each written row, formatted once
    # per track; the tracksMeta lane-change count, written after the tracks
    # table, counts transitions of those same ids.
    lane_changes: List[int] = []

    def block(track: Track) -> Tuple:
        y = format_floats(track.y)
        lanes = nearest_lane_id(np.array(y, np.float64), meta, track.direction)
        lane_changes.append(lane_change_count(lanes))
        return (
            range(track.initial_frame, track.final_frame + 1),
            [track.track_id] * track.num_frames,
            track.x, y, track.vx, track.vy, track.ax, track.ay, lanes,
            *surround[track.track_id],
        )

    write_table(paths.tracks_path, TRACKS_COLUMNS, "ddgs" + "g" * 4 + "d" * 9 + "ggg",
                map(block, ordered))
    write_table(paths.tracks_meta_path, TRACKS_META_COLUMNS, "dggsdgdddd", [list(zip(*(
        (
            track.track_id,
            track.length,
            track.width,
            track.vehicle_class.value,
            track.direction.value,
            track.mean_speed,
            track.num_frames,
            track.initial_frame,
            track.final_frame,
            changes,
        )
        for track, changes in zip(ordered, lane_changes)
    )))])
    return paths


def write_detections(detections: DetectionTable, path: Path) -> None:
    write_table(path, DETECTIONS_COLUMNS, "dggggs", [(
        detections.frame,
        *(getattr(detections, c) for c in DETECTION_COLUMNS),
        ["" if hint is None else hint.value for hint in detections.class_hint],
    )])


# ---------------------------------------------------------------------------
# Reading / validation
#
# read_recording and validate share one scanner so that "validate returns an
# empty report" and "read_recording succeeds" are the same predicate by
# construction. In strict mode the scanner raises at the first issue.

#: A row check: the entries it flags, the issue kind and column, the message
#: for a flagged entry (0-based index) and, where an entry is not the data
#: row of its index, an optional fifth item: the 0-based data row per entry.
Check = Tuple[Any, ...]
#: A column parser: the cells' values plus a message per cell that is not one.
Parser = Callable[[Sequence[str]], Tuple[Any, Dict[int, str]]]

_INT64 = np.iinfo(np.int64)


class _Scanner:
    def __init__(self, strict: bool) -> None:
        self.strict = strict
        self.issues: List[ValidationIssue] = []

    def issue(
        self,
        kind: str,
        file: Path,
        message: str,
        row: Optional[int] = None,
        column: Optional[str] = None,
    ) -> None:
        item = ValidationIssue(kind, str(file), message, row, column)
        if self.strict:
            raise DatasetError(item)
        self.issues.append(item)


def _ints(texts: Sequence[str]) -> Tuple[np.ndarray, Dict[int, str]]:
    values = np.zeros(len(texts), np.int64)
    bad: Dict[int, str] = {}
    for i, text in enumerate(texts):
        try:
            value = int(text)
        except ValueError:
            bad[i] = f"expected integer, got {text!r}"
            continue
        if _INT64.min <= value <= _INT64.max:
            values[i] = value
        else:
            bad[i] = f"integer {text!r} does not fit in 64 bits"
    return values, bad


def _floats(texts: Sequence[str]) -> Tuple[np.ndarray, Dict[int, str]]:
    values = np.zeros(len(texts))
    bad: Dict[int, str] = {}
    for i, text in enumerate(texts):
        try:
            values[i] = float(text)
        except ValueError:
            bad[i] = f"expected number, got {text!r}"
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        bad[i] = f"expected finite number, got {texts[i]!r}"
    return values, bad


def _float_lists(texts: Sequence[str]) -> Tuple[List[Tuple[float, ...]], Dict[int, str]]:
    values: List[Tuple[float, ...]] = []
    bad: Dict[int, str] = {}
    for i, text in enumerate(texts):
        items: List[float] = []
        for part in text.split(";"):
            try:
                value = float(part)
            except ValueError:
                bad[i] = f"expected ';'-separated numbers, got {text!r}"
                break
            if not math.isfinite(value):
                bad[i] = f"expected finite numbers, got {text!r}"
                break
            items.append(value)
        values.append(tuple(items))
    return values, bad


def _directions(texts: Sequence[str]) -> Tuple[np.ndarray, Dict[int, str]]:
    values, bad = _ints(texts)
    for i in np.flatnonzero((values != 1) & (values != 2)).tolist():
        try:
            DrivingDirection.parse(int(values[i]))
        except ValueError as exc:
            bad.setdefault(i, str(exc))  # an unparsed cell keeps its first message
    return values, bad


def _classes(texts: Sequence[str], optional: bool = False) -> Tuple[List, Dict[int, str]]:
    """VehicleClass per cell; an empty cell is None where the class is optional."""
    known: Dict[str, Any] = {"": None} if optional else {}
    for text in set(texts) - known.keys():
        try:
            known[text] = VehicleClass.parse(text)
        except ValueError as exc:
            known[text] = exc
    values = [known[text] for text in texts]
    bad = {i: str(v) for i, v in enumerate(values) if isinstance(v, ValueError)}
    return values, bad


#: Characters of the ``np.loadtxt`` text field of a class column.
_CLASS_CHARS = 8
#: The ``np.loadtxt`` field of each column parser that has one.
_FIELD_OF_PARSER: Dict[Parser, Any] = {
    _ints: np.int64, _directions: np.int64, _floats: np.float64,
    _classes: f"U{_CLASS_CHARS}",
}


def _loaded_values(parse: Parser, column: np.ndarray) -> Optional[Any]:
    """A column read by ``np.loadtxt`` as ``parse`` gives it; None where
    ``parse`` would flag a cell or the text field may have cut a class."""
    kind = getattr(parse, "func", parse)
    if kind is _classes:
        texts, rows = np.unique(column, return_inverse=True)
        classes, bad = parse(texts.tolist())
        if bad or (np.char.str_len(texts) >= _CLASS_CHARS).any():
            return None
        return [classes[i] for i in rows.tolist()]
    if kind is _floats and not np.isfinite(column).all():
        return None
    if kind is _directions and not ((column == 1) | (column == 2)).all():
        return None
    return column


def _load_table(
    path: Path, columns: Sequence[str], parsers: Mapping[str, Parser]
) -> Optional[Dict[str, Any]]:
    """The typed columns of a table from one C-parsed ``np.loadtxt``; None
    unless it reads every line as one row and no cell would be flagged, in
    which case the per-cell parsers give the same values."""
    fields = {c: _FIELD_OF_PARSER.get(getattr(p, "func", p)) for c, p in parsers.items()}
    data = Path(path).read_bytes()
    # loadtxt skips blank lines, reads a lone CR as a line end and drops the
    # NULs that end a text field; csv does none of these.
    rows = data.count(b"\n") + (not data.endswith(b"\n")) - 1
    if (None in fields.values() or rows < 1 or b"\0" in data
            or data.count(b"\r") != data.count(b"\r\n")):
        return None
    del data
    try:
        table = np.loadtxt(
            path, dtype=[(c, fields[c]) for c in columns], delimiter=",",
            comments=None, quotechar='"', encoding="utf-8", skiprows=1, ndmin=1,
        )
    except ValueError:
        return None
    if len(table) != rows:
        return None
    values = {c: _loaded_values(parse, table[c]) for c, parse in parsers.items()}
    return None if any(v is None for v in values.values()) else values


def _parse_table(
    scanner: _Scanner, path: Path, columns: Sequence[str], parsers: Mapping[str, Parser]
) -> Optional[Tuple[Dict[str, Any], List[Check]]]:
    """The typed columns of a table and one type check per column, in the
    order of ``parsers``; None when the file is unusable. Nothing is issued
    for the type checks: the caller reports them, with its own checks. The
    body comes from ``_load_table`` where it can, else from each cell's parse."""
    if not Path(path).is_file():
        scanner.issue(MISSING_FILE, path, "file does not exist")
        return None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            scanner.issue(MISSING_COLUMN, path, "empty file, header row required")
            return None
        if header != list(columns):
            missing = [c for c in columns if c not in header]
            extra = [c for c in header if c not in columns]
            if missing or extra:
                word, names = ("missing", missing) if missing else ("unexpected", extra)
                scanner.issue(MISSING_COLUMN, path, f"{word} column(s) {names}", row=0,
                              column=names[0])
            else:
                scanner.issue(MISSING_COLUMN, path, f"column order must be {list(columns)}",
                              row=0)
            return None
        loaded = _load_table(path, columns, parsers)
        if loaded is not None:
            parsed = {c: (values, {}) for c, values in loaded.items()}
        else:
            rows = list(reader)
            for i, r in enumerate(rows, start=1):
                if len(r) != len(columns):
                    scanner.issue(TYPE_MISMATCH, path,
                                  f"expected {len(columns)} cells, got {len(r)}", row=i)
                    return None
            cells = dict(zip(columns, zip(*rows) if rows else [()] * len(columns)))
            parsed = {c: parse(cells[c]) for c, parse in parsers.items()}
    values: Dict[str, Any] = {}
    checks: List[Check] = []
    for column, (values[column], bad) in parsed.items():
        flagged = np.zeros(len(values[column]), bool)
        flagged[list(bad)] = True
        checks.append((flagged, TYPE_MISMATCH, column, bad.__getitem__))
    return values, checks


def _parsed(type_checks: Sequence[Check]) -> np.ndarray:
    """Rows in which every cell parsed."""
    return ~np.any([check[0] for check in type_checks], axis=0)


def _report(scanner: _Scanner, path: Path, checks: Sequence[Check]) -> bool:
    """Issue every flagged entry, by entry and then in the order of
    ``checks``; True when no entry is flagged. An entry names its own index
    as the data row, or ``rows[index]`` for a check that ends with ``rows``."""
    hits = sorted(
        (i, k) for k, check in enumerate(checks)
        for i in np.flatnonzero(check[0]).tolist()
    )
    for i, k in hits:
        _, kind, column, message, *rows = checks[k]
        row = int(rows[0][i]) if rows else i
        scanner.issue(kind, path, message(i), row=row + 1, column=column)
    return not hits


def _frames_outside(frames: np.ndarray, max_frame: float) -> np.ndarray:
    """Frames outside [0, max_frame], compared exactly: an int64 compared
    with a float is rounded above 2**53."""
    last = _INT64.max if max_frame >= _INT64.max else math.floor(max_frame)
    return (frames < 0) | (frames > last)


_RECORDING_META_PARSERS: Dict[str, Parser] = {
    "id": _ints, "locationId": _ints, "frameRate": _floats, "duration": _floats,
    "upperLaneMarkings": _float_lists, "lowerLaneMarkings": _float_lists,
    "speedLimits": _float_lists,
}


def _scan_recording_meta(scanner: _Scanner, path: Path) -> Optional[RecordingMeta]:
    parsed = _parse_table(scanner, path, RECORDING_META_COLUMNS, _RECORDING_META_PARSERS)
    if parsed is None:
        return None
    values, checks = parsed
    if len(values["id"]) != 1:
        scanner.issue(
            INVARIANT_VIOLATION, path,
            f"expected exactly one data row, got {len(values['id'])}",
        )
        return None
    if not _report(scanner, path, checks):
        return None
    row = {column: column_values[0] for column, column_values in values.items()}
    upper, lower, limits = (
        row["upperLaneMarkings"], row["lowerLaneMarkings"], row["speedLimits"]
    )
    n_upper, n_lower = len(upper) - 1, len(lower) - 1
    if len(limits) != n_upper + n_lower:
        scanner.issue(
            INVARIANT_VIOLATION,
            path,
            f"speedLimits has {len(limits)} entries, expected one per lane "
            f"({n_upper} upper + {n_lower} lower)",
            row=1,
            column="speedLimits",
        )
        return None
    try:
        return RecordingMeta(
            recording_id=int(row["id"]),
            location_id=int(row["locationId"]),
            frame_rate=float(row["frameRate"]),
            duration=float(row["duration"]),
            upper_lane_boundaries=upper,
            lower_lane_boundaries=lower,
            upper_speed_limits=tuple(_parse_limit(v) for v in limits[:n_upper]),
            lower_speed_limits=tuple(_parse_limit(v) for v in limits[n_upper:]),
        )
    except ValueError as exc:
        scanner.issue(INVARIANT_VIOLATION, path, str(exc), row=1)
        return None


_TRACKS_META_PARSERS: Dict[str, Parser] = {
    "id": _ints, "length": _floats, "width": _floats, "class": _classes,
    "drivingDirection": _directions, "meanSpeed": _floats, "numFrames": _ints,
    "initialFrame": _ints, "finalFrame": _ints, "numLaneChanges": _ints,
}


def _scan_tracks_meta(scanner: _Scanner, path: Path) -> Optional[Dict[str, Any]]:
    """The tracksMeta columns; None unless every row parses, no id repeats
    and every extent is positive."""
    parsed = _parse_table(scanner, path, TRACKS_META_COLUMNS, _TRACKS_META_PARSERS)
    if parsed is None:
        return None
    values, checks = parsed
    ids = values["id"]
    typed = _parsed(checks)
    kept = typed & (values["length"] > 0) & (values["width"] > 0)
    # A parsed row repeats an id that an earlier kept row holds.
    keys, key_of_row = np.unique(ids, return_inverse=True)
    first_kept = np.full(len(keys), len(ids))
    np.minimum.at(first_kept, key_of_row[kept], np.flatnonzero(kept))
    repeated = typed & (first_kept[key_of_row] < np.arange(len(ids)))
    checks += [
        (repeated, DUPLICATE_ID, "id",
         lambda i: f"track id {ids[i]} appears more than once"),
        (typed & ~repeated & ~kept, INVARIANT_VIOLATION, None,
         lambda i: f"track {ids[i]}: extents must be positive"),
    ]
    return values if _report(scanner, path, checks) else None


_NEIGHBOR_COLUMNS = [
    "precedingId", "followingId", "leftPrecedingId", "leftAlongsideId",
    "leftFollowingId", "rightPrecedingId", "rightAlongsideId", "rightFollowingId",
]
_SENTINEL_COLUMNS = ("dhw", "thw", "ttc")
#: The tracks-table column of each Track column.
_TABLE_COLUMN_OF = dict(zip(
    (*KINEMATIC_COLUMNS, "lane"),
    ("x", "y", "xVelocity", "yVelocity", "xAcceleration", "yAcceleration", "laneId"),
))
_TRACKS_PARSERS: Dict[str, Parser] = {
    **{c: _ints for c in ("frame", "id", "laneId", *_NEIGHBOR_COLUMNS)},
    **{c: _floats for c in ("x", "y", "xVelocity", "yVelocity", "xAcceleration",
                            "yAcceleration", *_SENTINEL_COLUMNS)},
}


def _scan(paths: RecordingFileSet, strict: bool) -> Tuple[_Scanner, Optional[Recording]]:
    scanner = _Scanner(strict)
    meta = _scan_recording_meta(scanner, paths.recording_meta_path)
    metas = _scan_tracks_meta(scanner, paths.tracks_meta_path)
    parsed = _parse_table(scanner, paths.tracks_path, TRACKS_COLUMNS, _TRACKS_PARSERS)
    if meta is None or metas is None or parsed is None:
        return scanner, None
    tracks_path, tracks_meta_path = paths.tracks_path, paths.tracks_meta_path
    cols, checks = parsed
    if not _report(scanner, tracks_path, checks):
        return scanner, None

    # Cross-references: ids both ways and consecutive frames per track.
    # Rows are grouped by track id in file order; group g spans
    # order[begins[g]:ends[g]].
    ids, frames = cols["id"], cols["frame"]
    track_ids, first_rows, counts = np.unique(ids, return_index=True, return_counts=True)
    ends = np.cumsum(counts)
    begins = ends - counts
    order = np.argsort(ids, kind="stable")
    ids_sorted, frames_sorted = ids[order], frames[order]
    prev, cur = frames_sorted[:-1], frames_sorted[1:]
    gap = (ids_sorted[1:] == ids_sorted[:-1]) & ~((cur > prev) & (cur - prev == 1))
    breaks = np.append(np.flatnonzero(gap) + 1, len(ids))
    first_break = breaks[np.searchsorted(breaks, begins)]
    meta_ids = metas["id"]
    # Entry j is the j-th track to appear in the file, group seen[j]; a
    # dangling id hides its track's gap.
    seen = np.argsort(first_rows)
    seen_ids = track_ids[seen]
    known = np.isin(seen_ids, meta_ids)
    gap_at = np.minimum(first_break, len(ids) - 1)[seen]  # first gap, in sorted rows
    linked = _report(scanner, tracks_path, [
        (~known, DANGLING_REFERENCE, "id",
         lambda j: f"track id {seen_ids[j]} has no tracksMeta entry", first_rows[seen]),
        (known & (first_break < ends)[seen], NON_MONOTONE_FRAMES, "frame",
         lambda j: f"track {seen_ids[j]}: frame {frames_sorted[gap_at[j]]} follows "
                   f"{frames_sorted[gap_at[j] - 1]} (frames must be consecutive)",
         order[gap_at]),
    ])
    if not _report(scanner, tracks_meta_path, [(
        ~np.isin(meta_ids, track_ids), DANGLING_REFERENCE, "id",
        lambda i: f"track id {meta_ids[i]} has no rows in the tracks table",
    )]) or not linked:
        return scanner, None

    # Per-row checks; every track id now has one tracksMeta row.
    by_id = np.argsort(meta_ids)
    meta_rows = by_id[np.searchsorted(meta_ids, track_ids, sorter=by_id)]
    group = np.searchsorted(track_ids, ids)
    directions = metas["drivingDirection"][meta_rows][group]
    y, lanes = cols["y"], cols["laneId"]
    expected_lane = np.zeros(len(ids), np.int64)
    for direction in DrivingDirection:
        rows = directions == direction.value
        expected_lane[rows] = nearest_lane_id(y[rows], meta, direction)
    first_frame, last_frame = frames_sorted[begins], frames_sorted[ends - 1]
    checks = [
        (_frames_outside(frames, meta.max_frame), INVARIANT_VIOLATION, "frame",
         lambda i: f"frame {frames[i]} outside [0, {format_float(meta.max_frame)}]"),
        (lanes != expected_lane, INVARIANT_VIOLATION, "laneId",
         lambda i: f"laneId {lanes[i]} inconsistent with y={format_float(y[i])} "
                   f"(expected {expected_lane[i]})"),
    ]
    for column in _NEIGHBOR_COLUMNS:
        neighbor = cols[column]
        at = np.minimum(np.searchsorted(track_ids, neighbor), len(track_ids) - 1)
        present = track_ids[at] == neighbor
        alive = present & (first_frame[at] <= frames) & (frames <= last_frame[at])
        other = (neighbor != NO_VEHICLE) & (neighbor != ids)
        checks += [
            ((neighbor != NO_VEHICLE) & (neighbor == ids), INVARIANT_VIOLATION, column,
             lambda i, c=column: f"{c} equals the row's own track id {ids[i]}"),
            (other & ~present, DANGLING_REFERENCE, column,
             lambda i, c=column, n=neighbor: f"{c}={n[i]} refers to an unknown track"),
            (other & present & ~alive, DANGLING_REFERENCE, column,
             lambda i, c=column, n=neighbor:
                 f"{c}={n[i]} is not alive at frame {frames[i]}"),
        ]
    for column in _SENTINEL_COLUMNS:
        value = cols[column]
        checks.append((
            (value != UNDEFINED) & (value < 0), INVARIANT_VIOLATION, column,
            lambda i, c=column, v=value:
                f"{c} must be >= 0 or the -1 sentinel, got {format_float(v[i])}",
        ))
    no_leader = cols["precedingId"] == NO_VEHICLE
    for column in _SENTINEL_COLUMNS:
        checks.append((
            no_leader & (cols[column] != UNDEFINED), INVARIANT_VIOLATION, column,
            lambda i, c=column: f"{c} defined without a preceding vehicle",
        ))
    if not _report(scanner, tracks_path, checks):
        return scanner, None

    # Per-track summaries against tracksMeta, by track id: entry g is track
    # g, rows begins[g]:ends[g] of the sorted columns and tracksMeta row
    # meta_rows[g]. A meanSpeed issue hides the track's later checks, and a
    # frame-summary issue its lane-change check.
    kinematics = {name: cols[c][order] for name, c in _TABLE_COLUMN_OF.items()}
    spans = list(zip(begins.tolist(), ends.tolist()))
    stored_speed = metas["meanSpeed"][meta_rows]
    speed = np.array([compute_mean_speed(kinematics["vx"][a:b]) for a, b in spans])
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as in Python floats
        scale = np.maximum(np.maximum(np.abs(stored_speed), np.abs(speed)), 1e-12)
        speed_off = np.abs(stored_speed - speed) / scale > MEAN_SPEED_REL_TOL
    summary = {"numFrames": counts, "initialFrame": first_frame, "finalFrame": last_frame,
               "numLaneChanges": np.array([lane_change_count(kinematics["lane"][a:b])
                                           for a, b in spans])}
    stored = {c: metas[c][meta_rows] for c in summary}
    off = {c: ~speed_off & (stored[c] != actual) for c, actual in summary.items()}
    off["numLaneChanges"] &= ~(off["numFrames"] | off["initialFrame"] | off["finalFrame"])
    checks = [(speed_off, INVARIANT_VIOLATION, "meanSpeed",
               lambda g: f"track {track_ids[g]}: meanSpeed {format_float(stored_speed[g])} "
                         f"does not match recomputed {format_float(speed[g])}",
               meta_rows)]
    checks += [(off[c], INVARIANT_VIOLATION, c,
                lambda g, c=c: f"track {track_ids[g]}: {c}={stored[c][g]} does not match "
                               f"the tracks table ({summary[c][g]})",
                meta_rows) for c in summary]
    if not _report(scanner, tracks_meta_path, checks):
        return scanner, None

    cells = {c: metas[c].tolist() for c in ("drivingDirection", "length", "width", "meanSpeed")}
    tracks = tuple(Track(
        track_id=track_id,
        vehicle_class=metas["class"][m],
        direction=DrivingDirection(cells["drivingDirection"][m]),
        length=cells["length"][m],
        width=cells["width"][m],
        mean_speed=cells["meanSpeed"][m],
        initial_frame=int(frames_sorted[a]),
        **{c: column[a:b] for c, column in kinematics.items()},
    ) for track_id, m, (a, b) in zip(track_ids.tolist(), meta_rows.tolist(), spans))
    surround_cols = Surround.read_only(
        [cols[c][order] for c in (*_NEIGHBOR_COLUMNS, *_SENTINEL_COLUMNS)]
    )
    surround = {track_id: surround_cols.rows(a, b)
                for track_id, (a, b) in zip(track_ids.tolist(), spans)}
    return scanner, Recording(meta=meta, tracks=tracks, surround=surround)


def read_recording(paths: RecordingFileSet) -> Recording:
    """Load a recording, raising DatasetError at the first violated invariant."""
    _, recording = _scan(paths, strict=True)
    assert recording is not None  # strict scan raises before returning None
    return recording


def read_recording_meta(path: Path) -> RecordingMeta:
    """Load just the recordingMeta table, raising DatasetError on problems."""
    scanner = _Scanner(strict=True)
    meta = _scan_recording_meta(scanner, Path(path))
    assert meta is not None
    return meta


def validate(paths: RecordingFileSet) -> ValidationReport:
    """Every violated invariant with its location; empty iff read would succeed."""
    scanner, _ = _scan(paths, strict=False)
    return ValidationReport(issues=scanner.issues)


_DETECTIONS_PARSERS = {
    "frame": _ints, "cx": _floats, "cy": _floats, "length": _floats,
    "width": _floats, "class": partial(_classes, optional=True),
}


def read_detections(path: Path, max_frame: float) -> DetectionTable:
    """The detections of a file as a table sorted by frame (stable, so rows
    of one frame keep their file order).

    Frames outside [0, ``max_frame``] (the recording meta's) are rejected.
    The first problem raises a DatasetError naming the row and column.
    """
    path = Path(path)
    scanner = _Scanner(strict=True)
    parsed = _parse_table(scanner, path, DETECTIONS_COLUMNS, _DETECTIONS_PARSERS)
    assert parsed is not None  # a strict scanner raises instead
    cols, checks = parsed
    frames = cols["frame"]
    typed = _parsed(checks)
    unparsed_frames = checks[0][0]
    checks.insert(1, (  # a parsed frame's bound right after its type
        ~unparsed_frames & _frames_outside(frames, max_frame), INVARIANT_VIOLATION,
        "frame", lambda i: f"frame {frames[i]} outside [0, {format_float(max_frame)}]",
    ))
    for column in ("length", "width"):
        checks.append((
            typed & (cols[column] <= 0), TYPE_MISMATCH, column,
            lambda i, c=column: f"{c} must be positive, got {format_float(cols[c][i])}",
        ))
    _report(scanner, path, checks)
    order = np.argsort(frames, kind="stable")
    hints = cols["class"]
    return DetectionTable(frames[order], *(cols[c][order] for c in DETECTION_COLUMNS),
                          [hints[i] for i in order.tolist()])


def recording_prefixes(directory: Path, suffix: str) -> List[str]:
    """Prefixes (``1``, ``01``) of every ``<id>_<suffix>`` file in a
    directory, sorted by id. A prefix is the whole name before
    ``_<suffix>``; files whose prefix is not all ASCII digits (``01_v2_``)
    are skipped. Two prefixes of one id raise a ``DuplicateId`` error naming
    both files."""
    prefixes: Dict[int, str] = {}
    for path in sorted(Path(directory).glob(f"*_{suffix}")):
        prefix = path.name[:-len(suffix) - 1]
        if not (prefix.isascii() and prefix.isdigit()):
            continue
        rid = int(prefix)
        if rid in prefixes:
            raise DatasetError(ValidationIssue(
                DUPLICATE_ID, str(path), f"recording id {rid} has two files: "
                f"{prefixes[rid]}_{suffix} and {path.name}"))
        prefixes[rid] = prefix
    return [prefixes[rid] for rid in sorted(prefixes)]


def discover_recordings(directory: Path) -> List[RecordingFileSet]:
    """File sets for every ``<id>_recordingMeta.csv`` in a directory, sorted
    by id. Each set keeps the prefix its meta file has (``1_``, ``01_``)."""
    return [RecordingFileSet.for_prefix(directory, prefix)
            for prefix in recording_prefixes(directory, "recordingMeta.csv")]
