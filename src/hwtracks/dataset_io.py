"""Reader, writer and validator for the recording file set.

A recording is stored as three CSV tables plus an optional aerial photo
carried as an opaque path:

* ``*_recordingMeta.csv`` - one row: site geometry and recording parameters.
* ``*_tracksMeta.csv``    - one row per vehicle: dimensions, class,
  direction, mean speed, frame span, lane-change count.
* ``*_tracks.csv``        - one row per vehicle per frame: kinematics, lane,
  surrounding-vehicle ids and DHW/THW/TTC.

Formatting is canonical (fixed column order, comma delimiter, dot decimal
separator, floats at 6 significant digits, LF line endings, UTF-8) so that
write -> read -> write is byte identical. List-valued recordingMeta cells
(lane markings, speed limits) are semicolon separated. Sentinels: neighbor
id 0 = none; dhw/thw/ttc -1 = undefined; speed limit -1 = unlimited.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .core import (
    DrivingDirection,
    KinematicState,
    RecordingMeta,
    Track,
    UNLIMITED_SPEED,
    VehicleClass,
    canonical_float,
    compute_mean_speed,
    format_float,
    nearest_lane_id,
    write_table,
)
from .surround import NO_VEHICLE, UNDEFINED, SurroundFrame

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
    background_image_path: Optional[Path] = None

    @classmethod
    def for_recording(cls, directory: Path, recording_id: int) -> "RecordingFileSet":
        directory = Path(directory)
        prefix = f"{recording_id:02d}_"
        background = directory / f"{prefix}highway.png"
        return cls(
            recording_meta_path=directory / f"{prefix}recordingMeta.csv",
            tracks_meta_path=directory / f"{prefix}tracksMeta.csv",
            tracks_path=directory / f"{prefix}tracks.csv",
            background_image_path=background if background.exists() else None,
        )


@dataclass(frozen=True)
class Recording:
    """Fully validated in-memory model of one recording."""

    meta: RecordingMeta
    tracks: Tuple[Track, ...]
    surround: Mapping[int, Tuple[SurroundFrame, ...]]


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
    write_table(path, RECORDING_META_COLUMNS, [[
        meta.recording_id,
        meta.location_id,
        format_float(meta.frame_rate),
        format_float(meta.duration),
        _format_list(meta.upper_lane_boundaries),
        _format_list(meta.lower_lane_boundaries),
        _format_list(limits),
    ]])


def write_recording(
    meta: RecordingMeta,
    tracks: Sequence[Track],
    surround: Mapping[int, Sequence[SurroundFrame]],
    directory: Path,
) -> RecordingFileSet:
    """Write one recording in canonical form; returns the created file set.

    ``surround`` maps each track id to SurroundFrames aligned one-to-one
    with the track's states. The stored laneId is derived from the
    6-significant-digit y actually written, so the file is self-consistent
    even when quantization nudges a position across a lane marking.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = RecordingFileSet.for_recording(directory, meta.recording_id)
    ordered = sorted(tracks, key=lambda t: t.track_id)
    for track in ordered:
        frames = surround.get(track.track_id)
        if frames is None or len(frames) != len(track.states) or any(
            sf.frame != st.frame for sf, st in zip(frames, track.states)
        ):
            raise ValueError(
                f"track {track.track_id}: surround frames not aligned with states"
            )

    write_recording_meta(meta, paths.recording_meta_path)

    # Lane ids are derived from the quantized y of each written row; the
    # tracksMeta lane-change count must count transitions of those same ids.
    written_lanes: Dict[int, List[int]] = {
        track.track_id: [
            nearest_lane_id(canonical_float(s.y), meta, track.direction)
            for s in track.states
        ]
        for track in ordered
    }

    def meta_row(track: Track) -> List:
        lanes = written_lanes[track.track_id]
        return [
            track.track_id,
            format_float(track.length),
            format_float(track.width),
            track.vehicle_class.value,
            track.direction.value,
            format_float(track.mean_speed),
            track.num_frames,
            track.initial_frame,
            track.final_frame,
            sum(1 for a, b in zip(lanes, lanes[1:]) if a != b),
        ]

    write_table(paths.tracks_meta_path, TRACKS_META_COLUMNS, map(meta_row, ordered))
    write_table(paths.tracks_path, TRACKS_COLUMNS, (
        [
            state.frame,
            track.track_id,
            format_float(state.x),
            format_float(state.y),
            format_float(state.vx),
            format_float(state.vy),
            format_float(state.ax),
            format_float(state.ay),
            lane,
            sf.preceding_id,
            sf.following_id,
            sf.left_preceding_id,
            sf.left_alongside_id,
            sf.left_following_id,
            sf.right_preceding_id,
            sf.right_alongside_id,
            sf.right_following_id,
            format_float(sf.dhw),
            format_float(sf.thw),
            format_float(sf.ttc),
        ]
        for track in ordered
        for state, sf, lane in zip(track.states, surround[track.track_id],
                                   written_lanes[track.track_id])
    ))
    return paths


# ---------------------------------------------------------------------------
# Reading / validation
#
# read_recording and validate share one scanner so that "validate returns an
# empty report" and "read_recording succeeds" are the same predicate by
# construction. In strict mode the scanner raises at the first issue.


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


def _read_table(
    scanner: _Scanner, path: Path, columns: Sequence[str]
) -> Optional[List[List[str]]]:
    """Rows of a CSV table after header verification; None when unusable."""
    if not Path(path).is_file():
        scanner.issue(MISSING_FILE, path, "file does not exist")
        return None
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            scanner.issue(MISSING_COLUMN, path, "empty file, header row required")
            return None
        rows = list(reader)
    if header != list(columns):
        missing = [c for c in columns if c not in header]
        extra = [c for c in header if c not in columns]
        if missing:
            scanner.issue(
                MISSING_COLUMN, path, f"missing column(s) {missing}", row=0,
                column=missing[0],
            )
        elif extra:
            scanner.issue(
                MISSING_COLUMN, path, f"unexpected column(s) {extra}", row=0,
                column=extra[0],
            )
        else:
            scanner.issue(MISSING_COLUMN, path, f"column order must be {list(columns)}", row=0)
        return None
    for i, r in enumerate(rows, start=1):
        if len(r) != len(columns):
            scanner.issue(
                TYPE_MISMATCH, path, f"expected {len(columns)} cells, got {len(r)}", row=i
            )
            return None
    return rows


class _Row:
    """Typed cell access for one CSV row with issue reporting."""

    def __init__(self, scanner: _Scanner, path: Path, columns: Sequence[str],
                 cells: Sequence[str], row_index: int) -> None:
        self._scanner = scanner
        self._path = path
        self._index = {c: i for i, c in enumerate(columns)}
        self._cells = cells
        self.row = row_index
        self.ok = True

    def _fail(self, column: str, message: str) -> None:
        self.ok = False
        self._scanner.issue(TYPE_MISMATCH, self._path, message, row=self.row, column=column)

    def int_(self, column: str) -> int:
        text = self._cells[self._index[column]]
        try:
            return int(text)
        except ValueError:
            self._fail(column, f"expected integer, got {text!r}")
            return 0

    def float_(self, column: str) -> float:
        text = self._cells[self._index[column]]
        try:
            value = float(text)
        except ValueError:
            self._fail(column, f"expected number, got {text!r}")
            return 0.0
        if not math.isfinite(value):
            self._fail(column, f"expected finite number, got {text!r}")
            return 0.0
        return value

    def float_list(self, column: str) -> List[float]:
        text = self._cells[self._index[column]]
        out: List[float] = []
        for part in text.split(";"):
            try:
                value = float(part)
            except ValueError:
                self._fail(column, f"expected ';'-separated numbers, got {text!r}")
                return []
            if not math.isfinite(value):
                self._fail(column, f"expected finite numbers, got {text!r}")
                return []
            out.append(value)
        return out

    def text(self, column: str) -> str:
        return self._cells[self._index[column]]


def _scan_recording_meta(scanner: _Scanner, path: Path) -> Optional[RecordingMeta]:
    rows = _read_table(scanner, path, RECORDING_META_COLUMNS)
    if rows is None:
        return None
    if len(rows) != 1:
        scanner.issue(
            INVARIANT_VIOLATION, path, f"expected exactly one data row, got {len(rows)}"
        )
        return None
    row = _Row(scanner, path, RECORDING_META_COLUMNS, rows[0], 1)
    recording_id = row.int_("id")
    location_id = row.int_("locationId")
    frame_rate = row.float_("frameRate")
    duration = row.float_("duration")
    upper = row.float_list("upperLaneMarkings")
    lower = row.float_list("lowerLaneMarkings")
    limits = row.float_list("speedLimits")
    if not row.ok:
        return None
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
            recording_id=recording_id,
            location_id=location_id,
            frame_rate=frame_rate,
            duration=duration,
            upper_lane_boundaries=tuple(upper),
            lower_lane_boundaries=tuple(lower),
            upper_speed_limits=tuple(_parse_limit(v) for v in limits[:n_upper]),
            lower_speed_limits=tuple(_parse_limit(v) for v in limits[n_upper:]),
        )
    except ValueError as exc:
        scanner.issue(INVARIANT_VIOLATION, path, str(exc), row=1)
        return None


@dataclass
class _TrackMetaRow:
    row: int
    track_id: int
    length: float
    width: float
    vehicle_class: VehicleClass
    direction: DrivingDirection
    mean_speed: float
    num_frames: int
    initial_frame: int
    final_frame: int
    num_lane_changes: int


def _scan_tracks_meta(scanner: _Scanner, path: Path) -> Optional[Dict[int, _TrackMetaRow]]:
    rows = _read_table(scanner, path, TRACKS_META_COLUMNS)
    if rows is None:
        return None
    metas: Dict[int, _TrackMetaRow] = {}
    usable = True
    for i, cells in enumerate(rows, start=1):
        row = _Row(scanner, path, TRACKS_META_COLUMNS, cells, i)
        track_id = row.int_("id")
        length = row.float_("length")
        width = row.float_("width")
        class_text = row.text("class")
        try:
            vehicle_class = VehicleClass.parse(class_text)
        except ValueError as exc:
            row._fail("class", str(exc))
            vehicle_class = VehicleClass.CAR
        direction_value = row.int_("drivingDirection")
        try:
            direction = DrivingDirection.parse(direction_value)
        except ValueError as exc:
            row._fail("drivingDirection", str(exc))
            direction = DrivingDirection.LOWER
        mean_speed = row.float_("meanSpeed")
        num_frames = row.int_("numFrames")
        initial_frame = row.int_("initialFrame")
        final_frame = row.int_("finalFrame")
        num_lane_changes = row.int_("numLaneChanges")
        if not row.ok:
            usable = False
            continue
        if track_id in metas:
            scanner.issue(
                DUPLICATE_ID, path, f"track id {track_id} appears more than once",
                row=i, column="id",
            )
            usable = False
            continue
        if length <= 0 or width <= 0:
            scanner.issue(
                INVARIANT_VIOLATION, path,
                f"track {track_id}: extents must be positive", row=i,
            )
            usable = False
            continue
        metas[track_id] = _TrackMetaRow(
            i, track_id, length, width, vehicle_class, direction, mean_speed,
            num_frames, initial_frame, final_frame, num_lane_changes,
        )
    return metas if usable else None


_NEIGHBOR_COLUMNS = [
    "precedingId",
    "followingId",
    "leftPrecedingId",
    "leftAlongsideId",
    "leftFollowingId",
    "rightPrecedingId",
    "rightAlongsideId",
    "rightFollowingId",
]


def _scan(paths: RecordingFileSet, strict: bool) -> Tuple[_Scanner, Optional[Recording]]:
    scanner = _Scanner(strict)
    meta = _scan_recording_meta(scanner, paths.recording_meta_path)
    metas = _scan_tracks_meta(scanner, paths.tracks_meta_path)
    rows = _read_table(scanner, paths.tracks_path, TRACKS_COLUMNS)
    if meta is None or metas is None or rows is None:
        return scanner, None

    tracks_path = paths.tracks_path
    per_track_rows: Dict[int, List[int]] = {}
    parsed: List[Tuple[_Row, Dict[str, float], Dict[str, int]]] = []
    usable = True
    for i, cells in enumerate(rows, start=1):
        row = _Row(scanner, tracks_path, TRACKS_COLUMNS, cells, i)
        ints = {c: row.int_(c) for c in ["frame", "id", "laneId", *_NEIGHBOR_COLUMNS]}
        floats = {
            c: row.float_(c)
            for c in ["x", "y", "xVelocity", "yVelocity", "xAcceleration",
                      "yAcceleration", "dhw", "thw", "ttc"]
        }
        if not row.ok:
            usable = False
            continue
        parsed.append((row, floats, ints))
        per_track_rows.setdefault(ints["id"], []).append(len(parsed) - 1)
    if not usable:
        return scanner, None

    # Cross-reference checks: ids both ways, frame ranges, aliveness index.
    alive: Dict[int, Tuple[int, int]] = {}
    for track_id, indices in per_track_rows.items():
        if track_id not in metas:
            row_no = parsed[indices[0]][0].row
            scanner.issue(
                DANGLING_REFERENCE, tracks_path,
                f"track id {track_id} has no tracksMeta entry", row=row_no, column="id",
            )
            usable = False
            continue
        frames = [parsed[k][2]["frame"] for k in indices]
        for prev, cur, k in zip(frames, frames[1:], indices[1:]):
            if cur != prev + 1:
                scanner.issue(
                    NON_MONOTONE_FRAMES, tracks_path,
                    f"track {track_id}: frame {cur} follows {prev} "
                    "(frames must be consecutive)",
                    row=parsed[k][0].row, column="frame",
                )
                usable = False
                break
        else:
            alive[track_id] = (frames[0], frames[-1])
    for track_id, meta_row in metas.items():
        if track_id not in per_track_rows:
            scanner.issue(
                DANGLING_REFERENCE, paths.tracks_meta_path,
                f"track id {track_id} has no rows in the tracks table",
                row=meta_row.row, column="id",
            )
            usable = False
    if not usable:
        return scanner, None

    for row, floats, ints in parsed:
        track_id = ints["id"]
        frame = ints["frame"]
        if not (0 <= frame <= meta.max_frame):
            scanner.issue(
                INVARIANT_VIOLATION, tracks_path,
                f"frame {frame} outside [0, {format_float(meta.max_frame)}]",
                row=row.row, column="frame",
            )
            usable = False
        direction = metas[track_id].direction
        expected_lane = nearest_lane_id(floats["y"], meta, direction)
        if ints["laneId"] != expected_lane:
            scanner.issue(
                INVARIANT_VIOLATION, tracks_path,
                f"laneId {ints['laneId']} inconsistent with y={format_float(floats['y'])} "
                f"(expected {expected_lane})",
                row=row.row, column="laneId",
            )
            usable = False
        for column in _NEIGHBOR_COLUMNS:
            neighbor = ints[column]
            if neighbor == NO_VEHICLE:
                continue
            if neighbor == track_id:
                scanner.issue(
                    INVARIANT_VIOLATION, tracks_path,
                    f"{column} equals the row's own track id {track_id}",
                    row=row.row, column=column,
                )
                usable = False
                continue
            span = alive.get(neighbor)
            if span is None:
                scanner.issue(
                    DANGLING_REFERENCE, tracks_path,
                    f"{column}={neighbor} refers to an unknown track",
                    row=row.row, column=column,
                )
                usable = False
            elif not (span[0] <= frame <= span[1]):
                scanner.issue(
                    DANGLING_REFERENCE, tracks_path,
                    f"{column}={neighbor} is not alive at frame {frame}",
                    row=row.row, column=column,
                )
                usable = False
        for column in ("dhw", "thw", "ttc"):
            value = floats[column]
            if value != UNDEFINED and value < 0:
                scanner.issue(
                    INVARIANT_VIOLATION, tracks_path,
                    f"{column} must be >= 0 or the -1 sentinel, got {format_float(value)}",
                    row=row.row, column=column,
                )
                usable = False
        if ints["precedingId"] == NO_VEHICLE:
            for column in ("dhw", "thw", "ttc"):
                if floats[column] != UNDEFINED:
                    scanner.issue(
                        INVARIANT_VIOLATION, tracks_path,
                        f"{column} defined without a preceding vehicle",
                        row=row.row, column=column,
                    )
                    usable = False
    if not usable:
        return scanner, None

    tracks: List[Track] = []
    surround: Dict[int, Tuple[SurroundFrame, ...]] = {}
    for track_id in sorted(per_track_rows):
        meta_row = metas[track_id]
        states = []
        frames = []
        for k in per_track_rows[track_id]:
            row, floats, ints = parsed[k]
            states.append(
                KinematicState(
                    frame=ints["frame"],
                    x=floats["x"],
                    y=floats["y"],
                    vx=floats["xVelocity"],
                    vy=floats["yVelocity"],
                    ax=floats["xAcceleration"],
                    ay=floats["yAcceleration"],
                    lane_id=ints["laneId"],
                )
            )
            frames.append(
                SurroundFrame(
                    frame=ints["frame"],
                    track_id=track_id,
                    preceding_id=ints["precedingId"],
                    following_id=ints["followingId"],
                    left_preceding_id=ints["leftPrecedingId"],
                    left_alongside_id=ints["leftAlongsideId"],
                    left_following_id=ints["leftFollowingId"],
                    right_preceding_id=ints["rightPrecedingId"],
                    right_alongside_id=ints["rightAlongsideId"],
                    right_following_id=ints["rightFollowingId"],
                    dhw=floats["dhw"],
                    thw=floats["thw"],
                    ttc=floats["ttc"],
                )
            )
        recomputed = compute_mean_speed(states)
        stored = meta_row.mean_speed
        scale = max(abs(stored), abs(recomputed), 1e-12)
        if abs(stored - recomputed) / scale > MEAN_SPEED_REL_TOL:
            scanner.issue(
                INVARIANT_VIOLATION, paths.tracks_meta_path,
                f"track {track_id}: meanSpeed {format_float(stored)} does not match "
                f"recomputed {format_float(recomputed)}",
                row=meta_row.row, column="meanSpeed",
            )
            usable = False
            continue
        summary = {
            "numFrames": (meta_row.num_frames, len(states)),
            "initialFrame": (meta_row.initial_frame, states[0].frame),
            "finalFrame": (meta_row.final_frame, states[-1].frame),
        }
        for column, (stored_value, actual) in summary.items():
            if stored_value != actual:
                scanner.issue(
                    INVARIANT_VIOLATION, paths.tracks_meta_path,
                    f"track {track_id}: {column}={stored_value} does not match "
                    f"the tracks table ({actual})",
                    row=meta_row.row, column=column,
                )
                usable = False
        if not usable:
            continue
        track = Track(
            track_id=track_id,
            vehicle_class=meta_row.vehicle_class,
            direction=meta_row.direction,
            length=meta_row.length,
            width=meta_row.width,
            states=tuple(states),
            mean_speed=stored,
        )
        if meta_row.num_lane_changes != track.lane_change_count():
            scanner.issue(
                INVARIANT_VIOLATION, paths.tracks_meta_path,
                f"track {track_id}: numLaneChanges={meta_row.num_lane_changes} does not "
                f"match the tracks table ({track.lane_change_count()})",
                row=meta_row.row, column="numLaneChanges",
            )
            usable = False
            continue
        tracks.append(track)
        surround[track_id] = tuple(frames)
    if not usable:
        return scanner, None
    return scanner, Recording(meta=meta, tracks=tuple(tracks), surround=surround)


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


def discover_recordings(directory: Path) -> List[RecordingFileSet]:
    """File sets for every ``*_recordingMeta.csv`` in a directory, sorted by id."""
    directory = Path(directory)
    out = []
    for path in sorted(directory.glob("*_recordingMeta.csv")):
        rid = path.name.split("_")[0]
        if rid.isdigit():
            out.append(RecordingFileSet.for_recording(directory, int(rid)))
    return out
