"""Shared domain model: units, coordinate conventions, core value types.

All positions are bounding-box centers in a road-aligned frame measured in
meters: x is longitudinal, y is lateral. Lane markings run parallel to the
x axis, so lane membership is a pure function of y. Vehicles on the upper
carriageway travel toward decreasing x, vehicles on the lower carriageway
toward increasing x.

Every type here is an immutable value; instances can be shared freely
between workers. The canonical number format, the CSV and JSON writers of
every output file and the typed reader of every JSON input live here as well.
"""

from __future__ import annotations

import json
import math
import operator
from collections import abc
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, List, Optional, Sequence, TextIO, Tuple

import numpy as np

#: In-memory sentinel for a lane without a posted speed limit.
UNLIMITED_SPEED = math.inf


def speed_limit_from_file(value: float) -> float:
    """A speed limit as scripts and recordingMeta files give it, -1 for no
    limit, as ``RecordingMeta`` holds it, ``UNLIMITED_SPEED`` for no limit."""
    return UNLIMITED_SPEED if value == -1.0 else value


def speed_limit_to_file(value: float) -> float:
    """The inverse of ``speed_limit_from_file``."""
    return -1.0 if value == UNLIMITED_SPEED else value


class ContractViolation(Exception):
    """An operation was invoked outside its documented precondition."""


class VehicleClass(Enum):
    CAR = "Car"
    TRUCK = "Truck"

    @classmethod
    def parse(cls, text: str) -> "VehicleClass":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(f"unknown vehicle class {text!r} (expected 'Car' or 'Truck')")


class DrivingDirection(Enum):
    """Carriageway identity. Numeric values match the file encoding."""

    UPPER = 1
    LOWER = 2

    @property
    def travel_sign(self) -> int:
        """Sign of longitudinal travel: -1 on the upper, +1 on the lower carriageway."""
        return -1 if self is DrivingDirection.UPPER else 1

    @classmethod
    def parse(cls, value: int) -> "DrivingDirection":
        if value == 1:
            return cls.UPPER
        if value == 2:
            return cls.LOWER
        raise ValueError(f"unknown driving direction {value!r} (expected 1 or 2)")


def _check_boundaries(name: str, boundaries: Sequence[float]) -> None:
    if len(boundaries) < 3:
        raise ValueError(f"{name} needs >= 3 boundaries (>= 2 lanes), got {len(boundaries)}")
    for a, b in zip(boundaries, boundaries[1:]):
        if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
            raise ValueError(f"{name} must be finite and strictly increasing, got {boundaries}")


@dataclass(frozen=True)
class RecordingMeta:
    """Site geometry and recording parameters for one recording.

    Lane boundaries are the lateral (y) positions of the lane markings of a
    carriageway, stored in strictly increasing order; lane k of a carriageway
    spans the half-open interval [boundary[k-1], boundary[k]). Speed limits
    are per lane in m/s, ``UNLIMITED_SPEED`` meaning no posted limit.
    """

    recording_id: int
    location_id: int
    frame_rate: float
    duration: float
    upper_lane_boundaries: Tuple[float, ...]
    lower_lane_boundaries: Tuple[float, ...]
    upper_speed_limits: Tuple[float, ...]
    lower_speed_limits: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.frame_rate > 0:
            raise ValueError(f"frame_rate must be > 0, got {self.frame_rate}")
        if not self.duration > 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        _check_boundaries("upper_lane_boundaries", self.upper_lane_boundaries)
        _check_boundaries("lower_lane_boundaries", self.lower_lane_boundaries)
        for limits, boundaries, name in (
            (self.upper_speed_limits, self.upper_lane_boundaries, "upper"),
            (self.lower_speed_limits, self.lower_lane_boundaries, "lower"),
        ):
            lanes = len(boundaries) - 1
            if len(limits) != lanes:
                raise ValueError(
                    f"{name} speed limits: expected one per lane ({lanes}), got {len(limits)}"
                )
            for v in limits:
                if not (v > 0):
                    raise ValueError(f"{name} speed limit must be positive, got {v}")

    def boundaries(self, direction: DrivingDirection) -> Tuple[float, ...]:
        if direction is DrivingDirection.UPPER:
            return self.upper_lane_boundaries
        return self.lower_lane_boundaries

    def lane_count(self, direction: DrivingDirection) -> int:
        return len(self.boundaries(direction)) - 1

    @property
    def max_frame(self) -> float:
        """Largest frame index the recording may contain."""
        return self.duration * self.frame_rate


def nearest_lane_id(y, meta: RecordingMeta, direction: DrivingDirection):
    """1-based lane containing lateral offset ``y``: lane k for
    boundary[k-1] <= y < boundary[k], the lower edge inclusive. Off-road
    offsets clamp to the nearest edge lane.

    ``y`` is a float or an array of floats; the result is an int64 scalar or
    array.
    """
    b = meta.boundaries(direction)
    return np.clip(np.searchsorted(b, y, side="right"), 1, len(b) - 1)


def lane_change_count(lanes) -> int:
    """Number of frame-to-frame changes in a column of lane ids."""
    return int(np.count_nonzero(np.diff(lanes)))


@dataclass(frozen=True, slots=True)
class KinematicState:
    """One vehicle's state at one frame (box center, road-aligned frame): a
    row of a Track as ``Track.states`` yields it. A plain record; the Track
    checked its columns."""

    frame: int
    x: float
    y: float
    vx: float
    vy: float
    ax: float
    ay: float
    lane_id: int


def bumper_gap(x_a, length_a, x_b, length_b):
    """Bumper-to-bumper distance of two same-frame vehicles with centres
    ``x_a``, ``x_b`` and lengths ``length_a``, ``length_b``, clamped at zero.
    Takes floats or equal-shape arrays and returns an array."""
    return np.maximum(abs(x_a - x_b) - (length_a + length_b) / 2.0, 0.0)


def compute_mean_speed(vx) -> float:
    """Mean of per-frame longitudinal speed magnitudes, summed left to right
    in plain float64 adds (Python's ``sum`` compensates from 3.12 on), with
    an overflow to inf left silent."""
    if not len(vx):
        raise ValueError("mean speed of an empty state list is undefined")
    with np.errstate(over="ignore"):
        return float(np.add.accumulate(np.abs(np.asarray(vx, dtype=float)))[-1]) / len(vx)


#: The float64 columns of a Track, in file order; ``lane`` is the int64 one.
KINEMATIC_COLUMNS = ("x", "y", "vx", "vy", "ax", "ay")


def _store_columns(obj, where: str, n: int, floats: Sequence[str], integer: str) -> None:
    """Replace the named fields of a frozen ``obj`` by read-only arrays of
    length ``n``: float64 for ``floats``, int64 for ``integer``."""
    for name in (*floats, integer):
        column = np.asarray(getattr(obj, name),
                            np.int64 if name == integer else np.float64).view()
        if column.shape != (n,):
            raise ValueError(f"{where}: column {name} has shape {column.shape}, "
                             f"expected ({n},)")
        column.flags.writeable = False
        object.__setattr__(obj, name, column)


@dataclass(frozen=True, eq=False)
class Track:
    """One vehicle: its summary plus one column per kinematic quantity.

    Row i of every column is frame ``initial_frame + i``, so the frames are
    consecutive by construction. ``x`` .. ``ay`` become read-only float64
    and ``lane`` a read-only int64 column; all must be finite, non-empty
    and of one length, with lanes >= 1. ``mean_speed`` is stored as given.
    """

    track_id: int
    vehicle_class: VehicleClass
    direction: DrivingDirection
    length: float
    width: float
    mean_speed: float
    initial_frame: int
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    lane: np.ndarray

    def __post_init__(self) -> None:
        where = f"track {self.track_id}"
        object.__setattr__(self, "initial_frame", operator.index(self.initial_frame))
        if not self.length > 0 or not self.width > 0:
            raise ValueError(f"{where}: extents must be positive")
        if self.initial_frame < 0:
            raise ValueError(f"{where}: frame must be >= 0, got {self.initial_frame}")
        n = len(self.lane)
        if n == 0:
            raise ValueError(f"{where}: needs at least one state")
        _store_columns(self, where, n, KINEMATIC_COLUMNS, "lane")
        if self.lane.min() < 1:
            raise ValueError(f"{where}: lane must be >= 1, got {self.lane.min()}")
        for name in KINEMATIC_COLUMNS:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{where}: {name} must be finite")

    @property
    def num_frames(self) -> int:
        return len(self.lane)

    @property
    def final_frame(self) -> int:
        return self.initial_frame + self.num_frames - 1

    @property
    def frames(self) -> np.ndarray:
        return np.arange(self.initial_frame, self.final_frame + 1)

    @property
    def states(self) -> "TrackStates":
        return TrackStates(self)


class TrackStates(abc.Sequence):
    """Sized, indexable, read-only view of a Track's rows as KinematicState
    records, each built when it is read."""

    def __init__(self, track: Track) -> None:
        self._track = track

    def __len__(self) -> int:
        return self._track.num_frames

    def __iter__(self):
        t = self._track
        return map(KinematicState, t.frames.tolist(),
                   *(getattr(t, c).tolist() for c in KINEMATIC_COLUMNS), t.lane.tolist())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        t = self._track
        i = range(len(self))[index]
        return KinematicState(t.initial_frame + i,
                              *(getattr(t, c)[i].item() for c in KINEMATIC_COLUMNS),
                              t.lane[i].item())


#: The float64 columns of a DetectionTable, in file order.
DETECTION_COLUMNS = ("cx", "cy", "length", "width")


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Per-frame detector output: one row per detection, sorted by frame.

    ``frame`` becomes a read-only int64 column, ``cx`` .. ``width`` read-only
    float64 columns (box centre and extents), and ``class_hint`` a tuple with
    one optional VehicleClass per row. Frames are >= 0 and ascending, values
    finite, extents positive and all columns of one length.
    """

    frame: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    length: np.ndarray
    width: np.ndarray
    class_hint: Tuple[Optional[VehicleClass], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "class_hint", tuple(self.class_hint))
        _store_columns(self, "detections", len(self), DETECTION_COLUMNS, "frame")
        if len(self) and self.frame[0] < 0:
            raise ValueError(f"detections: frame must be >= 0, got {self.frame[0]}")
        if (self.frame[1:] < self.frame[:-1]).any():
            raise ValueError("detections: frames must be in ascending order")
        if not all(np.isfinite(getattr(self, c)).all() for c in DETECTION_COLUMNS):
            raise ValueError("detections: cx, cy, length and width must be finite")
        if not ((self.length > 0) & (self.width > 0)).all():
            raise ValueError("detections: extents must be positive")

    def __len__(self) -> int:
        return len(self.class_hint)


# ---------------------------------------------------------------------------
# Canonical file format


def format_float(value: float) -> str:
    """Canonical 6-significant-digit decimal form, stable under re-parsing."""
    return "%.6g" % (value + 0.0)  # + 0.0 turns -0.0 into 0.0


def format_floats(column) -> List[str]:
    """``format_float`` of every value of a float column, formatted with one
    ``%`` over a template of one field per value."""
    values = (np.asarray(column, np.float64) + 0.0).tolist()
    return ("%.6g\n" * len(values) % tuple(values)).split("\n")[:-1]


def canonical_float(value: float) -> float:
    """The float a reader gets back from ``format_float(value)``."""
    return float(format_float(value))


#: Per column kind of ``write_table``: its row-template field and its cells.
_KINDS = {
    "d": ("%d", lambda column: np.asarray(column, np.int64).tolist()),
    "g": ("%.6g", lambda column: (np.asarray(column, np.float64) + 0.0).tolist()),  # 0, not -0
    "s": ("%s", list),
}
#: Rows that ``write_table`` formats with one ``%``; bounds the cells held at once.
_BLOCK_ROWS = 1024


def write_table(
    path: Path, columns: Sequence[str], kinds: str, blocks: Iterable[Sequence[Sequence]]
) -> None:
    """CSV table in UTF-8 with "\\n" line ends: the header, then the rows of
    each block, a block being one equally long sequence per column.
    ``kinds`` has one letter per column: ``d`` an integer, ``g`` a float in
    the canonical form, ``s`` text that needs no CSV quoting. Rows are
    formatted with one ``%`` over a row template per ``_BLOCK_ROWS`` rows."""
    template = ",".join(_KINDS[kind][0] for kind in kinds) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            for start in range(0, len(block[0]) if block else 0, _BLOCK_ROWS):
                cells = [_KINDS[kind][1](column[start:start + _BLOCK_ROWS])
                         for column, kind in zip(block, kinds)]
                fh.write(template * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))


def _plain(value):
    """A numpy scalar as the Python value it holds; any other value as is."""
    return value.item() if isinstance(value, np.generic) else value


def _cell(value) -> str:
    value = _plain(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def write_rows(path: Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """``write_table`` of rows of plain values, one per column: None is an
    empty cell, a bool 1 or 0 and a float the canonical form."""
    write_table(path, columns, "s" * len(columns),
                [list(zip(*([_cell(value) for value in row] for row in rows)))])


def dump_json(payload: Any, fh: TextIO) -> None:
    """``payload`` as JSON indented by 2, followed by a newline."""
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def write_json(path: Path, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(payload, fh)


def write_json_rows(path: Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Rows of plain values as JSON records keyed by ``columns``, each float
    the one a reader of the CSV gets back."""
    write_json(path, [
        {column: canonical_float(value) if isinstance(value, float) else value
         for column, value in zip(columns, map(_plain, row))}
        for row in rows])


# ---------------------------------------------------------------------------
# JSON input


_REQUIRED = object()


class JsonObject:
    """Typed reads from one object of a JSON input, a scenario script or a
    pipeline config, that may hold only ``keys``. Errors are ValueErrors that
    name the object as ``path`` (``root`` where it has none) and a key as
    ``path.key``. An integer key takes a JSON integer only, a number key an
    integer or a float whose float value is finite; neither takes a bool."""

    def __init__(self, data, keys: Iterable[str], path: str = "", root: str = "root") -> None:
        if not isinstance(data, abc.Mapping):
            raise ValueError(f"{path or root} must be a JSON object")
        if set(data) - set(keys):
            raise ValueError(f"{path or root}: unknown key(s) {sorted(set(data) - set(keys))}")
        self.data, self.prefix = data, f"{path}." if path else ""

    def value(self, key: str, default=_REQUIRED):
        if key not in self.data and default is _REQUIRED:
            raise ValueError(f"missing required key {self.prefix}{key}")
        return self.data.get(key, default)

    def integer(self, key: str, default=_REQUIRED) -> int:
        return self.check_integer(self.prefix + key, self.value(key, default))

    def index(self, key: str, default=_REQUIRED) -> int:
        """An integer in [0, 2**63): a seed, or an id that files store as int64."""
        value = self.integer(key, default)
        if not 0 <= value < 2**63:
            raise ValueError(f"{self.prefix}{key} must lie in [0, 2**63), got {value!r}")
        return value

    def number(self, key: str, default=_REQUIRED, positive: bool = False) -> Optional[float]:
        """A float; None for null or absent where the default is None."""
        value = self.value(key, default)
        return None if value is None and default is None else \
            self.check_number(self.prefix + key, value, positive)

    def items(self, key: str, default=()) -> List[Tuple[str, Any]]:
        """``(name, entry)`` per entry of a list key; null is an empty list."""
        value = self.value(key, default)
        if not isinstance(value, (list, tuple, type(None))):
            raise ValueError(f"{self.prefix}{key} must be a list, got {value!r}")
        return [(f"{self.prefix}{key}[{k}]", entry) for k, entry in enumerate(value or ())]

    def numbers(self, key: str, default=()) -> Tuple[float, ...]:
        return tuple(self.check_number(name, entry) for name, entry in self.items(key, default))

    def objects(self, key: str, keys: Iterable[str]) -> List["JsonObject"]:
        return [JsonObject(entry, keys, name) for name, entry in self.items(key)]

    @staticmethod
    def check_integer(name: str, value) -> int:
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return value

    @staticmethod
    def check_number(name: str, value, positive: bool = False) -> float:
        """``value`` as a float; ``positive`` also rejects <= 0."""
        if type(value) is bool or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if positive and not number > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
        return number
