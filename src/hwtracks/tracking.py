"""Detection-to-track association: gating, confirmation, coasting.

Per-frame detections are linked into identity-stable tracks by greedy
nearest-neighbor association inside a fixed Euclidean gate. Tracks must
collect a minimum number of measured hits before they count as confirmed
(this removes single-frame false positives); unmatched tracks coast on a
constant-velocity prediction for a bounded number of frames before they are
terminated at their last measured frame.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DETECTION_COLUMNS,
    ContractViolation,
    DetectionTable,
    VehicleClass,
    format_float,
    write_table,
)
from .dataset_io import (
    INVARIANT_VIOLATION,
    TYPE_MISMATCH,
    _classes,
    _floats,
    _frames_outside,
    _ints,
    _parse_table,
    _parsed,
    _report,
    _Scanner,
)

DETECTIONS_COLUMNS = ["frame", *DETECTION_COLUMNS, "class"]


@dataclass(frozen=True)
class TrackerConfig:
    gate_radius: float = 2.5
    min_hits_to_confirm: int = 5
    max_coast: int = 12

    def __post_init__(self) -> None:
        if not self.gate_radius > 0:
            raise ValueError(f"gate_radius must be > 0, got {self.gate_radius}")
        if self.min_hits_to_confirm < 1:
            raise ValueError("min_hits_to_confirm must be >= 1")
        if self.max_coast < 0:
            raise ValueError("max_coast must be >= 0")


class RawTrack:
    """A track under construction: positions per frame plus class/extent tallies.

    Single-owner object; the tracker mutates it frame by frame. ``x``, ``y``
    and ``measured`` hold one entry per frame from ``first_frame`` on.
    Positions of coasted frames are constant-velocity predictions and carry
    ``measured`` False.
    """

    __slots__ = ("track_id", "first_frame", "x", "y", "measured", "class_votes",
                 "_lengths", "_widths", "measured_count")

    def __init__(self, track_id: int, frame: int, cx: float, cy: float, length: float,
                 width: float, class_hint: Optional[VehicleClass] = None) -> None:
        self.track_id = track_id
        self.first_frame = frame
        self.x: List[float] = []
        self.y: List[float] = []
        self.measured: List[bool] = []
        self.class_votes: Counter = Counter()
        self._lengths: List[float] = []
        self._widths: List[float] = []
        self.measured_count = 0
        self.add_measurement(cx, cy, length, width, class_hint)

    @property
    def next_frame(self) -> int:
        return self.first_frame + len(self.x)

    def predicted_position(self) -> Tuple[float, float]:
        """Constant-velocity extrapolation from the last two positions.

        With a single position the prediction is that position.
        """
        x, y = self.x, self.y
        if len(x) == 1:
            return x[0], y[0]
        return 2 * x[-1] - x[-2], 2 * y[-1] - y[-2]

    def add_measurement(self, cx: float, cy: float, length: float, width: float,
                        class_hint: Optional[VehicleClass] = None) -> None:
        """Record a detection at ``next_frame``."""
        self.x.append(cx)
        self.y.append(cy)
        self.measured.append(True)
        self.measured_count += 1
        self._lengths.append(length)
        self._widths.append(width)
        if class_hint is not None:
            self.class_votes[class_hint] += 1

    def add_prediction(self) -> None:
        x, y = self.predicted_position()
        self.x.append(x)
        self.y.append(y)
        self.measured.append(False)

    def trailing_predicted(self) -> int:
        return next(i for i, measured in enumerate(reversed(self.measured)) if measured)

    def trim_predicted_tail(self) -> None:
        keep = len(self.x) - self.trailing_predicted()
        del self.x[keep:], self.y[keep:], self.measured[keep:]

    def extent(self) -> Tuple[float, float]:
        """Running median of the detected length and width."""
        return statistics.median(self._lengths), statistics.median(self._widths)

    def decide_class(self) -> VehicleClass:
        """Majority vote over detection hints; ties and no votes give Car."""
        if not self.class_votes:
            return VehicleClass.CAR
        top = max(self.class_votes.values())
        leaders = [c for c, n in self.class_votes.items() if n == top]
        return leaders[0] if len(leaders) == 1 else VehicleClass.CAR


@dataclass(frozen=True)
class Assignment:
    """Result of matching one frame's detections against the active tracks.

    ``matches`` pairs indices into the active-track list with row indices
    into the frame's detections.
    """

    matches: Tuple[Tuple[int, int], ...]
    unmatched_tracks: Tuple[int, ...]
    unmatched_detections: Tuple[int, ...]


def associate_frame(
    active: Sequence[RawTrack], detections: DetectionTable, cfg: TrackerConfig
) -> Assignment:
    """Greedy min-distance matching of one frame's detections to predicted
    track centers.

    A pair is feasible iff the Euclidean distance (``math.hypot``) between
    the track's predicted center and the detection center is at most
    ``gate_radius``. Feasible pairs are claimed in ascending (distance,
    track_id, detection index) order, each track and detection at most once.
    """
    candidates = []
    if len(detections):
        frame = detections.frame[0]
        if detections.frame[-1] != frame:
            raise ContractViolation(f"detections span frames {frame} to {detections.frame[-1]}")
        for track in active:
            if track.next_frame != frame:
                raise ContractViolation(f"track {track.track_id} expects frame "
                                        f"{track.next_frame}, detections are for frame {frame}")
        # The box |dx|, |dy| <= gate holds every pair within the gate, so
        # only the pairs inside it are scored; math.hypot alone decides the
        # gate and the order (np.hypot can differ from it in the last bit).
        px, py = np.array([t.predicted_position() for t in active]).reshape(-1, 2).T
        dx = detections.cx - px[:, None]
        dy = detections.cy - py[:, None]
        gate = cfg.gate_radius
        ti, di = np.nonzero((np.abs(dx) <= gate) & (np.abs(dy) <= gate))
        for t, d, ex, ey in zip(ti.tolist(), di.tolist(), dx[ti, di].tolist(),
                                dy[ti, di].tolist()):
            dist = math.hypot(ex, ey)
            if dist <= gate:
                candidates.append((dist, active[t].track_id, d, t))
        candidates.sort()

    matches: List[Tuple[int, int]] = []
    used_tracks = set()
    used_detections = set()
    for _, _, di, ti in candidates:
        if ti in used_tracks or di in used_detections:
            continue
        used_tracks.add(ti)
        used_detections.add(di)
        matches.append((ti, di))
    return Assignment(
        matches=tuple(matches),
        unmatched_tracks=tuple(i for i in range(len(active)) if i not in used_tracks),
        unmatched_detections=tuple(
            i for i in range(len(detections)) if i not in used_detections
        ),
    )


def build_tracks(detections: DetectionTable, cfg: TrackerConfig) -> List[RawTrack]:
    """Assemble confirmed tracks from a detection table.

    The table is walked frame by frame. Tracks that never reach
    ``min_hits_to_confirm`` measured observations are dropped, detection
    gaps up to ``max_coast`` frames are filled with constant-velocity
    predictions, and a track coasting longer than that is terminated at its
    last measured frame. Output is sorted by track id; identical input
    yields identical output.
    """
    active: List[RawTrack] = []
    finished: List[RawTrack] = []
    next_id = 1

    def finalize(track: RawTrack) -> None:
        track.trim_predicted_tail()
        if track.measured_count >= cfg.min_hits_to_confirm:
            finished.append(track)

    frames = detections.frame
    cx, cy, length, width = (getattr(detections, c).tolist() for c in DETECTION_COLUMNS)
    hints = detections.class_hint
    start, frame = 0, 0
    while start < len(frames):
        if not active:  # nothing coasts: go straight to the next detection
            frame = int(frames[start])
        stop = int(np.searchsorted(frames, frame, side="right"))
        assignment = associate_frame(active, detections.rows(start, stop), cfg)
        for ti, di in assignment.matches:
            r = start + di
            active[ti].add_measurement(cx[r], cy[r], length[r], width[r], hints[r])
        still_active: List[RawTrack] = [active[ti] for ti, _ in assignment.matches]
        for ti in assignment.unmatched_tracks:
            track = active[ti]
            track.add_prediction()
            if track.trailing_predicted() > cfg.max_coast:
                finalize(track)
            else:
                still_active.append(track)
        for di in assignment.unmatched_detections:
            r = start + di
            still_active.append(
                RawTrack(next_id, frame, cx[r], cy[r], length[r], width[r], hints[r])
            )
            next_id += 1
        still_active.sort(key=lambda t: t.track_id)
        active = still_active
        start, frame = stop, frame + 1

    for track in active:
        finalize(track)
    finished.sort(key=lambda t: t.track_id)
    return finished


# ---------------------------------------------------------------------------
# Detection CSV interface (same formatting rules as the recording tables)


def write_detections(detections: DetectionTable, path: Path) -> None:
    write_table(path, DETECTIONS_COLUMNS, "dggggs", [(
        detections.frame,
        *(getattr(detections, c) for c in DETECTION_COLUMNS),
        ["" if hint is None else hint.value for hint in detections.class_hint],
    )])


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
