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
from typing import List, Sequence, Tuple

import numpy as np

from .core import ContractViolation, Detection, VehicleClass, format_float, write_table
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

DETECTIONS_COLUMNS = ["frame", "cx", "cy", "length", "width", "class"]


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


@dataclass(frozen=True, slots=True)
class TrackObservation:
    frame: int
    x: float
    y: float
    measured: bool


class RawTrack:
    """A track under construction: observations plus class/extent tallies.

    Single-owner object; the tracker mutates it frame by frame. Positions of
    coasted frames are constant-velocity predictions and carry
    ``measured=False``.
    """

    __slots__ = ("track_id", "observations", "class_votes", "_lengths", "_widths",
                 "measured_count")

    def __init__(self, track_id: int, detection: Detection) -> None:
        self.track_id = track_id
        self.observations: List[TrackObservation] = []
        self.class_votes: Counter = Counter()
        self._lengths: List[float] = []
        self._widths: List[float] = []
        self.measured_count = 0
        self.add_measurement(detection)

    @property
    def next_frame(self) -> int:
        return self.observations[-1].frame + 1

    def predicted_position(self) -> Tuple[float, float]:
        """Constant-velocity extrapolation from the last two observations.

        With a single observation the prediction is the last position.
        """
        obs = self.observations
        if len(obs) == 1:
            return obs[0].x, obs[0].y
        a, b = obs[-2], obs[-1]
        return 2 * b.x - a.x, 2 * b.y - a.y

    def add_measurement(self, detection: Detection) -> None:
        self.observations.append(
            TrackObservation(detection.frame, detection.cx, detection.cy, True)
        )
        self.measured_count += 1
        self._lengths.append(detection.length)
        self._widths.append(detection.width)
        if detection.class_hint is not None:
            self.class_votes[detection.class_hint] += 1

    def add_prediction(self) -> None:
        x, y = self.predicted_position()
        self.observations.append(TrackObservation(self.next_frame, x, y, False))

    def trailing_predicted(self) -> int:
        n = 0
        for obs in reversed(self.observations):
            if obs.measured:
                break
            n += 1
        return n

    def trim_predicted_tail(self) -> None:
        while self.observations and not self.observations[-1].measured:
            self.observations.pop()

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

    ``matches`` pairs indices into the active-track list with indices into
    the detection list.
    """

    matches: Tuple[Tuple[int, int], ...]
    unmatched_tracks: Tuple[int, ...]
    unmatched_detections: Tuple[int, ...]


def associate_frame(
    active: Sequence[RawTrack], detections: Sequence[Detection], cfg: TrackerConfig
) -> Assignment:
    """Greedy min-distance matching of detections to predicted track centers.

    A pair is feasible iff the Euclidean distance between the track's
    predicted center and the detection center is at most ``gate_radius``.
    Feasible pairs are claimed in ascending (distance, track_id, detection
    index) order, each track and detection at most once.
    """
    if detections:
        frame = detections[0].frame
        for det in detections:
            if det.frame != frame:
                raise ContractViolation(
                    f"detections must share one frame: {det.frame} vs {frame}"
                )
        for track in active:
            if track.next_frame != frame:
                raise ContractViolation(
                    f"track {track.track_id} expects frame {track.next_frame}, "
                    f"detections are for frame {frame}"
                )

    candidates = []
    for ti, track in enumerate(active):
        px, py = track.predicted_position()
        for di, det in enumerate(detections):
            dist = math.hypot(det.cx - px, det.cy - py)
            if dist <= cfg.gate_radius:
                candidates.append((dist, track.track_id, di, ti))
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


def build_tracks(
    frames: Sequence[Sequence[Detection]], cfg: TrackerConfig
) -> List[RawTrack]:
    """Assemble confirmed tracks from per-frame detection lists.

    ``frames[i]`` holds the detections of frame i. Tracks that never reach
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

    for frame_index, detections in enumerate(frames):
        for det in detections:
            if det.frame != frame_index:
                raise ContractViolation(
                    f"detection frame {det.frame} at list index {frame_index}"
                )
        assignment = associate_frame(active, detections, cfg)
        for ti, di in assignment.matches:
            active[ti].add_measurement(detections[di])
        still_active: List[RawTrack] = [active[ti] for ti, _ in assignment.matches]
        for ti in assignment.unmatched_tracks:
            track = active[ti]
            track.add_prediction()
            if track.trailing_predicted() > cfg.max_coast:
                finalize(track)
            else:
                still_active.append(track)
        for di in assignment.unmatched_detections:
            still_active.append(RawTrack(next_id, detections[di]))
            next_id += 1
        still_active.sort(key=lambda t: t.track_id)
        active = still_active

    for track in active:
        finalize(track)
    finished.sort(key=lambda t: t.track_id)
    return finished


# ---------------------------------------------------------------------------
# Detection CSV interface (same formatting rules as the recording tables)


def write_detections(
    frames: Sequence[Sequence[Detection]], path: Path
) -> None:
    write_table(path, DETECTIONS_COLUMNS, (
        [
            det.frame,
            format_float(det.cx),
            format_float(det.cy),
            format_float(det.length),
            format_float(det.width),
            det.class_hint.value if det.class_hint is not None else "",
        ]
        for detections in frames
        for det in detections
    ))


_DETECTIONS_PARSERS = {
    "frame": _ints, "cx": _floats, "cy": _floats, "length": _floats,
    "width": _floats, "class": partial(_classes, optional=True),
}


def read_detections(path: Path, max_frame: float) -> List[List[Detection]]:
    """Detections grouped by frame, index 0..max frame (gaps are empty lists).

    Frames outside [0, ``max_frame``] (the recording meta's) are rejected
    before anything is grouped, so the frame lists stay within the recording.
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
    if not len(frames):
        return []
    order = np.argsort(frames, kind="stable")
    hints = cols["class"]
    detections = list(map(
        Detection,
        *(cols[c][order].tolist() for c in ("frame", "cx", "cy", "length", "width")),
        [hints[i] for i in order.tolist()],
    ))
    ends = np.cumsum(np.bincount(frames)).tolist()
    return [detections[a:b] for a, b in zip([0, *ends], ends)]
