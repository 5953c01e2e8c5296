"""Detection-to-track association: gating, confirmation, coasting.

Per-frame detections are linked into identity-stable tracks by greedy
nearest-neighbor association inside a fixed Euclidean gate. Tracks must
collect a minimum number of measured hits before they count as confirmed
(this removes single-frame false positives); unmatched tracks coast on a
constant-velocity prediction for a bounded number of frames before they are
terminated at their last measured frame.

The frame walk boxes only the current frame's detection centres as Python
floats and keeps each active track's last two positions and coast count,
which give its constant-velocity prediction. Each detection row either joins
an active track or starts a new one, so the walk records one owner track id
per row, in an 8-byte ``array`` column. A track is then its detection rows:
a stable argsort of the owners groups them in frame order, once, for
confirmation, class votes, extents and the track's columns.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import DetectionTable, VehicleClass


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


@dataclass(frozen=True, eq=False)
class RawTrack:
    """A confirmed track before smoothing.

    ``x``, ``y`` and ``measured`` are read-only arrays with one entry per
    frame from ``first_frame`` on, the first and last frames measured. On a
    measured frame ``x`` and ``y`` are the detection's centre; coasted frames
    have ``measured`` False and NaN ``x`` and ``y``. ``length`` and ``width``
    are the medians of the detected extents and ``vehicle_class`` the
    majority of the class hints (a tie or no hint gives Car).
    """

    track_id: int
    first_frame: int
    x: np.ndarray
    y: np.ndarray
    measured: np.ndarray
    length: float
    width: float
    vehicle_class: VehicleClass
    measured_count: int


def associate_frame(
    predicted: Sequence[Tuple[float, float]], track_ids: Sequence[int],
    cx: Sequence[float], cy: Sequence[float], gate: float,
) -> List[Tuple[int, int]]:
    """Greedy min-distance matching of one frame's detection centres
    (``cx``, ``cy``) to the tracks' predicted centres.

    A pair is feasible iff the Euclidean distance (``math.hypot``) between
    the predicted centre and the detection centre is at most ``gate``.
    Feasible pairs are claimed in ascending (distance, track id, detection
    index) order, each track and detection at most once. Returns the
    claimed (track index, detection index) pairs.
    """
    order = sorted(range(len(cx)), key=cx.__getitem__)
    xs = [cx[d] for d in order]
    candidates = []
    for t, (px, py) in enumerate(predicted):
        # The window only skips pairs; math.hypot alone decides the gate.
        # It is wide enough that no rounding of its bounds drops a pair.
        w = 2 * gate + abs(px) * 2**-50
        for d in order[bisect_left(xs, px - w):bisect_right(xs, px + w)]:
            dist = math.hypot(cx[d] - px, cy[d] - py)
            if dist <= gate:
                candidates.append((dist, track_ids[t], d, t))
    candidates.sort()
    matches: List[Tuple[int, int]] = []
    used_tracks = set()
    used_detections = set()
    for _, _, d, t in candidates:
        if t not in used_tracks and d not in used_detections:
            used_tracks.add(t)
            used_detections.add(d)
            matches.append((t, d))
    return matches


def build_tracks(detections: DetectionTable, cfg: TrackerConfig) -> List[RawTrack]:
    """Assemble confirmed tracks from a detection table.

    The table is walked frame by frame. Unmatched tracks coast on their
    constant-velocity prediction; a track coasting longer than
    ``max_coast`` frames is terminated, and a track runs from its first to
    its last detection. Tracks with fewer than ``min_hits_to_confirm``
    detections are dropped. Output is sorted by track id; identical input
    yields identical output.
    """
    if not len(detections):
        return []
    frame_values, starts = np.unique(detections.frame, return_index=True)
    frame_values = frame_values.tolist()
    bounds = [*starts.tolist(), len(detections)]
    # (id, x, y, previous x, previous y, coasted frames) per active track in
    # id order; the previous position is None while a track has one frame.
    active: List[tuple] = []
    owner = array("q")  # the id of the track each detection row belongs to
    next_id, k, frame = 1, 0, 0
    while k < len(frame_values):
        if not active:  # nothing coasts: go straight to the next detection
            frame = frame_values[k]
        start = stop = bounds[k]
        if frame_values[k] == frame:
            stop = bounds[k + 1]
            k += 1
        # This frame's centres, boxed only while the frame is walked.
        cx, cy = detections.cx[start:stop].tolist(), detections.cy[start:stop].tolist()
        # One position predicts itself: 2 * x - x is not exact near overflow.
        predicted = [(x, y) if ox is None else (2 * x - ox, 2 * y - oy)
                     for _, x, y, ox, oy, _ in active]
        rows = [-1] * len(active)  # each active track's detection in this frame
        for t, d in associate_frame(predicted, [a[0] for a in active], cx, cy,
                                    cfg.gate_radius):
            rows[t] = d
        owners = [0] * (stop - start)  # this frame's owner ids; 0 until claimed
        still_active = []
        for (track_id, x, y, _, _, coast), (px, py), r in zip(active, predicted, rows):
            if r < 0:
                coast += 1
            else:
                px, py, coast = cx[r], cy[r], 0
                owners[r] = track_id
            if coast <= cfg.max_coast:
                still_active.append((track_id, px, py, x, y, coast))
        for d in range(stop - start):
            if not owners[d]:
                owners[d] = next_id
                still_active.append((next_id, cx[d], cy[d], None, None, 0))
                next_id += 1
        owner.extend(owners)
        active = still_active
        frame += 1

    # Group the rows by owner; each group is one track's detections in frame
    # order, and the track runs from the first to the last of them.
    ids = np.frombuffer(owner, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    hits = np.bincount(ids)[1:]  # ids run from 1 to next_id - 1
    del ids, owner
    ends = np.cumsum(hits)
    # +1 per Truck hint, -1 per Car hint: Truck needs a strict majority.
    # Object arrays compare enum members by identity, without hashing them.
    hints = np.array(detections.class_hint, dtype=object)
    votes = (hints == VehicleClass.TRUCK).view(np.int8) - (hints == VehicleClass.CAR)
    tracks = []
    for i in np.flatnonzero(hits >= cfg.min_hits_to_confirm).tolist():
        own = order[ends[i] - hits[i]:ends[i]]
        frames = detections.frame[own]
        at = frames - frames[0]
        x, y = np.full((2, int(at[-1]) + 1), np.nan)
        x[at], y[at] = detections.cx[own], detections.cy[own]
        measured = np.zeros(len(x), dtype=bool)
        measured[at] = True
        for column in (x, y, measured):
            column.flags.writeable = False
        tracks.append(RawTrack(
            track_id=i + 1, first_frame=int(frames[0]), x=x, y=y, measured=measured,
            # the medians are statistics.median's: (a + b) / 2 for an even count
            length=float(np.median(detections.length[own])),
            width=float(np.median(detections.width[own])),
            vehicle_class=VehicleClass.TRUCK if votes[own].sum() > 0 else VehicleClass.CAR,
            measured_count=int(hits[i]),
        ))
    return tracks
