"""Detection-to-track association: gating, confirmation, coasting.

Per-frame detections are linked into identity-stable tracks by greedy
nearest-neighbor association inside a fixed Euclidean gate. Tracks must
collect a minimum number of measured hits before they count as confirmed
(this removes single-frame false positives); unmatched tracks coast on a
constant-velocity prediction for a bounded number of frames before they are
terminated at their last measured frame.

The frame walk keeps each active track's last two positions and coast count
and logs one (track id, x, y, detection row) entry per active track and
frame into typed ``array`` columns, 8 bytes an entry; the log is then
grouped by track once for confirmation, the trim of coasted tails, class
votes and extents.
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
    frame from ``first_frame`` on, the first and last frames measured.
    Coasted frames hold constant-velocity predictions and ``measured``
    False. ``length`` and ``width`` are the medians of the detected extents
    and ``vehicle_class`` the majority of the class hints (a tie or no hint
    gives Car).
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

    The table is walked frame by frame. Tracks that never reach
    ``min_hits_to_confirm`` measured observations are dropped, detection
    gaps up to ``max_coast`` frames are filled with constant-velocity
    predictions, and a track coasting longer than that is terminated at its
    last measured frame. Output is sorted by track id; identical input
    yields identical output.
    """
    if not len(detections):
        return []
    frame_values, starts = np.unique(detections.frame, return_index=True)
    frame_values = frame_values.tolist()
    bounds = [*starts.tolist(), len(detections)]
    cx, cy = detections.cx.tolist(), detections.cy.tolist()
    # (id, x, y, previous x, previous y, coasted frames) per active track in
    # id order; the previous position is None while a track has one frame.
    active: List[tuple] = []
    log_id, log_row = array("q"), array("q")  # log_row: -1 for a coasted frame
    log_x, log_y = array("d"), array("d")
    next_id, k, frame = 1, 0, 0
    while k < len(frame_values):
        if not active:  # nothing coasts: go straight to the next detection
            frame = frame_values[k]
        start = stop = bounds[k]
        if frame_values[k] == frame:
            stop = bounds[k + 1]
            k += 1
        # One position predicts itself: 2 * x - x is not exact near overflow.
        predicted = [(x, y) if ox is None else (2 * x - ox, 2 * y - oy)
                     for _, x, y, ox, oy, _ in active]
        rows = [-1] * len(active)
        for t, d in associate_frame(predicted, [a[0] for a in active], cx[start:stop],
                                    cy[start:stop], cfg.gate_radius):
            rows[t] = start + d
        still_active = []
        for (track_id, x, y, _, _, coast), (px, py), r in zip(active, predicted, rows):
            if r < 0:
                coast += 1
            else:
                px, py, coast = cx[r], cy[r], 0
            if coast <= cfg.max_coast:
                still_active.append((track_id, px, py, x, y, coast))
            log_id.append(track_id)
            log_x.append(px)
            log_y.append(py)
        claimed = set(rows)
        spawned = [r for r in range(start, stop) if r not in claimed]
        for r in spawned:
            still_active.append((next_id, cx[r], cy[r], None, None, 0))
            log_id.append(next_id)
            log_x.append(cx[r])
            log_y.append(cy[r])
            next_id += 1
        log_row.extend(rows + spawned)
        active = still_active
        frame += 1

    # Group the log by track id; each group is one track's frames in order.
    ids = np.frombuffer(log_id, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    row = np.frombuffer(log_row, dtype=np.int64)[order]
    x, y = np.frombuffer(log_x)[order], np.frombuffer(log_y)[order]
    measured = row >= 0
    for column in (x, y, measured):
        column.flags.writeable = False
    begins = np.cumsum(np.bincount(ids)[:-1])  # ids run from 1 to next_id - 1
    hits = np.add.reduceat(measured, begins)
    # Coasted tails are dropped: each track ends at its last measured row.
    ends = np.maximum.reduceat(np.where(measured, np.arange(len(row)), -1), begins) + 1
    # +1 per Truck hint, -1 per Car hint: Truck needs a strict majority.
    # Object arrays compare enum members by identity, without hashing them.
    hints = np.array(detections.class_hint, dtype=object)
    votes = (hints == VehicleClass.TRUCK).view(np.int8) - (hints == VehicleClass.CAR)
    tracks = []
    for i in np.flatnonzero(hits >= cfg.min_hits_to_confirm).tolist():
        b, e = int(begins[i]), int(ends[i])
        own = row[b:e][measured[b:e]]
        tracks.append(RawTrack(
            track_id=i + 1, first_frame=int(detections.frame[own[0]]),
            x=x[b:e], y=y[b:e], measured=measured[b:e],
            # the medians are statistics.median's: (a + b) / 2 for an even count
            length=float(np.median(detections.length[own])),
            width=float(np.median(detections.width[own])),
            vehicle_class=VehicleClass.TRUCK if votes[own].sum() > 0 else VehicleClass.CAR,
            measured_count=int(hits[i]),
        ))
    return tracks
