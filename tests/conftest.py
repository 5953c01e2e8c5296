"""Shared builders for tests."""

import math
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from hwtracks import (
    DetectionTable,
    DrivingDirection,
    KinematicState,
    RecordingMeta,
    Track,
    VehicleClass,
    compute_mean_speed,
)
from hwtracks.core import KINEMATIC_COLUMNS
from hwtracks.lane_change import CutInSide
from hwtracks.surround import NO_VEHICLE, UNDEFINED, left_lane_id

# The benchmark scenes and the tools import from the repository root.
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

UPPER = (0.0, 3.7, 7.4)
LOWER = (12.0, 15.7, 19.4)


def make_meta(**kwargs) -> RecordingMeta:
    defaults = dict(
        recording_id=1,
        location_id=1,
        frame_rate=25.0,
        duration=60.0,
        upper_lane_boundaries=UPPER,
        lower_lane_boundaries=LOWER,
        upper_speed_limits=(math.inf, math.inf),
        lower_speed_limits=(math.inf, math.inf),
    )
    defaults.update(kwargs)
    return RecordingMeta(**defaults)


def make_state(frame=0, x=0.0, y=13.85, vx=25.0, vy=0.0, ax=0.0, ay=0.0, lane_id=1):
    return KinematicState(frame=frame, x=x, y=y, vx=vx, vy=vy, ax=ax, ay=ay,
                          lane_id=lane_id)


def track_from_states(states, track_id=1, direction=DrivingDirection.LOWER,
                      length=4.5, width=2.0, vehicle_class=VehicleClass.CAR,
                      mean_speed=None):
    """A Track whose rows are ``states`` (records of consecutive frames)."""
    frames = [s.frame for s in states]
    assert frames == list(range(frames[0], frames[0] + len(frames))), frames
    columns = {name: [getattr(s, name) for s in states] for name in KINEMATIC_COLUMNS}
    return Track(
        track_id=track_id,
        vehicle_class=vehicle_class,
        direction=direction,
        length=length,
        width=width,
        mean_speed=compute_mean_speed(columns["vx"]) if mean_speed is None else mean_speed,
        initial_frame=frames[0],
        lane=[s.lane_id for s in states],
        **columns,
    )


def det(frame, cx, cy, length=4.5, width=2.0, hint=None):
    """One detection row for ``detection_table``."""
    return frame, cx, cy, length, width, hint


def detection_table(rows):
    """A DetectionTable of ``det`` rows, sorted by frame (stable)."""
    return DetectionTable(*(list(zip(*sorted(rows, key=lambda r: r[0]))) or [()] * 6))


def row_at(track, frame):
    """The track's row at ``frame`` as a record, None where it is not alive."""
    i = frame - track.initial_frame
    return track.states[i] if 0 <= i < track.num_frames else None


def cut_in_oracle(episode, tracks, meta):
    """Frame-scan recomputation of every CutInScenario field from states."""
    by_id = {t.track_id: t for t in tracks}
    changer = by_id[episode.track_id]

    def nearest(ego, frame, ahead):
        es = row_at(ego, frame)
        best = None
        for other in tracks:
            if other.track_id == ego.track_id or other.direction is not ego.direction:
                continue
            os = row_at(other, frame)
            if os is None or os.lane_id != es.lane_id:
                continue
            delta = (os.x - es.x) * ego.direction.travel_sign
            if delta == 0 or (delta > 0) != ahead:
                continue
            key = (abs(os.x - es.x), other.track_id)
            if best is None or key < best:
                best = key
        return best[1] if best else NO_VEHICLE

    f = episode.crossing_frame
    tailing_id = nearest(changer, f, ahead=False)
    if tailing_id == NO_VEHICLE:
        return None
    tail = by_id[tailing_id]
    ts, cs = row_at(tail, f), row_at(changer, f)
    gap = max(abs(cs.x - ts.x) - (changer.length + tail.length) / 2, 0.0)
    v_tail = abs(ts.vx)
    entry_thw = gap / v_tail if v_tail > 0.1 else UNDEFINED

    min_dhw = min_thw = min_ttc = UNDEFINED
    for frame in range(episode.start_frame, episode.end_frame + 1):
        if row_at(tail, frame) is None or row_at(changer, frame) is None:
            continue
        if nearest(tail, frame, ahead=True) != changer.track_id:
            continue
        ts2, cs2 = row_at(tail, frame), row_at(changer, frame)
        dhw = max(abs(cs2.x - ts2.x) - (changer.length + tail.length) / 2, 0.0)
        vt, vc = abs(ts2.vx), abs(cs2.vx)
        thw = dhw / vt if vt > 0.1 else UNDEFINED
        ttc = dhw / (vt - vc) if (vt - vc) > 0.1 else UNDEFINED
        if min_dhw == UNDEFINED or dhw < min_dhw:
            min_dhw = dhw
        if thw != UNDEFINED and (min_thw == UNDEFINED or thw < min_thw):
            min_thw = thw
        if ttc != UNDEFINED and (min_ttc == UNDEFINED or ttc < min_ttc):
            min_ttc = ttc

    preceding_id = nearest(changer, f, ahead=True)
    gap_size = UNDEFINED
    if preceding_id != NO_VEHICLE:
        lead = by_id[preceding_id]
        ls = row_at(lead, f)
        gap_size = max(abs(ls.x - ts.x) - (lead.length + tail.length) / 2, 0.0)
    side = (
        CutInSide.FROM_LEFT
        if episode.from_lane == left_lane_id(episode.to_lane, tail.direction)
        else CutInSide.FROM_RIGHT
    )
    return dict(
        tailing_id=tailing_id, preceding_id=preceding_id, crossing_frame=f,
        entry_thw=entry_thw, tail_speed_at_entry=v_tail, min_dhw=min_dhw,
        min_thw=min_thw, min_ttc=min_ttc, gap_size=gap_size, side=side,
    )


def confirmed_crossings_oracle(lanes, min_dwell):
    """Row indices of the lane-id changes whose new lane lasts at least
    ``min_dwell`` rows and differs from the last lane stayed on."""
    confirmed = []
    settled = lanes[0]
    for i in range(1, len(lanes)):
        if lanes[i] == lanes[i - 1]:
            continue
        j = i
        while j < len(lanes) and lanes[j] == lanes[i]:
            j += 1
        if j - i < min_dwell or lanes[i] == settled:
            continue
        confirmed.append(i)
        settled = lanes[i]
    return confirmed


def settle_extents_oracle(vy, crossings, settle):
    """Frame-scan ``(start, end, complete)`` of the episode at each crossing:
    scan out from the crossing to the nearest rows with |vy| < settle, then
    split overlapping neighbours at the first |vy| minimum between them."""
    vy = list(vy)
    n = len(vy)
    raw = []
    for i in crossings:
        start, found_start = 0, False
        for j in range(i, -1, -1):
            if abs(vy[j]) < settle:
                start, found_start = j, True
                break
        end, found_end = n - 1, False
        for j in range(i, n):
            if abs(vy[j]) < settle:
                end, found_end = j, True
                break
        raw.append({
            "crossing": i, "start": start, "end": end,
            "complete": found_start and found_end and 0 < start and end < n - 1,
        })
    for a, b in zip(raw, raw[1:]):
        if a["end"] >= b["start"]:
            split = min(range(a["crossing"], b["crossing"]),
                        key=lambda j: (abs(vy[j]), j))
            a["end"] = split
            b["start"] = min(split + 1, b["crossing"])
    return [(r["start"], r["end"], r["complete"]) for r in raw]


def lane_change_oracle(track, cfg):
    """Single-pass frame-scan labeler re-implementing the published rule:
    ``(track_id, start, end, from_lane, to_lane, crossing, complete)`` per
    lane change, in frames."""
    lanes = track.lane.tolist()
    crossings = confirmed_crossings_oracle(lanes, cfg.lane_change_min_dwell)
    extents = settle_extents_oracle(track.vy.tolist(), crossings, cfg.lateral_settle_speed)
    first = track.initial_frame
    return [
        (track.track_id, first + start, first + end, lanes[i - 1], lanes[i],
         first + i, complete)
        for i, (start, end, complete) in zip(crossings, extents)
    ]


def track_identity_oracle(tracks, vehicles, radius=2.0):
    """Identity counts of output tracks against truth vehicles, in the
    manner of the CLEAR-MOT matching (Bernardin & Stiefelhagen, 2008).

    Each track is assigned to the vehicle within ``radius`` metres of it in
    most (more than half) of its frames, the one with the most such frames
    (the first in ``vehicles`` order on a tie) if several are; a track with no such vehicle is
    spurious. A vehicle with no track is missed and one with several is
    fragmented: each of its tracks after the first is extra.
    """
    owner = {}
    for track in tracks:
        best = None
        for vehicle in vehicles:
            lo = max(track.initial_frame, vehicle.initial_frame)
            hi = min(track.final_frame, vehicle.final_frame) + 1
            if hi <= lo:
                continue
            a = slice(lo - track.initial_frame, hi - track.initial_frame)
            b = slice(lo - vehicle.initial_frame, hi - vehicle.initial_frame)
            near = int((np.hypot(track.x[a] - vehicle.x[b],
                                 track.y[a] - vehicle.y[b]) <= radius).sum())
            if 2 * near > track.num_frames and (best is None or near > best[0]):
                best = (near, vehicle.track_id)
        if best is not None:
            owner[track.track_id] = best[1]
    per_vehicle = Counter(owner.values())
    return dict(
        tracks=len(tracks), vehicles=len(vehicles),
        fragmented=sum(n > 1 for n in per_vehicle.values()),
        extra=sum(n - 1 for n in per_vehicle.values()),
        spurious=len(tracks) - len(owner),
        missed=len(vehicles) - len(per_vehicle),
    )

def surround_rows(surround, track_ids):
    """Surround columns as one record per row, with the row's ``track_id``."""
    return [SimpleNamespace(track_id=track_id, **dict(zip(surround._fields, row)))
            for track_id, row in zip(track_ids, zip(*(c.tolist() for c in surround)))]


def straight_track(
    track_id=1,
    direction=DrivingDirection.LOWER,
    x0=0.0,
    y=13.85,
    speed=25.0,
    n_frames=100,
    first_frame=0,
    lane_id=1,
    length=4.5,
    width=2.0,
    vehicle_class=VehicleClass.CAR,
    dt=0.04,
):
    sign = direction.travel_sign
    return track_from_states(
        [
            make_state(
                frame=first_frame + i,
                x=x0 + sign * speed * i * dt,
                y=y,
                vx=sign * speed,
                lane_id=lane_id,
            )
            for i in range(n_frames)
        ],
        track_id=track_id, direction=direction, length=length, width=width,
        vehicle_class=vehicle_class,
    )


@pytest.fixture
def meta():
    return make_meta()


# Edits of a CSV table's text, for the cases the C parser must leave to the
# per-cell one.

def set_cell(row, column, text):
    """An edit setting the cell of ``column`` in line ``row`` to ``text``."""
    def edit(table):
        lines = table.split("\n")
        cells = lines[row].split(",")
        cells[lines[0].split(",").index(column)] = text
        lines[row] = ",".join(cells)
        return "\n".join(lines)
    return edit


def insert_line(k, line=""):
    """An edit inserting ``line`` before line ``k``."""
    def edit(table):
        lines = table.split("\n")
        return "\n".join(lines[:k] + [line] + lines[k:])
    return edit


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FULLWIDTH_DIGITS = str.maketrans("0123456789", "０１２３４５６７８９")
