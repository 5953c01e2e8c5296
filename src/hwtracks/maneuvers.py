"""Per-frame maneuver labeling and episode extraction.

Four maneuver kinds are mined from each track: free driving and vehicle
following (mutually exclusive, decided by a THW threshold with hysteresis),
critical maneuvers (low TTC or THW to the preceding vehicle), and lane
changes (a lane-id crossing that sticks on the new lane). Episode extents of
lane changes run between the lateral-speed settle points around the
crossing, which also defines whether a lane change counts as complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import RecordingMeta, Track, csv_cells, write_json, write_table
from .surround import NO_VEHICLE, UNDEFINED, Surround, check_rows


class ManeuverKind(Enum):
    FREE_DRIVING = "FreeDriving"
    VEHICLE_FOLLOWING = "VehicleFollowing"
    CRITICAL = "Critical"
    LANE_CHANGE = "LaneChange"


@dataclass(frozen=True)
class ManeuverConfig:
    following_thw_max: float = 3.0
    following_hysteresis: float = 0.5
    critical_ttc_max: float = 4.0
    critical_thw_max: float = 1.0
    lane_change_min_dwell: int = 25
    lateral_settle_speed: float = 0.1

    def __post_init__(self) -> None:
        for name in ("following_thw_max", "following_hysteresis", "critical_ttc_max",
                     "critical_thw_max", "lateral_settle_speed"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.lane_change_min_dwell < 1:
            raise ValueError("lane_change_min_dwell must be >= 1")
        if not self.following_hysteresis < self.following_thw_max:
            raise ValueError("following_hysteresis must be < following_thw_max")


@dataclass(frozen=True)
class ManeuverEpisode:
    track_id: int
    kind: ManeuverKind
    start_frame: int
    end_frame: int
    from_lane: Optional[int] = None
    to_lane: Optional[int] = None
    crossing_frame: Optional[int] = None
    complete: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.start_frame > self.end_frame:
            raise ValueError("episode start must not exceed its end")
        if self.kind is ManeuverKind.LANE_CHANGE:
            if self.from_lane is None or self.to_lane is None or self.crossing_frame is None:
                raise ValueError("lane change episodes need from/to lanes and a crossing frame")
            if self.from_lane == self.to_lane:
                raise ValueError("lane change must change the lane")


def label_longitudinal(
    track: Track, surround: Surround, cfg: ManeuverConfig
) -> List[ManeuverKind]:
    """FreeDriving / VehicleFollowing label for every frame of the track.

    Following starts when a preceding vehicle exists with THW below
    ``following_thw_max`` and ends only when the THW exceeds the threshold
    plus the hysteresis band, the preceding vehicle disappears, or the THW
    becomes undefined. The hysteresis keeps the label from chattering when
    the THW rides the threshold.
    """
    check_rows(track, surround)
    labels: List[ManeuverKind] = []
    following = False
    for preceding, thw in zip(surround.preceding_id.tolist(), surround.thw.tolist()):
        if preceding == NO_VEHICLE or thw == UNDEFINED:
            following = False
        elif not following:
            following = thw < cfg.following_thw_max
        else:
            following = not thw > cfg.following_thw_max + cfg.following_hysteresis
        labels.append(
            ManeuverKind.VEHICLE_FOLLOWING if following else ManeuverKind.FREE_DRIVING
        )
    return labels


def longitudinal_episodes(
    track: Track, surround: Surround, cfg: ManeuverConfig
) -> List[ManeuverEpisode]:
    """Maximal runs of the two longitudinal labels as episodes."""
    labels = label_longitudinal(track, surround, cfg)
    first = track.initial_frame
    episodes: List[ManeuverEpisode] = []
    start = 0
    for i in range(1, len(labels) + 1):
        if i == len(labels) or labels[i] is not labels[start]:
            episodes.append(
                ManeuverEpisode(
                    track_id=track.track_id,
                    kind=labels[start],
                    start_frame=first + start,
                    end_frame=first + i - 1,
                )
            )
            start = i
    return episodes


def detect_critical(
    track: Track, surround: Surround, cfg: ManeuverConfig
) -> List[ManeuverEpisode]:
    """Maximal runs of frames with low TTC or low THW to the preceding vehicle."""
    check_rows(track, surround)
    ttc, thw = surround.ttc, surround.thw
    critical = (((0.0 < ttc) & (ttc < cfg.critical_ttc_max))
                | ((0.0 < thw) & (thw < cfg.critical_thw_max)))
    # Runs of True start and end where the padded flags change.
    edges = np.flatnonzero(np.diff(critical, prepend=False, append=False))
    first = track.initial_frame
    return [
        ManeuverEpisode(
            track_id=track.track_id,
            kind=ManeuverKind.CRITICAL,
            start_frame=first + start,
            end_frame=first + stop - 1,
        )
        for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist())
    ]


def detect_lane_changes(
    track: Track, meta: RecordingMeta, cfg: ManeuverConfig
) -> List[ManeuverEpisode]:
    """Lane-change episodes of one track.

    A crossing is a frame whose lane id differs from the previous frame's;
    it becomes a lane change only when the new lane persists for at least
    ``lane_change_min_dwell`` frames (shorter stays are discarded bounces,
    and the return crossing of a bounce - back to the last lane the vehicle
    actually stayed on - is not a lane change either). The episode expands
    from the crossing to the nearest frames where the lateral speed settles
    below ``lateral_settle_speed`` (clamped at the track ends); the change
    is complete iff both settle points were found strictly inside the
    observed window. When the episodes of consecutive crossings would
    overlap (a double lane change), they are split at the frame of minimal
    |vy| between the crossings.
    """
    n = track.num_frames
    lanes = track.lane.tolist()
    vy = track.vy.tolist()

    confirmed: List[int] = []
    settled_lane = lanes[0]
    for i in range(1, n):
        if lanes[i] == lanes[i - 1]:
            continue
        dwell = 0
        for j in range(i, n):
            if lanes[j] != lanes[i]:
                break
            dwell += 1
        if dwell < cfg.lane_change_min_dwell:
            continue
        if lanes[i] == settled_lane:
            continue  # return half of a bounce: never left the settled lane
        confirmed.append(i)
        settled_lane = lanes[i]

    settle = cfg.lateral_settle_speed
    raw: List[Dict] = []
    for i in confirmed:
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
        complete = found_start and found_end and start > 0 and end < n - 1
        raw.append({"crossing": i, "start": start, "end": end, "complete": complete})

    for prev, cur in zip(raw, raw[1:]):
        if prev["end"] >= cur["start"]:
            lo, hi = prev["crossing"], cur["crossing"]
            split = min(range(lo, hi), key=lambda j: (abs(vy[j]), j))
            prev["end"] = split
            cur["start"] = min(split + 1, cur["crossing"])

    first = track.initial_frame
    return [
        ManeuverEpisode(
            track_id=track.track_id,
            kind=ManeuverKind.LANE_CHANGE,
            start_frame=first + ep["start"],
            end_frame=first + ep["end"],
            from_lane=lanes[ep["crossing"] - 1],
            to_lane=lanes[ep["crossing"]],
            crossing_frame=first + ep["crossing"],
            complete=ep["complete"],
        )
        for ep in raw
    ]


def detect_all(
    track: Track,
    surround: Surround,
    meta: RecordingMeta,
    cfg: ManeuverConfig,
) -> List[ManeuverEpisode]:
    """All episodes of one track, ordered by kind then start frame."""
    episodes = longitudinal_episodes(track, surround, cfg)
    episodes += detect_critical(track, surround, cfg)
    episodes += detect_lane_changes(track, meta, cfg)
    episodes.sort(key=lambda e: (e.kind.value, e.start_frame))
    return episodes


# ---------------------------------------------------------------------------
# Episode export (canonical CSV and JSON)

EPISODE_COLUMNS = [
    "recordingId",
    "trackId",
    "kind",
    "startFrame",
    "endFrame",
    "fromLane",
    "toLane",
    "crossingFrame",
    "complete",
]


def _episode_records(
    episodes: Sequence[ManeuverEpisode], recording_id: int
) -> List[Dict]:
    """One JSON-ready record per episode, keyed by EPISODE_COLUMNS; the
    lane-change fields are None for other kinds."""
    records = []
    for ep in episodes:
        is_lc = ep.kind is ManeuverKind.LANE_CHANGE
        records.append(dict(zip(EPISODE_COLUMNS, (
            recording_id,
            ep.track_id,
            ep.kind.value,
            ep.start_frame,
            ep.end_frame,
            ep.from_lane if is_lc else None,
            ep.to_lane if is_lc else None,
            ep.crossing_frame if is_lc else None,
            ep.complete if is_lc else None,
        ))))
    return records


def write_episodes_csv(
    episodes: Sequence[ManeuverEpisode], recording_id: int, path: Path
) -> None:
    write_table(path, EPISODE_COLUMNS, "s" * len(EPISODE_COLUMNS),
                [list(zip(*map(csv_cells, _episode_records(episodes, recording_id))))])


def write_episodes_json(
    episodes: Sequence[ManeuverEpisode], recording_id: int, path: Path
) -> None:
    write_json(path, _episode_records(episodes, recording_id))
