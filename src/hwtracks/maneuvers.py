"""Per-frame maneuver labeling and episode extraction.

Four maneuver kinds are mined from each track: free driving and vehicle
following (mutually exclusive, decided by a THW threshold with hysteresis),
critical maneuvers (low TTC or THW to the preceding vehicle), and lane
changes (a lane-id crossing that sticks on the new lane). The extents of a
lane-change episode, and whether it counts as complete, follow one rule,
``lane_change_extents``, which the synthetic ground truth uses as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import Track
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


def _following(surround: Surround, cfg: ManeuverConfig) -> np.ndarray:
    """Per row, whether the vehicle follows (see ``label_longitudinal``): the
    label of the last row that sets or resets it, carried forward. A row sets
    it when a preceding vehicle exists with THW below ``following_thw_max``,
    and resets it when there is none, the THW is undefined, or the THW
    exceeds the threshold plus the hysteresis band; other rows hold the
    label, which starts as free driving. The band is positive, so no row both
    sets and resets."""
    thw = surround.thw
    has_thw = (surround.preceding_id != NO_VEHICLE) & (thw != UNDEFINED)
    sets = has_thw & (thw < cfg.following_thw_max)
    resets = ~has_thw | (thw > cfg.following_thw_max + cfg.following_hysteresis)
    rows = np.arange(len(thw))
    last = np.maximum.accumulate(np.where(sets | resets, rows, -1))
    return (last >= 0) & sets[last]


_KINDS = np.array([ManeuverKind.FREE_DRIVING, ManeuverKind.VEHICLE_FOLLOWING], dtype=object)


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
    return _KINDS[_following(surround, cfg).astype(np.intp)].tolist()


def longitudinal_episodes(
    track: Track, surround: Surround, cfg: ManeuverConfig
) -> List[ManeuverEpisode]:
    """Maximal runs of the two longitudinal labels as episodes."""
    check_rows(track, surround)
    following = _following(surround, cfg)
    # Runs start at 0 and wherever the label changes.
    bounds = [0, *(np.flatnonzero(np.diff(following)) + 1).tolist(), len(following)]
    first = track.initial_frame
    return [
        ManeuverEpisode(
            track_id=track.track_id,
            kind=_KINDS[int(following[start])],
            start_frame=first + start,
            end_frame=first + stop - 1,
        )
        for start, stop in zip(bounds, bounds[1:])
    ]


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


def lane_change_extents(
    vy: np.ndarray, crossings: Sequence[int], settle: float
) -> List[Tuple[int, int, bool]]:
    """``(start, end, complete)`` rows of the lane-change episode at each
    crossing row, crossings increasing. An episode runs from the last row at
    or before its crossing with |vy| below ``settle`` (else the first row)
    to the first such row at or after it (else the last row), and is
    complete iff both lie strictly inside the rows. Where an end reaches the
    next start (a double lane change), the two split at the first |vy|
    minimum from the crossing up to the next one: the earlier episode ends
    there, the later starts on the next row but no later than its crossing.
    Completeness is decided before the split.
    """
    speed = np.abs(vy)
    n = len(speed)
    settled = np.flatnonzero(speed < settle)
    bounds = np.concatenate(([0], settled, [n - 1]))  # the clamps around the settled rows
    starts = bounds[np.searchsorted(settled, crossings, "right")].tolist()
    ends = bounds[np.searchsorted(settled, crossings, "left") + 1].tolist()
    complete = [0 < start and end < n - 1 for start, end in zip(starts, ends)]
    for k in range(1, len(crossings)):
        if ends[k - 1] >= starts[k]:
            lo, hi = crossings[k - 1], crossings[k]
            split = lo + int(np.argmin(speed[lo:hi]))
            ends[k - 1] = split
            starts[k] = min(split + 1, hi)
    return list(zip(starts, ends, complete))


def detect_lane_changes(track: Track, cfg: ManeuverConfig) -> List[ManeuverEpisode]:
    """Lane-change episodes of one track. A stay is a lane run after the
    first that lasts at least ``lane_change_min_dwell`` rows (shorter runs
    are discarded bounces). A stay whose lane differs from the previous
    stay's (the first row's, for the first stay) is a lane change, so the
    return of a bounce is none. Its first row is the crossing, and
    ``lane_change_extents`` at ``lateral_settle_speed`` gives the extents.
    """
    lanes = track.lane.tolist()
    runs = np.flatnonzero(np.diff(track.lane)) + 1
    stays = runs[np.diff(runs, append=track.num_frames) >= cfg.lane_change_min_dwell]
    stay_lanes = track.lane[stays]
    crossings = stays[stay_lanes != np.append(track.lane[0], stay_lanes[:-1])].tolist()
    first = track.initial_frame
    return [
        ManeuverEpisode(
            track_id=track.track_id,
            kind=ManeuverKind.LANE_CHANGE,
            start_frame=first + start,
            end_frame=first + end,
            from_lane=lanes[crossing - 1],
            to_lane=lanes[crossing],
            crossing_frame=first + crossing,
            complete=complete,
        )
        for crossing, (start, end, complete) in zip(
            crossings, lane_change_extents(track.vy, crossings, cfg.lateral_settle_speed))
    ]


def detect_all(
    track: Track, surround: Surround, cfg: ManeuverConfig
) -> List[ManeuverEpisode]:
    """All episodes of one track, ordered by kind then start frame."""
    episodes = longitudinal_episodes(track, surround, cfg)
    episodes += detect_critical(track, surround, cfg)
    episodes += detect_lane_changes(track, cfg)
    episodes.sort(key=lambda e: (e.kind.value, e.start_frame))
    return episodes
