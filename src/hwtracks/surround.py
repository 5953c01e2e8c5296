"""Per-frame neighbor assignment and headway metrics (DHW, THW, TTC, gap).

Neighbor slots follow the driver's view: "left"/"right" are defined in the
vehicle's own travel direction, so their mapping to +y/-y flips between the
carriageways. DHW is measured bumper to bumper, so dhw == 0 coincides with
contact and TTC keeps collision semantics.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    ContractViolation,
    DrivingDirection,
    KinematicState,
    RecordingMeta,
    Track,
    ahead_of,
    bumper_gap,
    sweep_frames,
)

#: Neighbor-id sentinel: no vehicle in that slot.
NO_VEHICLE = 0
#: Metric sentinel: value undefined at this frame.
UNDEFINED = -1.0

#: Speeds below this magnitude make THW undefined; closing speeds below it
#: make TTC undefined (avoids division blow-ups near standstill).
SPEED_FLOOR = 0.1


@dataclass(frozen=True, slots=True)
class SurroundFrame:
    """Neighbor ids and headway metrics for one vehicle at one frame."""

    frame: int
    track_id: int
    preceding_id: int = NO_VEHICLE
    following_id: int = NO_VEHICLE
    left_preceding_id: int = NO_VEHICLE
    left_alongside_id: int = NO_VEHICLE
    left_following_id: int = NO_VEHICLE
    right_preceding_id: int = NO_VEHICLE
    right_alongside_id: int = NO_VEHICLE
    right_following_id: int = NO_VEHICLE
    dhw: float = UNDEFINED
    thw: float = UNDEFINED
    ttc: float = UNDEFINED


def left_lane_id(lane_id: int, direction: DrivingDirection) -> int:
    """Lane id to the driver's left. May fall outside the carriageway."""
    return lane_id + 1 if direction is DrivingDirection.LOWER else lane_id - 1


def right_lane_id(lane_id: int, direction: DrivingDirection) -> int:
    """Lane id to the driver's right. May fall outside the carriageway."""
    return lane_id - 1 if direction is DrivingDirection.LOWER else lane_id + 1


def headway_metrics(
    ego: KinematicState,
    ego_length: float,
    lead: KinematicState,
    lead_length: float,
    direction: DrivingDirection,
) -> Tuple[float, float, float]:
    """(dhw, thw, ttc) of ego with respect to a preceding vehicle.

    dhw is the bumper gap |x_lead - x_ego| - (len_lead + len_ego)/2 clamped
    at zero; thw = dhw / |v_ego|; ttc = dhw / (|v_ego| - |v_lead|). Speeds
    are magnitudes of the longitudinal component projected on the travel
    direction. A metric whose divisor is below SPEED_FLOOR is UNDEFINED.
    """
    if not ahead_of(lead, ego, direction):
        raise ContractViolation(
            f"lead (track at x={lead.x}) is not ahead of ego (x={ego.x})"
        )
    dhw = bumper_gap(lead, lead_length, ego, ego_length)
    v_ego = abs(ego.vx)
    v_lead = abs(lead.vx)
    thw = dhw / v_ego if v_ego > SPEED_FLOOR else UNDEFINED
    closing = v_ego - v_lead
    ttc = dhw / closing if closing > SPEED_FLOOR else UNDEFINED
    return dhw, thw, ttc


def gap_size(
    tail: KinematicState,
    tail_length: float,
    lead: KinematicState,
    lead_length: float,
    direction: DrivingDirection,
) -> float:
    """Bumper-to-bumper distance between a tail vehicle and a vehicle ahead of it."""
    if not ahead_of(lead, tail, direction):
        raise ContractViolation(
            f"lead (x={lead.x}) is not ahead of tail (x={tail.x})"
        )
    return bumper_gap(lead, lead_length, tail, tail_length)


class _LaneColumn:
    """Vehicles of one (direction, lane) at one frame, sorted by x."""

    __slots__ = ("xs", "entries", "max_length")

    def __init__(self, entries: List[Tuple[float, int, Track, KinematicState]]) -> None:
        entries.sort(key=lambda e: (e[0], e[1]))
        self.entries = entries
        self.xs = [e[0] for e in entries]
        self.max_length = max(e[2].length for e in entries)

    def nearest_ahead(
        self, ego: KinematicState, direction: DrivingDirection, exclude: Tuple[int, ...]
    ) -> int:
        """Id of the nearest vehicle strictly ahead of ego; ties by lower id."""
        return self._nearest(ego, direction, exclude, ahead=True)

    def nearest_behind(
        self, ego: KinematicState, direction: DrivingDirection, exclude: Tuple[int, ...]
    ) -> int:
        return self._nearest(ego, direction, exclude, ahead=False)

    def _nearest(self, ego, direction, exclude, ahead):
        # "ahead" is +x on the lower carriageway, -x on the upper one.
        # Entries are sorted by (x, id), so equal-distance ties resolve to
        # the lower id by scanning each equal-x run in storage order.
        want_larger_x = (direction.travel_sign > 0) == ahead
        if want_larger_x:
            start = bisect.bisect_right(self.xs, ego.x)
            for j in range(start, len(self.entries)):
                tid = self.entries[j][1]
                if tid not in exclude:
                    return tid
            return NO_VEHICLE
        j = bisect.bisect_left(self.xs, ego.x) - 1
        while j >= 0:
            run_start = bisect.bisect_left(self.xs, self.xs[j])
            for m in range(run_start, j + 1):
                tid = self.entries[m][1]
                if tid not in exclude:
                    return tid
            j = run_start - 1
        return NO_VEHICLE

    def alongside(self, ego: KinematicState, ego_length: float, ego_id: int) -> int:
        """Vehicle whose longitudinal extent overlaps the ego's (>= 0 m overlap).

        Among overlapping vehicles the nearest center wins, ties by lower id.
        """
        reach = (self.max_length + ego_length) / 2.0
        lo = bisect.bisect_left(self.xs, ego.x - reach)
        hi = bisect.bisect_right(self.xs, ego.x + reach)
        best: Optional[Tuple[float, int]] = None
        for j in range(lo, hi):
            x, tid, track, _ = self.entries[j]
            if tid == ego_id:
                continue
            if abs(x - ego.x) <= (track.length + ego_length) / 2.0:
                cand = (abs(x - ego.x), tid)
                if best is None or cand < best:
                    best = cand
        return best[1] if best is not None else NO_VEHICLE


def assign_neighbors(
    vehicles: Sequence[Tuple[Track, KinematicState]], meta: RecordingMeta
) -> List[SurroundFrame]:
    """Neighbor set and headway metrics for every vehicle at one frame.

    ``vehicles`` pairs each track with its state at a common frame. Only
    vehicles of the same carriageway interact. Returns one SurroundFrame per
    input vehicle, in input order.
    """
    if not vehicles:
        return []
    frame = vehicles[0][1].frame
    columns: Dict[Tuple[DrivingDirection, int], List] = {}
    state_by_id: Dict[int, Tuple[Track, KinematicState]] = {}
    for track, state in vehicles:
        if state.frame != frame:
            raise ContractViolation(
                f"states must share one frame: {state.frame} vs {frame}"
            )
        columns.setdefault((track.direction, state.lane_id), []).append(
            (state.x, track.track_id, track, state)
        )
        state_by_id[track.track_id] = (track, state)
    lanes = {key: _LaneColumn(entries) for key, entries in columns.items()}

    out: List[SurroundFrame] = []
    for track, state in vehicles:
        direction = track.direction
        own = lanes[(direction, state.lane_id)]
        preceding = own.nearest_ahead(state, direction, exclude=(track.track_id,))
        following = own.nearest_behind(state, direction, exclude=(track.track_id,))

        sides = {}
        for side_name, lane in (
            ("left", left_lane_id(state.lane_id, direction)),
            ("right", right_lane_id(state.lane_id, direction)),
        ):
            column = lanes.get((direction, lane))
            if column is None or not (1 <= lane <= meta.lane_count(direction)):
                sides[side_name] = (NO_VEHICLE, NO_VEHICLE, NO_VEHICLE)
                continue
            alongside = column.alongside(state, track.length, track.track_id)
            exclude = (track.track_id, alongside)
            sides[side_name] = (
                column.nearest_ahead(state, direction, exclude),
                alongside,
                column.nearest_behind(state, direction, exclude),
            )

        dhw = thw = ttc = UNDEFINED
        if preceding != NO_VEHICLE:
            lead_track, lead_state = state_by_id[preceding]
            dhw, thw, ttc = headway_metrics(
                state, track.length, lead_state, lead_track.length, direction
            )
        out.append(
            SurroundFrame(
                frame=frame,
                track_id=track.track_id,
                preceding_id=preceding,
                following_id=following,
                left_preceding_id=sides["left"][0],
                left_alongside_id=sides["left"][1],
                left_following_id=sides["left"][2],
                right_preceding_id=sides["right"][0],
                right_alongside_id=sides["right"][1],
                right_following_id=sides["right"][2],
                dhw=dhw,
                thw=thw,
                ttc=ttc,
            )
        )
    return out


def compute_surround(
    tracks: Sequence[Track], meta: RecordingMeta
) -> Dict[int, List[SurroundFrame]]:
    """SurroundFrames for every track, aligned with each track's states."""
    result: Dict[int, List[SurroundFrame]] = {t.track_id: [] for t in tracks}
    for _, present in sweep_frames(tracks):
        for sf in assign_neighbors(present, meta):
            result[sf.track_id].append(sf)
    return result
