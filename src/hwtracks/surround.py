"""Neighbor assignment and headway metrics (DHW, THW, TTC) per vehicle and frame.

Neighbor slots follow the driver's view: "left"/"right" are defined in the
vehicle's own travel direction, so their mapping to +y/-y flips between the
carriageways. DHW is measured bumper to bumper, so dhw == 0 coincides with
contact and TTC keeps collision semantics.

``compute_surround`` fills every track's rows with one sorted search: the
rows are sorted by (frame, direction, lane, x, id), and every slot is found
with ``searchsorted`` in that order. Only vehicles of the same frame and
carriageway interact, so the search runs over blocks of whole frames, about
``_BLOCK_ROWS`` rows each, and its temporaries are bounded by a block, not by
the recording. Ties resolve as follows:

- preceding and following are the nearest vehicles strictly ahead and
  strictly behind in x, so a vehicle at the ego's own x is neither; of
  vehicles at equal distance the lower id wins;
- a side lane's alongside vehicle is one whose extent overlaps the ego's,
  |dx| <= (its length + the ego's length) / 2; of several the nearest centre
  wins, then the lower id;
- the side preceding and following are found as in the own lane, skipping
  the alongside vehicle.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence

import numpy as np

from .core import ContractViolation, DrivingDirection, RecordingMeta, Track, bumper_gap

#: Neighbor-id sentinel: no vehicle in that slot.
NO_VEHICLE = 0
#: Metric sentinel: value undefined at this frame.
UNDEFINED = -1.0

#: Speeds below this magnitude make THW undefined; closing speeds below it
#: make TTC undefined (avoids division blow-ups near standstill).
SPEED_FLOOR = 0.1

#: Rows that ``compute_surround`` searches at once; a frame with more rows is
#: searched alone.
_BLOCK_ROWS = 4096


class Surround(NamedTuple):
    """Neighbor ids and headway metrics as columns, one row per vehicle row:
    per track, row i is the track's frame ``initial_frame + i``. The ids
    are read-only int32 and the metrics read-only float64 arrays."""

    preceding_id: np.ndarray
    following_id: np.ndarray
    left_preceding_id: np.ndarray
    left_alongside_id: np.ndarray
    left_following_id: np.ndarray
    right_preceding_id: np.ndarray
    right_alongside_id: np.ndarray
    right_following_id: np.ndarray
    dhw: np.ndarray
    thw: np.ndarray
    ttc: np.ndarray

    @classmethod
    def read_only(cls, columns: Sequence[np.ndarray]) -> "Surround":
        """Surround over ``columns``, which are made read-only."""
        for column in columns:
            column.flags.writeable = False
        return cls(*columns)

    def rows(self, start: int, stop: int) -> "Surround":
        """Rows ``start`` to ``stop`` (exclusive) of every column."""
        return Surround(*(column[start:stop] for column in self))


def check_rows(track: Track, surround: Surround) -> None:
    """Raise ContractViolation unless ``surround`` has one row per frame of
    ``track``."""
    if len(surround.dhw) != track.num_frames:
        raise ContractViolation(
            f"track {track.track_id}: {len(surround.dhw)} surround rows for "
            f"{track.num_frames} frames"
        )


def left_lane_id(lane_id: int, direction: DrivingDirection) -> int:
    """Lane id to the driver's left. May fall outside the carriageway."""
    return lane_id + 1 if direction is DrivingDirection.LOWER else lane_id - 1


def thw_ttc(dhw, v_ego, v_lead):
    """(thw, ttc) of an ego at bumper gap ``dhw`` behind a lead vehicle.

    thw = dhw / |v_ego| and ttc = dhw / (|v_ego| - |v_lead|), with speeds the
    magnitudes of the longitudinal velocities. A metric whose divisor is not
    above SPEED_FLOOR is UNDEFINED. Takes floats or equal-shape arrays and
    returns arrays.
    """
    speed = np.abs(v_ego)
    closing = speed - np.abs(v_lead)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (np.where(speed > SPEED_FLOOR, dhw / speed, UNDEFINED),
                np.where(closing > SPEED_FLOOR, dhw / closing, UNDEFINED))


def _search(frame, ids, direction, lane, x, vx, length, lane_count):
    """Neighbor slots and headway metrics of every row, in row order.

    All arguments are equal-length numpy columns; ``direction`` holds the
    DrivingDirection values and ``lane_count`` the number of lanes of each
    row's carriageway. Returns the columns of every row, an empty slot
    holding NO_VEHICLE.
    """
    n = len(x)
    xs, x_rank = np.unique(x, return_inverse=True)
    nx = len(xs)
    span = int(lane.max(initial=0)) + 2  # lanes 0 .. max + 1 of one (frame, direction)
    group = (np.unique(frame, return_inverse=True)[1] * 2 + direction) * span + lane
    # One sort by (frame, direction, lane, x, id); the key packs all but id.
    key = group * nx + x_rank
    order = np.lexsort((ids, key))
    key = key[order]
    # The alongside window only skips pairs; the overlap test alone decides.
    # It is wide enough that no rounding of its bounds drops a pair, so the
    # result does not depend on which other rows share the search.
    longest = length.max(initial=0.0)
    reach = (longest + length) / 2.0 + (np.abs(x) + longest) * 2**-50
    sign = np.where(direction == DrivingDirection.LOWER.value, 1, -1)

    def lane_slots(k):
        """Sorted indices (ahead, alongside, behind) of each row's neighbors in
        the lane ``k`` to the driver's left (0: own lane, -1: right), -1 where
        the slot is empty."""
        step = k * sign
        valid = (k == 0) | ((lane + step >= 1) & (lane + step <= lane_count))
        low = (group + step) * nx  # keys of the searched lane are [low, low + nx)

        def in_lane(i):
            """``i`` where it indexes a row of the searched lane, else -1."""
            j = np.clip(i, 0, n - 1)
            return np.where((i >= 0) & (i < n) & (key[j] >= low) & (key[j] < low + nx), i, -1)

        def run_start(i):
            """First index of the equal-x run that holds ``i`` (-1 stays -1)."""
            return np.where(i >= 0, np.searchsorted(key, key[np.maximum(i, 0)]), -1)

        alongside = np.full(n, -1)
        if k != 0:
            lo = np.searchsorted(key, low + np.searchsorted(xs, x - reach, "left"))
            hi = np.searchsorted(key, low + np.searchsorted(xs, x + reach, "right"))
            counts = np.where(valid, hi - lo, 0)
            # Every (ego, candidate) pair of the windows [lo, hi), flattened.
            ego = np.repeat(np.arange(n), counts)
            cand = np.arange(len(ego)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
            other = order[cand]
            dist = np.abs(x[other] - x[ego])
            hit = dist <= (length[other] + length[ego]) / 2.0
            ego, cand = ego[hit], cand[hit]
            best = np.lexsort((ids[other[hit]], dist[hit], ego))
            ego, cand = ego[best], cand[best]
            first = np.diff(ego, prepend=-1) != 0
            alongside[ego[first]] = cand[first]

        # In scan order the nearest vehicle is the first candidate or, when
        # that one is alongside, the second. Equal-x runs scan by ascending id.
        def nearest(c1, c2):
            return np.where(c1 == alongside, c2, c1)

        at = low + x_rank  # the row's own x in the searched lane
        above = np.searchsorted(key, at, "right")
        larger = nearest(in_lane(above), in_lane(above + 1))
        below = in_lane(np.searchsorted(key, at, "left") - 1)
        start = run_start(below)
        smaller = nearest(start, np.where(start < below, start + 1,
                                          run_start(in_lane(start - 1))))
        ahead = np.where(sign > 0, larger, smaller)
        behind = np.where(sign > 0, smaller, larger)
        return [np.where(valid, i, -1) for i in (ahead, alongside, behind)]

    own, left, right = lane_slots(0), lane_slots(1), lane_slots(-1)
    dhw, thw, ttc = np.full((3, n), UNDEFINED)
    has = own[0] >= 0
    lead = order[own[0][has]]
    dhw[has] = bumper_gap(x[lead], length[lead], x[has], length[has])
    thw[has], ttc[has] = thw_ttc(dhw[has], vx[has], vx[lead])
    sorted_ids = ids[order]
    return Surround.read_only([*(np.where(i >= 0, sorted_ids[i], NO_VEHICLE)
                                 for i in (own[0], own[2], *left, *right)),
                               dhw, thw, ttc])


def _frame_blocks(first, counts):
    """``(start, stop)`` frame ranges, in order, that cover the frames of
    tracks whose rows span frames ``first`` to ``first + counts - 1``: each
    a run of whole frames of fewer than ``_BLOCK_ROWS`` rows plus the rows of
    one frame."""
    edges, at = np.unique(np.concatenate([first, first + counts]), return_inverse=True)
    n = len(first)
    alive = np.cumsum(np.bincount(at[:n], minlength=len(edges))
                      - np.bincount(at[n:], minlength=len(edges)))[:-1]
    before = np.concatenate(([0], np.cumsum(alive * np.diff(edges))))  # rows before each edge
    # Cut at the frame that holds the rows at each multiple of _BLOCK_ROWS.
    targets = np.arange(_BLOCK_ROWS, before[-1], _BLOCK_ROWS)
    k = np.searchsorted(before, targets, "right") - 1
    cuts = np.concatenate([edges[:1], edges[k] + (targets - before[k]) // alive[k], edges[-1:]])
    cuts = cuts[np.diff(cuts, prepend=-1) > 0]  # they ascend; frames are >= 0
    return zip(cuts[:-1].tolist(), cuts[1:].tolist())


def compute_surround(tracks: Sequence[Track], meta: RecordingMeta) -> Dict[int, Surround]:
    """Surround columns of every track, aligned with its rows. Neighbors never
    cross frames, so the search runs over blocks of whole frames and each
    block's rows are scattered into the output columns."""
    if not tracks:
        return {}
    first = np.array([t.initial_frame for t in tracks], np.int64)
    counts = np.array([t.num_frames for t in tracks], np.int64)
    ids = np.array([t.track_id for t in tracks], np.int32)
    directions = np.array([t.direction.value for t in tracks], np.int64)
    lengths = np.array([t.length for t in tracks], np.float64)
    lane_counts = np.array([meta.lane_count(t.direction) for t in tracks], np.int64)
    ends = np.cumsum(counts)
    offsets = ends - counts
    n = int(ends[-1])
    out = [np.empty(n, np.int32) for _ in range(8)] + [np.empty(n) for _ in range(3)]
    for start, stop in _frame_blocks(first, counts):
        alive = np.flatnonzero((first < stop) & (first + counts > start))
        lo = np.maximum(start - first[alive], 0)
        size = np.minimum(stop - first[alive], counts[alive]) - lo
        # The block's rows as positions in the output columns, track by track.
        rows = np.arange(size.sum()) + np.repeat(offsets[alive] + lo - np.cumsum(size) + size,
                                                 size)
        block = [tracks[i] for i in alive.tolist()]
        lane, x, vx = (np.concatenate([getattr(t, name)[a:a + m]
                                       for t, a, m in zip(block, lo.tolist(), size.tolist())])
                       for name in ("lane", "x", "vx"))
        track_id, direction, length, lane_count = (
            np.repeat(column[alive], size) for column in (ids, directions, lengths, lane_counts))
        found = _search(rows + np.repeat(first[alive] - offsets[alive], size), track_id,
                        direction, lane, x, vx, length, lane_count)
        for column, values in zip(out, found):
            column[rows] = values
    columns = Surround.read_only(out)
    return {t.track_id: columns.rows(a, b)
            for t, a, b in zip(tracks, offsets.tolist(), ends.tolist())}
