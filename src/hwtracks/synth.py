"""Synthetic highway scenes with exact ground truth, plus detection corruption.

A scenario script fully determines a scene: lane layout, per-vehicle entry,
a piecewise-constant-acceleration speed profile (segment boundaries snap to
the frame grid so the sampled trajectory is exactly realizable by the
smoother's motion model) and scripted lane changes that reuse the quintic
lane-change model for the lateral motion. The generator derives trajectories
analytically from the script, and each lane change's crossing frame and
lanes from its scripted maneuver. The episode extents come from the
detector's rule, ``maneuvers.lane_change_extents``, at ``ManeuverConfig``'s
default settle speed; the cut-in scenarios come from ``extract_cut_ins``
over the exact tracks, their surround and the truth episodes.

``corrupt`` turns truth tracks into a detection table by adding
Gaussian position noise, dropping detections (randomly, in bursts, or in
scripted windows) and injecting single-frame false positives uniformly over
the road. Everything is a pure function of (script, seed): vehicle ``i``
draws burst uniforms, then noise normals, from the seed's stream of spawn key
``(1, i)``, so its detections depend on no other vehicle (see ``corrupt``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DETECTION_COLUMNS,
    DetectionTable,
    DrivingDirection,
    JsonObject,
    RecordingMeta,
    Track,
    UNLIMITED_SPEED,
    VehicleClass,
    compute_mean_speed,
    speed_limit_from_file,
)
from .lane_change import (
    CutInScenario,
    LaneChangeParams,
    Side,
    evaluate_model,
    extract_cut_ins,
)
from .maneuvers import ManeuverConfig, ManeuverEpisode, ManeuverKind, lane_change_extents
from .surround import Surround, compute_surround

DEFAULT_UPPER_BOUNDARIES = (0.0, 3.7, 7.4)
DEFAULT_LOWER_BOUNDARIES = (12.0, 15.7, 19.4)


class ScriptError(Exception):
    """The scenario script is inconsistent or produces an invalid scene."""


@dataclass(frozen=True)
class NoiseSpec:
    position_sigma: float = 0.0
    dropout_probability: float = 0.0
    dropout_burst_length: int = 1
    false_positive_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("position_sigma", "false_positive_rate"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"noise.{name} must be finite and >= 0")
        if not 0.0 <= self.dropout_probability <= 1.0:
            raise ValueError("noise.dropout_probability must lie in [0, 1]")
        if self.dropout_burst_length < 1:
            raise ValueError("noise.dropout_burst_length must be >= 1")


@dataclass(frozen=True)
class SpeedSegment:
    duration: float       # seconds; snapped to whole frames at generation
    acceleration: float   # m/s^2 applied to the speed magnitude


@dataclass(frozen=True)
class ScriptedLaneChange:
    start_time: float     # seconds on the recording clock
    duration: float
    to_lane: int
    d_end: Optional[float] = None    # default: ends at the target lane center


@dataclass(frozen=True)
class VehicleSpec:
    vehicle_class: VehicleClass
    direction: DrivingDirection
    entry_lane: int
    entry_time: float = 0.0
    exit_time: Optional[float] = None
    entry_x: Optional[float] = None   # default: road start for the direction
    initial_speed: float = 25.0       # magnitude, m/s
    length: float = 4.5
    width: float = 2.0
    speed_segments: Tuple[SpeedSegment, ...] = ()
    lane_changes: Tuple[ScriptedLaneChange, ...] = ()
    dropout_windows: Tuple[Tuple[int, int], ...] = ()  # inclusive frame spans


@dataclass(frozen=True)
class ScenarioScript:
    seed: int
    duration: float
    frame_rate: float = 25.0
    road_length: float = 420.0
    recording_id: int = 1
    location_id: int = 1
    upper_lane_boundaries: Tuple[float, ...] = DEFAULT_UPPER_BOUNDARIES
    lower_lane_boundaries: Tuple[float, ...] = DEFAULT_LOWER_BOUNDARIES
    upper_speed_limits: Optional[Tuple[float, ...]] = None
    lower_speed_limits: Optional[Tuple[float, ...]] = None
    vehicles: Tuple[VehicleSpec, ...] = ()
    noise: NoiseSpec = NoiseSpec()

    def meta(self) -> RecordingMeta:
        upper_limits = self.upper_speed_limits or tuple(
            UNLIMITED_SPEED for _ in range(len(self.upper_lane_boundaries) - 1)
        )
        lower_limits = self.lower_speed_limits or tuple(
            UNLIMITED_SPEED for _ in range(len(self.lower_lane_boundaries) - 1)
        )
        return RecordingMeta(
            recording_id=self.recording_id,
            location_id=self.location_id,
            frame_rate=self.frame_rate,
            duration=self.duration,
            upper_lane_boundaries=self.upper_lane_boundaries,
            lower_lane_boundaries=self.lower_lane_boundaries,
            upper_speed_limits=upper_limits,
            lower_speed_limits=lower_limits,
        )


@dataclass(frozen=True)
class LaneChangeTruth:
    """Scripted lane change with its analytically derived episode."""

    track_id: int
    params: LaneChangeParams
    t0: float
    marking_y: float
    from_lane: int
    to_lane: int
    crossing_frame: int
    start_frame: int
    end_frame: int
    complete: bool

    def episode(self) -> ManeuverEpisode:
        return ManeuverEpisode(
            track_id=self.track_id,
            kind=ManeuverKind.LANE_CHANGE,
            start_frame=self.start_frame,
            end_frame=self.end_frame,
            from_lane=self.from_lane,
            to_lane=self.to_lane,
            crossing_frame=self.crossing_frame,
            complete=self.complete,
        )


@dataclass(frozen=True)
class GroundTruth:
    meta: RecordingMeta
    tracks: Tuple[Track, ...]
    surround: Mapping[int, Surround]
    lane_changes: Tuple[LaneChangeTruth, ...]
    episodes: Tuple[ManeuverEpisode, ...]
    cut_ins: Tuple[CutInScenario, ...]
    scripted_dropouts: Mapping[int, Tuple[Tuple[int, int], ...]]
    road_length: float


def _lane_center(boundaries: Sequence[float], lane: int) -> float:
    return (boundaries[lane - 1] + boundaries[lane]) / 2.0


def _frames(seconds: float, fps: float, key: str) -> int:
    """``seconds`` as a whole number of frames; a ScriptError naming ``key``
    beyond 2**53 frames, where frame arithmetic in floats stops being exact."""
    if not abs(seconds * fps) <= 2.0**53:
        raise ScriptError(f"{key} must be at most 2**53 frames, got {seconds!r} s at {fps!r} fps")
    return int(round(seconds * fps))


class _VehicleTimeline:
    """Exact kinematics of one scripted vehicle as per-frame columns, on the
    lane ``boundaries`` of its carriageway."""

    def __init__(self, index: int, spec: VehicleSpec, script: ScenarioScript,
                 boundaries: Sequence[float]) -> None:
        self.spec = spec
        fps = script.frame_rate
        dt = 1.0 / fps
        self.dt = dt
        total_frames = _frames(script.duration, fps, "duration")
        name = f"vehicles[{index}]"

        if not 1 <= spec.entry_lane <= len(boundaries) - 1:
            raise ScriptError(f"{name}: entry_lane {spec.entry_lane} does not exist")

        first = _frames(spec.entry_time, fps, f"{name}.entry_time")
        exit_time = script.duration if spec.exit_time is None else spec.exit_time
        last = min(_frames(exit_time, fps, f"{name}.exit_time"), total_frames) - 1
        if first < 0 or last < first:
            raise ScriptError(
                f"{name}: empty lifetime (entry {spec.entry_time}s, exit {exit_time}s)"
            )
        self.first, self.last = first, last
        n = last - first + 1

        # Longitudinal: constant acceleration within each step because segment
        # boundaries snap to the frame grid. ``cumsum`` adds left to right, so
        # the columns equal frame-by-frame stepping bit for bit.
        accel = np.zeros(n)
        cursor = 0
        for k, seg in enumerate(spec.speed_segments):
            seg_frames = _frames(seg.duration, fps, f"{name}.speed_segments[{k}].duration")
            if seg_frames < 0:
                raise ScriptError(f"{name}.speed_segments[{k}]: negative duration")
            accel[cursor : min(cursor + seg_frames, n)] = seg.acceleration
            cursor += seg_frames
        speed = np.cumsum(np.concatenate(([spec.initial_speed], accel[:-1] * dt)))
        if np.any(speed < 0):
            raise ScriptError(f"{name}: speed profile goes negative")
        self._speed, self._accel = speed, accel

        sign = spec.direction.travel_sign
        x0 = spec.entry_x if spec.entry_x is not None else (
            0.0 if sign > 0 else script.road_length
        )
        step = sign * (speed[:-1] * dt + accel[:-1] * dt * dt / 2.0)
        self.x = np.cumsum(np.concatenate(([x0], step)))
        self.vx = sign * speed
        self.ax = sign * accel

        self.maneuvers = self._plan_lane_changes(name, boundaries)

        # Lateral: the quintic over each maneuver's frames (t0 <= t <= t0 + T,
        # a frame on a shared end belonging to the earlier one), the settled
        # offset elsewhere.
        t = (first + np.arange(n)) * dt
        self.y = np.empty(n)
        self.vy = np.zeros(n)
        self.ay = np.zeros(n)
        settled = _lane_center(boundaries, spec.entry_lane)
        done = 0  # frames before this one are filled
        for m in self.maneuvers:
            params, t0 = m["params"], m["t0"]
            lo = max(int(np.searchsorted(t, t0, "left")), done)
            hi = int(np.searchsorted(t, t0 + params.duration, "right"))
            self.y[done:lo] = settled
            tau = np.minimum(t[lo:hi] - t0, params.duration)
            _, y_rel, _, self.vy[lo:hi], _, self.ay[lo:hi] = evaluate_model(params, tau)
            self.y[lo:hi] = m["marking"] + y_rel
            settled = m["marking"] + params.side.y_sign * params.d_end
            done = hi
        self.y[done:] = settled

        self.lanes = np.searchsorted(boundaries, self.y, "right")
        off_road = np.flatnonzero((self.lanes == 0) | (self.lanes == len(boundaries)))
        if off_road.size:
            i = int(off_road[0])
            raise ScriptError(f"{name}: off-road at frame {first + i} (y={self.y[i]:.3f})")

    def _plan_lane_changes(self, name: str, boundaries: Sequence[float]) -> List[Dict]:
        spec = self.spec
        maneuvers: List[Dict] = []
        current_lane = spec.entry_lane
        settled_y = _lane_center(boundaries, current_lane)
        previous_end = -math.inf
        first_t = self.first * self.dt
        last_t = self.last * self.dt
        for k, lc in enumerate(spec.lane_changes):
            lc_name = f"{name}.lane_changes[{k}]"
            if lc.duration <= 0:
                raise ScriptError(f"{lc_name}: duration must be positive")
            _frames(lc.duration, 1.0 / self.dt, f"{lc_name}.duration")
            if lc.start_time < previous_end:
                raise ScriptError(f"{lc_name}: overlaps the previous lane change")
            if not first_t - 1e-9 <= lc.start_time <= last_t:
                raise ScriptError(
                    f"{lc_name}: start_time {lc.start_time}s outside the vehicle's "
                    f"lifetime [{first_t}, {last_t}]s"
                )
            if not 1 <= lc.to_lane <= len(boundaries) - 1:
                raise ScriptError(f"{lc_name}: to_lane {lc.to_lane} does not exist")
            if abs(lc.to_lane - current_lane) != 1:
                raise ScriptError(
                    f"{lc_name}: to_lane {lc.to_lane} is not adjacent to lane "
                    f"{current_lane}"
                )
            lane_sign = 1 if lc.to_lane > current_lane else -1
            marking = boundaries[max(current_lane, lc.to_lane) - 1]
            d_start = lane_sign * (marking - settled_y)  # starts from the settled offset
            if d_start <= 0:
                raise ScriptError(f"{lc_name}: d_start must be positive, got {d_start}")
            target_center = _lane_center(boundaries, lc.to_lane)
            d_end = (
                lc.d_end if lc.d_end is not None else lane_sign * (target_center - marking)
            )
            if d_end <= 0:
                raise ScriptError(f"{lc_name}: d_end must be positive, got {d_end}")

            v_start, v_end = self._window_speeds(lc, lc_name)
            params = LaneChangeParams(
                d_start=d_start,
                d_end=d_end,
                v_start=v_start,
                v_end=v_end,
                duration=lc.duration,
                side=Side.TO_LEFT if lane_sign > 0 else Side.TO_RIGHT,
            )
            maneuvers.append(
                {
                    "params": params,
                    "t0": lc.start_time,
                    "marking": marking,
                    "from_lane": current_lane,
                    "to_lane": lc.to_lane,
                }
            )
            settled_y = marking + lane_sign * d_end
            current_lane = lc.to_lane
            previous_end = lc.start_time + lc.duration
        return maneuvers

    def _window_speeds(self, lc: ScriptedLaneChange, name: str) -> Tuple[float, float]:
        """Speed magnitudes at the maneuver ends; the window must have one
        constant acceleration (the model's longitudinal motion is quadratic)."""
        dt = self.dt
        a = lc.start_time - self.first * dt
        b = a + lc.duration
        i0 = max(int(math.floor(a / dt + 1e-9)), 0)
        i1 = min(int(math.ceil(b / dt - 1e-9)), len(self._accel))
        window = self._accel[i0:i1]
        if window.size and float(window.max() - window.min()) > 1e-12:
            raise ScriptError(
                f"{name}: longitudinal acceleration changes during the maneuver "
                "(the lane-change model needs a constant-acceleration window)"
            )
        accel = float(window[0]) if window.size else 0.0
        base_index = min(i0, len(self._speed) - 1)
        v_start = float(self._speed[base_index]) + accel * (a - base_index * dt)
        v_end = v_start + accel * lc.duration
        if v_start <= 0 or v_end <= 0:
            raise ScriptError(f"{name}: maneuver speeds must be positive")
        return v_start, v_end

    def track(self, track_id: int) -> Track:
        return Track(
            track_id=track_id,
            vehicle_class=self.spec.vehicle_class,
            direction=self.spec.direction,
            length=self.spec.length,
            width=self.spec.width,
            mean_speed=compute_mean_speed(self.vx),
            initial_frame=self.first,
            x=self.x, y=self.y, vx=self.vx, vy=self.vy, ax=self.ax, ay=self.ay,
            lane=self.lanes,
        )


def _truth_lane_changes(timeline: _VehicleTimeline, track: Track) -> List[LaneChangeTruth]:
    """One truth lane change per scripted maneuver that crosses into its
    target lane; the crossing is the first frame in that lane inside the
    maneuver's window, and the extents are ``lane_change_extents``."""
    lanes = timeline.lanes
    fps = 1.0 / timeline.dt
    observed: List[Tuple[Dict, int]] = []
    for m in timeline.maneuvers:
        t0, T = m["t0"], m["params"].duration
        lo = max(int(math.floor(t0 * fps)) - timeline.first - 1, 1)
        hi = min(int(math.ceil((t0 + T) * fps)) - timeline.first + 1, track.num_frames - 1)
        enters = (lanes[lo : hi + 1] == m["to_lane"]) & (lanes[lo - 1 : hi] != m["to_lane"])
        if enters.any():  # else truncated before the marking: no lane change observed
            observed.append((m, lo + int(np.argmax(enters))))
    crossings = [crossing for _, crossing in observed]
    extents = lane_change_extents(track.vy, crossings, ManeuverConfig().lateral_settle_speed)
    first = track.initial_frame
    return [
        LaneChangeTruth(
            track_id=track.track_id,
            params=m["params"],
            t0=m["t0"],
            marking_y=m["marking"],
            from_lane=m["from_lane"],
            to_lane=m["to_lane"],
            crossing_frame=first + crossing,
            start_frame=first + start,
            end_frame=first + end,
            complete=complete,
        )
        for (m, crossing), (start, end, complete) in zip(observed, extents)
    ]


def _validate_no_overlap(tracks: Sequence[Track]) -> None:
    """Raise a ScriptError naming the first pair of vehicles whose boxes
    overlap: in the earliest frame, with each frame's boxes sorted by (x, y,
    length, width, id), the pair (A, B), A before B, of the first A and then
    the first B. Boxes overlap when their centres lie less than half their
    summed lengths apart in x and half their summed widths apart in y."""
    if not tracks:
        return
    # lexsort is stable, so rows at one (frame, x, y) keep the tracks' order.
    tracks = sorted(tracks, key=lambda t: (t.length, t.width, t.track_id))
    owner = np.repeat(np.arange(len(tracks)), [t.num_frames for t in tracks])
    frame, x, y = (np.concatenate([getattr(t, c) for t in tracks])
                   for c in ("frames", "x", "y"))
    order = np.lexsort((y, x, frame))
    frame, x, y, owner = frame[order], x[order], y[order], owner[order]
    del order
    length, width = (np.array([getattr(t, c) for t in tracks]) for c in ("length", "width"))
    # Each row's candidates follow it in its frame up to an x window that
    # only skips pairs: no rounding of its bound drops an overlapping one.
    longest = length.max()
    reach = x + (length[owner] + longest) / 2.0 + (np.abs(x) + longest) * 2**-50
    xs, cell = np.unique(x, return_inverse=True)
    base = np.cumsum(np.diff(frame, prepend=frame[0]) != 0) * len(xs)
    cell += base  # ascending: the rows are sorted by frame, then x
    after = np.arange(1, len(x) + 1)
    counts = np.searchsorted(cell, base + np.searchsorted(xs, reach, "left")) - after
    del reach, cell, base
    a = np.repeat(after - 1, counts)
    b = np.arange(len(a)) + np.repeat(after - (np.cumsum(counts) - counts), counts)
    ta, tb = owner[a], owner[b]
    hit = np.flatnonzero((x[b] - x[a] < (length[ta] + length[tb]) / 2.0)
                         & (np.abs(y[b] - y[a]) < (width[ta] + width[tb]) / 2.0))
    if hit.size:
        i, j = a[hit[0]], b[hit[0]]
        raise ScriptError(f"vehicles {tracks[owner[i]].track_id} and "
                          f"{tracks[owner[j]].track_id} overlap at frame {frame[i]}")


def generate_truth(script: ScenarioScript) -> GroundTruth:
    """Exact tracks, lane-change episodes and cut-ins for a scenario script.

    The crossings and lanes of the lane changes come from the script; their
    extents come from the detector's rule, ``maneuvers.lane_change_extents``,
    at ``ManeuverConfig``'s default ``lateral_settle_speed``. Raises
    ScriptError when the script is inconsistent or makes vehicles overlap.
    """
    meta = script.meta()
    tracks: List[Track] = []
    lane_changes: List[LaneChangeTruth] = []
    dropouts: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    for index, spec in enumerate(script.vehicles):
        timeline = _VehicleTimeline(index, spec, script, meta.boundaries(spec.direction))
        track = timeline.track(track_id=index + 1)
        tracks.append(track)
        lane_changes.extend(_truth_lane_changes(timeline, track))
        if spec.dropout_windows:
            dropouts[track.track_id] = spec.dropout_windows
    _validate_no_overlap(tracks)
    lane_changes.sort(key=lambda lc: (lc.track_id, lc.crossing_frame))
    episodes = tuple(lc.episode() for lc in lane_changes)
    surround = compute_surround(tracks, meta)
    cut_ins = extract_cut_ins(episodes, tracks, surround)
    return GroundTruth(
        meta=meta,
        tracks=tuple(tracks),
        surround=surround,
        lane_changes=tuple(lane_changes),
        episodes=episodes,
        cut_ins=tuple(cut_ins),
        scripted_dropouts=dropouts,
        road_length=script.road_length,
    )


def corrupt(
    tracks: Sequence[Track],
    noise: NoiseSpec,
    seed: int,
    meta: Optional[RecordingMeta] = None,
    road_length: float = 420.0,
    scripted_dropouts: Optional[Mapping[int, Sequence[Tuple[int, int]]]] = None,
) -> DetectionTable:
    """Corrupt truth tracks into a detection table.

    Vehicle ``i`` draws from ``default_rng(SeedSequence(seed, spawn_key=(1,
    i)))``: one uniform per truth row, then one (x, y) normal pair per truth
    row, each skipped when its magnitude is 0. A row in a scripted window is
    dropped; any other row outside a running burst starts one when its
    uniform is below the dropout probability, and the burst drops it and the
    next ``dropout_burst_length - 1`` unscripted rows. A kept row is the true
    centre plus its pair. False positives draw from ``spawn_key=(0,)``: a
    Poisson count per frame up to the last truth frame, then their x and
    their across-road uniforms. Rows come by frame, vehicles in id order,
    false positives last. So a vehicle's rows depend only on the noise, the
    seed, its id and its truth. Ids must be distinct and >= 0. (Entropy
    ``[seed, 1, i]`` would not do: it is zero-padded, so ``[s, 1, 0]`` and
    ``[s, 1]`` give one stream.)
    """
    if noise.false_positive_rate > 0 and meta is None:
        raise ValueError("false positives need `meta` for the road geometry")
    tracks = sorted(tracks, key=lambda t: t.track_id)
    repeated = [a.track_id for a, b in zip(tracks, tracks[1:]) if a.track_id == b.track_id]
    if repeated:
        raise ValueError(f"track id {repeated[0]} is repeated: each vehicle needs its own stream")
    scripted = scripted_dropouts or {}
    n_frames = max((t.final_frame + 1 for t in tracks), default=0)

    # Pass 1: each vehicle's kept rows, and the rows of each frame.
    per_frame = np.zeros(n_frames, np.int64)
    vehicles = []
    for track in tracks:
        first, n = track.initial_frame, track.num_frames
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, track.track_id)))
        keep = np.ones(n, bool)
        for a, b in scripted.get(track.track_id, ()):
            keep[max(a - first, 0) : max(b - first + 1, 0)] = False
        if noise.dropout_probability > 0:
            free = np.flatnonzero(keep)
            end = 0  # the running burst ends before free row ``end``
            for k in np.flatnonzero(rng.random(n)[free] < noise.dropout_probability).tolist():
                if k >= end:
                    end = k + noise.dropout_burst_length
                    keep[free[k:end]] = False
        per_frame[first : first + n] += keep
        vehicles.append((track, keep, rng))
    fp_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    fp_per_frame = fp_rng.poisson(noise.false_positive_rate, n_frames)
    per_frame += fp_per_frame

    # Pass 2: every row written once, at its frame's cursor.
    frame = np.repeat(np.arange(n_frames), per_frame)
    columns = [np.empty(len(frame)) for _ in DETECTION_COLUMNS] + [np.empty(len(frame), object)]
    cursor = np.cumsum(per_frame) - per_frame
    del per_frame
    for track, keep, rng in vehicles:
        rows = np.flatnonzero(keep)
        at = cursor[rows + track.initial_frame]
        cursor[rows + track.initial_frame] += 1
        x, y = track.x[rows], track.y[rows]
        if noise.position_sigma > 0:
            pairs = rng.normal(0.0, noise.position_sigma, (track.num_frames, 2))[rows]
            x, y = x + pairs[:, 0], y + pairs[:, 1]
        for column, values in zip(columns, (x, y, track.length, track.width,
                                            track.vehicle_class)):
            column[at] = values
    if noise.false_positive_rate > 0:
        n_fp = int(fp_per_frame.sum())
        upper, lower = meta.upper_lane_boundaries, meta.lower_lane_boundaries
        width_upper, width_lower = upper[-1] - upper[0], lower[-1] - lower[0]
        x = fp_rng.uniform(0.0, road_length, n_fp)
        r = fp_rng.uniform(0.0, width_upper + width_lower, n_fp)
        y = np.where(r < width_upper, upper[0] + r, lower[0] + (r - width_upper))
        # a frame's false positives fill its slots from its cursor on
        at = (np.repeat(cursor - np.cumsum(fp_per_frame) + fp_per_frame, fp_per_frame)
              + np.arange(n_fp))
        for column, values in zip(columns, (x, y, 4.5, 2.0, VehicleClass.CAR)):
            column[at] = values
    return DetectionTable(frame, *columns)


# ---------------------------------------------------------------------------
# Script files (JSON)


def _keys(spec) -> List[str]:
    """The script keys of a spec class: its field names, ``class`` for ``vehicle_class``."""
    return ["class" if f.name == "vehicle_class" else f.name for f in fields(spec)]


def _speed_limits(root: JsonObject, key: str) -> Optional[Tuple[float, ...]]:
    """-1 stands for no limit; none given, for no limit on any lane."""
    return tuple(map(speed_limit_from_file, root.numbers(key))) or None


def _window(name: str, pair) -> Tuple[int, int]:
    if isinstance(pair, list) and len(pair) == 2:
        first, last = (JsonObject.check_integer(f"{name}[{k}]", f) for k, f in enumerate(pair))
        if first <= last:
            return first, last
    raise ValueError(f"{name} must be a [first, last] pair of integer frames with "
                     f"first <= last, got {pair!r}")


def _vehicle_spec(v: JsonObject) -> VehicleSpec:
    direction = str(v.value("direction")).upper()
    if direction not in ("UPPER", "LOWER"):
        raise ScriptError(f"{v.prefix}direction must be 'upper' or 'lower'")
    try:
        vehicle_class = VehicleClass.parse(str(v.value("class", "Car")))
    except ValueError as exc:
        raise ScriptError(f"{v.prefix}class: {exc}") from exc
    return VehicleSpec(
        vehicle_class=vehicle_class,
        direction=DrivingDirection[direction],
        entry_lane=v.integer("entry_lane"),
        entry_time=v.number("entry_time", 0.0),
        exit_time=v.number("exit_time", None),
        entry_x=v.number("entry_x", None),
        initial_speed=v.number("initial_speed", 25.0),
        length=v.number("length", 4.5, positive=True),
        width=v.number("width", 2.0, positive=True),
        speed_segments=tuple(
            SpeedSegment(duration=s.number("duration"), acceleration=s.number("acceleration"))
            for s in v.objects("speed_segments", _keys(SpeedSegment))
        ),
        lane_changes=tuple(
            ScriptedLaneChange(
                start_time=lc.number("start_time"),
                duration=lc.number("duration"),
                to_lane=lc.integer("to_lane"),
                d_end=lc.number("d_end", None),
            )
            for lc in v.objects("lane_changes", _keys(ScriptedLaneChange))
        ),
        dropout_windows=tuple(_window(*item) for item in v.items("dropout_windows")),
    )


def script_from_dict(data: Mapping) -> ScenarioScript:
    """The script in the JSON object ``data``; a bad key or value is a ScriptError."""
    try:
        root = JsonObject(data, _keys(ScenarioScript), root="script root")
        noise = JsonObject(root.value("noise", {}), _keys(NoiseSpec), "noise")
        script = ScenarioScript(
            seed=root.index("seed"),
            duration=root.number("duration"),
            frame_rate=root.number("frame_rate", 25.0),
            road_length=root.number("road_length", 420.0, positive=True),
            recording_id=root.index("recording_id", 1),
            location_id=root.index("location_id", 1),
            upper_lane_boundaries=root.numbers("upper_lane_boundaries", DEFAULT_UPPER_BOUNDARIES),
            lower_lane_boundaries=root.numbers("lower_lane_boundaries", DEFAULT_LOWER_BOUNDARIES),
            upper_speed_limits=_speed_limits(root, "upper_speed_limits"),
            lower_speed_limits=_speed_limits(root, "lower_speed_limits"),
            vehicles=tuple(_vehicle_spec(v) for v in root.objects("vehicles", _keys(VehicleSpec))),
            noise=NoiseSpec(
                position_sigma=noise.number("position_sigma", 0.0),
                dropout_probability=noise.number("dropout_probability", 0.0),
                dropout_burst_length=noise.integer("dropout_burst_length", 1),
                false_positive_rate=noise.number("false_positive_rate", 0.0),
            ),
        )
        script.meta()  # lane layout and speed limits must form a valid site
    except ValueError as exc:
        raise ScriptError(str(exc)) from exc
    return script


def load_script(path: Path, seed: Optional[int] = None) -> ScenarioScript:
    """The scenario script in the JSON file ``path``; ``seed``, unless None,
    replaces the script's seed and is checked as it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ScriptError(f"{path}: invalid JSON ({exc})") from exc
    if seed is not None and isinstance(data, dict):
        data["seed"] = seed
    return script_from_dict(data)
