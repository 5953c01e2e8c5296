"""Symmetric lane-change trajectory model, episode fitting, cut-in extraction.

The model splits the maneuver into two polynomials over its duration T:

* lateral: the unique quintic with zero lateral speed and acceleration at
  both ends, running from ``d_start`` before the crossed marking to
  ``d_end`` beyond it. In normalized time s = t/T its shape factor is
  10 s^3 - 15 s^4 + 6 s^5.
* longitudinal: a quadratic, i.e. constant acceleration taking the speed
  from ``v_start`` to ``v_end``. (A quadratic cannot also have zero
  acceleration at the endpoints whenever the speeds differ; the speed
  degrees of freedom win and the endpoint condition binds laterally only.)

That leaves five free parameters: d_start, d_end, v_start, v_end and the
duration. Fitting exploits the structure (variable projection, Golub &
Pereyra 1973): for a fixed placement (t0, T) both polynomials are linear in
their remaining parameters and solve in closed form, so the search is only
two-dimensional (coarse grid, then golden-section refinement one variable
at a time). One evaluator scores every placement, for the grid, the
refinement and the reported fit alike, by the sum of squares of its
explicit residuals, which is never negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .core import (
    ContractViolation,
    RecordingMeta,
    Track,
    bumper_gap,
    canonical_float,
    csv_cells,
    write_json,
    write_table,
)
from .maneuvers import ManeuverEpisode, ManeuverKind
from .surround import NO_VEHICLE, UNDEFINED, Surround, left_lane_id, thw_ttc

#: Quintic shape coefficients for s^3, s^4, s^5.
SHAPE_COEFFICIENTS = (10.0, -15.0, 6.0)


class Side(Enum):
    """Sign of the lateral motion in road coordinates: toLeft = +y.

    The names coincide with the driver's left/right on the lower
    carriageway and flip on the upper one.
    """

    TO_LEFT = "toLeft"
    TO_RIGHT = "toRight"

    @property
    def y_sign(self) -> int:
        return 1 if self is Side.TO_LEFT else -1


class CutInSide(Enum):
    """Where the lane changer came from, seen from the tailing vehicle."""

    FROM_LEFT = "fromLeft"
    FROM_RIGHT = "fromRight"


class InsufficientData(Exception):
    """Too few samples to fit the model."""


class DegenerateEpisode(Exception):
    """The samples cannot identify the model (singular or out-of-domain fit)."""


@dataclass(frozen=True)
class LaneChangeParams:
    """The five model parameters plus the lateral sign."""

    d_start: float   # distance from the crossed marking at maneuver start (m, > 0)
    d_end: float     # distance beyond the marking at maneuver end (m, > 0)
    v_start: float   # longitudinal speed at maneuver start (m/s, > 0)
    v_end: float     # longitudinal speed at maneuver end (m/s, > 0)
    duration: float  # maneuver duration T (s, > 0)
    side: Side

    def __post_init__(self) -> None:
        for name in ("d_start", "d_end", "v_start", "v_end", "duration"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def shape(s):
    """Normalized lateral progress q(s) = 10 s^3 - 15 s^4 + 6 s^5 on [0, 1]."""
    c3, c4, c5 = SHAPE_COEFFICIENTS
    return s * s * s * (c3 + s * (c4 + s * c5))


def shape_rate(s):
    c3, c4, c5 = SHAPE_COEFFICIENTS
    return s**2 * (3 * c3 + s * (4 * c4 + s * 5 * c5))


def shape_accel(s):
    c3, c4, c5 = SHAPE_COEFFICIENTS
    return s * (6 * c3 + s * (12 * c4 + s * 20 * c5))


def evaluate_model(params: LaneChangeParams, t):
    """Model state at maneuver time t in [0, duration].

    Returns (x_rel, y_rel, vx, vy, ax, ay): x_rel is the longitudinal
    distance traveled since the maneuver start, y_rel the lateral offset
    relative to the crossed marking. Accepts scalars or arrays.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > params.duration):
        raise ContractViolation(f"t must lie in [0, {params.duration}]")
    T = params.duration
    sign = params.side.y_sign
    span = sign * (params.d_start + params.d_end)
    s = t_arr / T

    y_rel = -sign * params.d_start + span * shape(s)
    vy = span * shape_rate(s) / T
    ay = span * shape_accel(s) / T**2

    accel = (params.v_end - params.v_start) / T
    x_rel = params.v_start * t_arr + accel / 2.0 * t_arr**2
    vx = params.v_start + accel * t_arr
    ax = np.full_like(t_arr, accel)

    if np.isscalar(t) or t_arr.ndim == 0:
        return (float(x_rel), float(y_rel), float(vx), float(vy), float(ax), float(ay))
    return x_rel, y_rel, vx, vy, ax, ay


@dataclass(frozen=True)
class FitConfig:
    longitudinal_weight: float = 0.1
    duration_min: float = 1.0
    duration_max: float = 15.0
    duration_step: float = 0.5
    refine_tolerance: float = 1e-3
    max_refine_iterations: int = 200
    min_samples: int = 10
    min_amplitude: float = 0.1  # fits with d_start + d_end below this never converge

    def __post_init__(self) -> None:
        if not 0 < self.duration_min < self.duration_max:
            raise ValueError("need 0 < duration_min < duration_max")
        if not self.duration_step > 0 or not self.refine_tolerance > 0:
            raise ValueError("duration_step and refine_tolerance must be positive")


@dataclass(frozen=True)
class LaneChangeFitResult:
    params: LaneChangeParams
    t0: float
    lateral_rmse: float
    longitudinal_rmse: float
    converged: bool
    iterations: int
    objective: float
    #: Objective value after the grid stage and after each refinement pass.
    objective_trace: Tuple[float, ...] = ()


_EYE3 = np.eye(3)
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


class _SeparableObjective:
    """Weighted SSE of the model over samples, for placements (t0, T).

    Outside [t0, t0 + T] the model extends steadily: constant lateral offset
    and constant longitudinal speed, which is how a settled vehicle moves.
    For a fixed placement both inner problems are linear: the lateral offset
    r = alpha (1 - q) + beta q, with alpha = -sign*d_start and
    beta = sign*d_end, and the position x = x0 + v_start*phi1 + v_end*phi2
    on a piecewise basis. Both solve in closed form for a whole grid of t0
    at once; a single placement is a grid of one.
    """

    def __init__(self, times, xs, ys, marking_y, cfg: FitConfig) -> None:
        self.t = np.asarray(times, dtype=float)
        self.x = np.asarray(xs, dtype=float)
        self.r = np.asarray(ys, dtype=float) - marking_y
        self.w = cfg.longitudinal_weight

    def __call__(self, t0_grid: np.ndarray, T: float):
        """(objective, lateral_sse, longitudinal_sse, lat_coeff, lon_coeff),
        one row per t0 of the grid.

        ``lat_coeff`` is [alpha, beta] and ``lon_coeff`` [x0, v_start, v_end].
        Both sums of squares come from the explicit residual vectors, so they
        are never negative. The objective is ``inf`` where either normal
        matrix is singular; such rows solve a stand-in system.
        """
        u = self.t[None, :] - t0_grid[:, None]
        before, after = u < 0.0, u > T
        half_sq = u * u / (2.0 * T)
        lat_basis = np.empty((len(t0_grid), 2, len(self.t)))
        lat_basis[:, 1] = q = shape(np.clip(u / T, 0.0, 1.0))
        lat_basis[:, 0] = 1.0 - q
        lon_basis = np.empty((len(t0_grid), 3, len(self.t)))
        lon_basis[:, 0] = 1.0
        lon_basis[:, 1] = np.where(before, u, np.where(after, T / 2.0, u - half_sq))
        lon_basis[:, 2] = np.where(before, 0.0, np.where(after, u - T / 2.0, half_sq))
        lat_normal = np.vecdot(lat_basis[:, :, None], lat_basis[:, None])
        lon_normal = np.vecdot(lon_basis[:, :, None], lon_basis[:, None])

        # Lateral 2x2 by its adjugate [[a22, -a12], [-a12, a11]] (cheaper
        # than a batched LU), the longitudinal 3x3 by LU.
        a11, a12, a22 = lat_normal[:, 0, 0], lat_normal[:, 0, 1], lat_normal[:, 1, 1]
        det = a11 * a22 - a12 * a12
        valid = (det > 1e-12 * np.maximum(a11 * a22, 1e-300)) & (
            np.abs(np.linalg.det(lon_normal)) > 1e-12
        )
        adjugate = lat_normal[:, ::-1, ::-1] * _ADJUGATE_SIGNS
        lat_coeff = (np.vecdot(adjugate, np.vecdot(lat_basis, self.r)[:, None])
                     / np.where(valid, det, 1.0)[:, None])
        lon_coeff = np.linalg.solve(
            np.where(valid[:, None, None], lon_normal, _EYE3),
            np.vecdot(lon_basis, self.x)[:, :, None],
        )[:, :, 0]
        lat_res = self.r - (lat_coeff[:, None] @ lat_basis)[:, 0]
        lon_res = self.x - (lon_coeff[:, None] @ lon_basis)[:, 0]
        lateral_sse = np.vecdot(lat_res, lat_res)
        longitudinal_sse = np.vecdot(lon_res, lon_res)
        objective = np.where(valid, lateral_sse + self.w * longitudinal_sse, math.inf)
        return objective, lateral_sse, longitudinal_sse, lat_coeff, lon_coeff


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_section(f, lo: float, hi: float, tol: float, budget: int):
    """Golden-section minimum of f on [lo, hi] to width tol.

    Returns (argmin, fmin, iterations, hit_budget).
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > tol:
        if iterations >= budget:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        iterations += 1
    xm = (a + b) / 2.0
    return xm, f(xm), iterations, b - a > tol


def fit_lane_change(
    times: Sequence[float],
    xs: Sequence[float],
    ys: Sequence[float],
    marking_y: float,
    cfg: FitConfig = FitConfig(),
) -> LaneChangeFitResult:
    """Least-squares fit of the lane-change model to an episode trajectory.

    ``times``/``xs``/``ys`` sample the episode (x must increase along the
    travel direction, i.e. already projected for upper-carriageway tracks);
    ``marking_y`` is the crossed lane marking. Minimizes the lateral SSE
    plus ``longitudinal_weight`` times the longitudinal SSE over all six
    quantities; the placement (t0, T) is found by a coarse grid over the
    episode window and the configured duration range, then refined by
    coordinate golden-section search to ``refine_tolerance`` seconds.
    """
    t = np.asarray(times, dtype=float)
    if t.size < cfg.min_samples:
        raise InsufficientData(f"need >= {cfg.min_samples} samples, got {t.size}")
    objective = _SeparableObjective(t, xs, ys, marking_y, cfg)

    def at(mid: float, T: float):
        """The evaluator's one row at midpoint ``mid`` and duration ``T``."""
        return [column[0] for column in objective(np.array([mid - T / 2.0]), T)]

    # Grid: every sample time as t0 for each duration; argmin over the
    # (duration, t0) table keeps the first duration, then the earliest t0.
    durations = np.arange(
        cfg.duration_min, cfg.duration_max + cfg.duration_step / 2, cfg.duration_step
    )
    grid = np.array([objective(t, float(T))[0] for T in durations])
    best_T, best_t0 = np.unravel_index(np.argmin(grid), grid.shape)
    j_best = float(grid[best_T, best_t0])
    if j_best == math.inf:
        raise DegenerateEpisode("inner least squares singular over the whole grid")

    # Refinement in (midpoint, duration) coordinates: stretching T around a
    # fixed maneuver midpoint leaves the crossing in place, so the two
    # variables decouple and coordinate-wise golden-section search converges
    # in a few passes (in (t0, T) the valley is strongly correlated). A pass
    # searches each coordinate within ``duration_step`` of its best value;
    # passes stop once neither moves by ``refine_tolerance``, or mid-pass
    # when the iteration budget is spent.
    T_best = float(durations[best_T])
    placement = [float(t[best_t0]) + T_best / 2.0, T_best]
    limits = ((float(t[0]), float(t[-1])), (cfg.duration_min, cfg.duration_max))
    trace = [j_best]
    iterations = 0
    converged_by_tol = True
    for _ in range(8):
        changes = []
        for axis, (lo, hi) in enumerate(limits):
            budget = cfg.max_refine_iterations - iterations
            if budget <= 0:
                break

            def along(v: float, axis: int = axis) -> float:
                return float(at(*(placement[:axis] + [v] + placement[axis + 1:]))[0])

            value, j, used, hit = _golden_section(
                along,
                max(lo, placement[axis] - cfg.duration_step),
                min(hi, placement[axis] + cfg.duration_step),
                cfg.refine_tolerance,
                budget,
            )
            iterations += used
            converged_by_tol &= not hit
            changes.append(abs(value - placement[axis]))
            if j < j_best:
                j_best, placement[axis] = j, value
        if len(changes) < len(limits):
            converged_by_tol = False
            break
        trace.append(j_best)
        if max(changes) < cfg.refine_tolerance:
            break
    mid_best, T_best = placement
    t0_best = mid_best - T_best / 2.0

    value, lateral_sse, longitudinal_sse, lat_coeff, lon_coeff = at(mid_best, T_best)
    if value == math.inf:
        raise DegenerateEpisode("refined placement became singular")
    alpha, beta = map(float, lat_coeff)
    v_start, v_end = map(float, lon_coeff[1:])
    amplitude = beta - alpha  # signed lateral span
    sign = 1 if amplitude >= 0 else -1
    d_start = -alpha * sign
    d_end = beta * sign
    if d_start <= 0 or d_end <= 0 or v_start <= 0 or v_end <= 0:
        raise DegenerateEpisode(
            "fitted parameters outside the model domain "
            f"(d_start={d_start:.3g}, d_end={d_end:.3g}, "
            f"v_start={v_start:.3g}, v_end={v_end:.3g})"
        )
    params = LaneChangeParams(d_start=d_start, d_end=d_end, v_start=v_start, v_end=v_end,
                              duration=T_best, side=Side.TO_LEFT if sign > 0 else Side.TO_RIGHT)
    return LaneChangeFitResult(
        params=params,
        t0=t0_best,
        lateral_rmse=math.sqrt(lateral_sse / t.size),
        longitudinal_rmse=math.sqrt(longitudinal_sse / t.size),
        converged=converged_by_tol and abs(amplitude) >= cfg.min_amplitude,
        iterations=iterations,
        objective=float(value),
        objective_trace=tuple(trace),
    )


def fit_episode(
    track: Track,
    episode: ManeuverEpisode,
    meta: RecordingMeta,
    cfg: FitConfig = FitConfig(),
) -> LaneChangeFitResult:
    """Fit one detected lane-change episode of a track.

    Samples the episode's frame span, projects x onto the travel direction,
    and anchors the lateral model at the crossed marking (the boundary
    between the episode's from/to lanes).
    """
    if episode.kind is not ManeuverKind.LANE_CHANGE:
        raise ContractViolation("fit_episode needs a lane-change episode")
    boundaries = meta.boundaries(track.direction)
    marking_index = max(episode.from_lane, episode.to_lane) - 1
    marking_y = boundaries[marking_index]
    dt = 1.0 / meta.frame_rate
    rows = slice(episode.start_frame - track.initial_frame,
                 episode.end_frame - track.initial_frame + 1)
    return fit_lane_change(track.frames[rows] * dt,
                           track.x[rows] * track.direction.travel_sign,
                           track.y[rows], marking_y, cfg)


# ---------------------------------------------------------------------------
# Cut-in scenarios


@dataclass(frozen=True)
class CutInScenario:
    """A lane change seen from the tailing vehicle on the target lane."""

    track_id: int          # the lane changer
    tailing_id: int
    preceding_id: int      # new-lane preceding vehicle, 0 if none
    crossing_frame: int
    entry_thw: float       # tailing vehicle's THW to the lane changer at entry
    tail_speed_at_entry: float
    min_dhw: float
    min_thw: float
    min_ttc: float
    gap_size: float        # bumper gap between new-lane preceding and tailing
    side: CutInSide


def _min_defined(values: np.ndarray) -> float:
    """Smallest value other than UNDEFINED, or UNDEFINED when there is none."""
    defined = values[values != UNDEFINED]
    return float(defined.min()) if defined.size else UNDEFINED


def extract_cut_ins(
    episodes: Sequence[ManeuverEpisode],
    tracks: Sequence[Track],
    surround: Mapping[int, Surround],
    meta: RecordingMeta,
) -> List[CutInScenario]:
    """One scenario per lane change with a tailing vehicle on the new lane.

    At the crossing frame the lane changer is already on the new lane, so
    its own following/preceding neighbors are the tailing and new-lane
    preceding vehicles. The entry THW is the bumper gap from the tailing
    vehicle to the lane changer over the tailing speed; min dhw/thw/ttc are
    minima of the tailing vehicle's metrics over the episode frames where
    its preceding vehicle is the lane changer.
    """
    by_id = {t.track_id: t for t in tracks}
    scenarios: List[CutInScenario] = []
    for episode in episodes:
        if episode.kind is not ManeuverKind.LANE_CHANGE:
            continue
        changer = by_id[episode.track_id]
        crossing = episode.crossing_frame
        at = surround[episode.track_id]
        i = crossing - changer.initial_frame
        tailing_id = int(at.following_id[i])
        if tailing_id == NO_VEHICLE:
            continue
        tail = by_id[tailing_id]
        tail_x = float(tail.x[crossing - tail.initial_frame])
        tail_vx = float(tail.vx[crossing - tail.initial_frame])
        changer_x, changer_vx = float(changer.x[i]), float(changer.vx[i])

        gap = bumper_gap(changer_x, changer.length, tail_x, tail.length)
        tail_speed = abs(tail_vx)
        entry_thw = float(thw_ttc(gap, tail_vx, changer_vx)[0])

        behind = surround[tailing_id].rows(
            max(episode.start_frame - tail.initial_frame, 0),
            max(episode.end_frame - tail.initial_frame + 1, 0),
        )
        led = behind.preceding_id == episode.track_id
        min_dhw, min_thw, min_ttc = (_min_defined(metric[led])
                                     for metric in (behind.dhw, behind.thw, behind.ttc))

        preceding_id = int(at.preceding_id[i])
        gap_between = UNDEFINED
        if preceding_id != NO_VEHICLE:
            lead = by_id[preceding_id]
            gap_between = float(bumper_gap(lead.x[crossing - lead.initial_frame],
                                           lead.length, tail_x, tail.length))

        side = (
            CutInSide.FROM_LEFT
            if episode.from_lane == left_lane_id(episode.to_lane, tail.direction)
            else CutInSide.FROM_RIGHT
        )
        scenarios.append(
            CutInScenario(
                track_id=episode.track_id,
                tailing_id=tailing_id,
                preceding_id=preceding_id,
                crossing_frame=crossing,
                entry_thw=entry_thw,
                tail_speed_at_entry=tail_speed,
                min_dhw=min_dhw,
                min_thw=min_thw,
                min_ttc=min_ttc,
                gap_size=gap_between,
                side=side,
            )
        )
    return scenarios


# ---------------------------------------------------------------------------
# Export (canonical CSV and JSON)

FIT_COLUMNS = [
    "recordingId",
    "trackId",
    "crossingFrame",
    "t0",
    "duration",
    "dStart",
    "dEnd",
    "vStart",
    "vEnd",
    "side",
    "lateralRmse",
    "longitudinalRmse",
    "converged",
    "iterations",
]

CUT_IN_COLUMNS = [
    "recordingId",
    "trackId",
    "tailingId",
    "precedingId",
    "crossingFrame",
    "entryThw",
    "tailSpeedAtEntry",
    "minDhw",
    "minThw",
    "minTtc",
    "gapSize",
    "side",
]


def write_fits_csv(
    fits: Sequence[Tuple[ManeuverEpisode, LaneChangeFitResult]],
    recording_id: int,
    path: Path,
) -> None:
    write_table(path, FIT_COLUMNS, "dddggggggsggdd", [list(zip(*(
        (
            recording_id,
            episode.track_id,
            episode.crossing_frame,
            fit.t0,
            fit.params.duration,
            fit.params.d_start,
            fit.params.d_end,
            fit.params.v_start,
            fit.params.v_end,
            fit.params.side.value,
            fit.lateral_rmse,
            fit.longitudinal_rmse,
            fit.converged,
            fit.iterations,
        )
        for episode, fit in fits
    )))])


def _cut_in_records(
    scenarios: Sequence[CutInScenario], recording_id: int
) -> List[Dict]:
    """One JSON-ready record per scenario, keyed by CUT_IN_COLUMNS, with the
    metrics in canonical precision."""
    return [
        dict(zip(CUT_IN_COLUMNS, (
            recording_id,
            s.track_id,
            s.tailing_id,
            s.preceding_id,
            s.crossing_frame,
            canonical_float(s.entry_thw),
            canonical_float(s.tail_speed_at_entry),
            canonical_float(s.min_dhw),
            canonical_float(s.min_thw),
            canonical_float(s.min_ttc),
            canonical_float(s.gap_size),
            s.side.value,
        )))
        for s in scenarios
    ]


def write_cut_ins_csv(
    scenarios: Sequence[CutInScenario], recording_id: int, path: Path
) -> None:
    write_table(path, CUT_IN_COLUMNS, "s" * len(CUT_IN_COLUMNS),
                [list(zip(*map(csv_cells, _cut_in_records(scenarios, recording_id))))])


def write_cut_ins_json(
    scenarios: Sequence[CutInScenario], recording_id: int, path: Path
) -> None:
    write_json(path, _cut_in_records(scenarios, recording_id))
