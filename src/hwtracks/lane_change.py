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
two-dimensional. One evaluator scores every placement, for the grid, the
refinement and the reported fit alike, by the sum of squares of its
explicit residuals, which is never negative. Its lateral and longitudinal
halves solve apart, and the objective, lateral SSE plus a non-negative
weight times longitudinal SSE, is never below the lateral SSE. Each
evaluator call scores a batch of placements, and the search asks for few,
large batches:

* the grid runs coarse to fine: every ``stride``-th sample time as t0 for
  every duration, then every sample time near the best coarse t0 of the
  best coarse duration and its two neighbours. The coarse pass scores the
  lateral half everywhere and the longitudinal half only where the lateral
  SSE, as a lower bound, does not rule the placement out, which is exact;
* the refinement is a section search one variable at a time: each round
  scores evenly spaced points of the bracket in one call and keeps the
  bracket between the neighbours of the best;
* ``fit_episodes`` runs the refinements of many episodes in lockstep, one
  evaluator call per round for all episodes of the same sample count, their
  samples stacked one row per placement. Rows are computed alone, so every
  episode gets the bits it gets when fitted alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    ContractViolation,
    RecordingMeta,
    Track,
    bumper_gap,
    write_json_rows,
    write_rows,
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
    min_samples: int = 10
    min_amplitude: float = 0.1  # fits with d_start + d_end below this never converge

    def __post_init__(self) -> None:
        # the grid's lateral bound on the objective needs a weight >= 0
        if not self.longitudinal_weight >= 0:
            raise ValueError(
                f"longitudinal_weight must be >= 0, got {self.longitudinal_weight}")
        if not 0 < self.duration_min < self.duration_max:
            raise ValueError("need 0 < duration_min < duration_max")
        if not self.duration_step > 0 or not self.refine_tolerance > 0:
            raise ValueError("duration_step and refine_tolerance must be positive")
        if self.min_samples < 3:  # two samples make every placement singular
            raise ValueError(f"min_samples must be >= 3, got {self.min_samples}")


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
    on a piecewise basis. Each half solves in closed form for a whole batch
    of placements at once; a single placement is a batch of one. Every row is
    computed alone, so its bits do not depend on the batch it is in.

    The samples are one episode's, shared by every placement (shape (N,)),
    or one row per placement (shape (n, N)), which stacks the placements of
    several episodes of N samples each into one call.
    """

    def __init__(self, times, xs, ys, marking_y, cfg: FitConfig) -> None:
        self.t = np.asarray(times, dtype=float)
        self.x = np.asarray(xs, dtype=float)
        self.r = np.asarray(ys, dtype=float) - marking_y
        self.w = cfg.longitudinal_weight

    def lateral(self, t0: np.ndarray, T):
        """(sse, [alpha, beta], valid) of the lateral half, one row per
        placement; ``valid`` is False where its normal matrix is singular."""
        T = np.asarray(T, dtype=float)[..., None]
        u = self.t - t0[:, None]
        basis = np.empty((len(t0), 2, u.shape[-1]))
        basis[:, 1] = q = shape(np.clip(u / T, 0.0, 1.0))
        basis[:, 0] = 1.0 - q
        normal = np.vecdot(basis[:, :, None], basis[:, None])
        # the 2x2 by its adjugate [[a22, -a12], [-a12, a11]], cheaper than a
        # batched LU
        a11, a12, a22 = normal[:, 0, 0], normal[:, 0, 1], normal[:, 1, 1]
        det = a11 * a22 - a12 * a12
        valid = det > 1e-12 * np.maximum(a11 * a22, 1e-300)
        adjugate = normal[:, ::-1, ::-1] * _ADJUGATE_SIGNS
        coeff = (np.vecdot(adjugate, np.vecdot(basis, self.r[..., None, :])[:, None])
                 / np.where(valid, det, 1.0)[:, None])
        residual = self.r - (coeff[:, None] @ basis)[:, 0]
        return np.vecdot(residual, residual), coeff, valid

    def longitudinal(self, t0: np.ndarray, T):
        """(sse, [x0, v_start, v_end], valid) of the longitudinal half, one row
        per placement; ``valid`` is False where its normal matrix is singular,
        and such rows solve a stand-in system."""
        T = np.asarray(T, dtype=float)[..., None]
        u = self.t - t0[:, None]
        before, after = u < 0.0, u > T
        half_sq = u * u / (2.0 * T)
        basis = np.empty((len(t0), 3, u.shape[-1]))
        basis[:, 0] = 1.0
        basis[:, 1] = np.where(before, u, np.where(after, T / 2.0, u - half_sq))
        basis[:, 2] = np.where(before, 0.0, np.where(after, u - T / 2.0, half_sq))
        normal = np.vecdot(basis[:, :, None], basis[:, None])
        valid = np.abs(np.linalg.det(normal)) > 1e-12
        coeff = np.linalg.solve(
            np.where(valid[:, None, None], normal, _EYE3),
            np.vecdot(basis, self.x[..., None, :])[:, :, None],
        )[:, :, 0]
        residual = self.x - (coeff[:, None] @ basis)[:, 0]
        return np.vecdot(residual, residual), coeff, valid

    def __call__(self, t0: np.ndarray, T):
        """(objective, lateral_sse, longitudinal_sse, lat_coeff, lon_coeff),
        one row per placement (t0[i], T[i]); a scalar T holds for every t0.

        Both sums of squares come from the explicit residual vectors, so they
        are never negative. The objective is ``inf`` where either normal
        matrix is singular.
        """
        lateral_sse, lat_coeff, lat_valid = self.lateral(t0, T)
        longitudinal_sse, lon_coeff, lon_valid = self.longitudinal(t0, T)
        objective = np.where(lat_valid & lon_valid,
                             lateral_sse + self.w * longitudinal_sse, math.inf)
        return objective, lateral_sse, longitudinal_sse, lat_coeff, lon_coeff


def _row_minima(objective: _SeparableObjective, t0: np.ndarray, T: np.ndarray,
                rows_per_call: int):
    """(value, column) of the least objective in each row of the placement
    table (t0[i, j], T[i, j]); of equal values, the first column.

    Scores the lateral half of every placement, ``rows_per_call`` rows per
    evaluator call. Its SSE, ``inf`` where it is singular, bounds the
    objective from below while ``longitudinal_weight >= 0``. The whole
    objective is scored only for each row's lateral-argmin placement and for
    the placements whose bound does not exceed that placement's objective.
    Exact: a placement whose bound exceeds an objective of its row lies above
    the row's minimum.
    """
    n_rows, n_cols = t0.shape
    t0, T = t0.ravel(), T.ravel()
    step = rows_per_call * n_cols
    lateral = [objective.lateral(t0[i:i + step], T[i:i + step])
               for i in range(0, t0.size, step)]
    bound = np.concatenate([np.where(valid, sse, math.inf)
                            for sse, _, valid in lateral]).reshape(n_rows, n_cols)
    table = np.full(bound.shape, math.inf)
    first = np.arange(n_rows) * n_cols + np.argmin(bound, axis=1)
    table.flat[first] = objective(t0[first], T[first])[0]
    wanted = bound <= table.flat[first][:, None]
    wanted.flat[first] = False
    rest = np.flatnonzero(wanted)
    if rest.size:
        table.flat[rest] = objective(t0[rest], T[rest])[0]
    columns = np.argmin(table, axis=1)
    return table[np.arange(n_rows), columns], columns


def _grid_minimum(objective: _SeparableObjective, cfg: FitConfig):
    """(objective, t0, T) of the best grid placement: t0 a sample time, T
    from ``duration_min`` to ``duration_max`` in ``duration_step``s; of equal
    objectives, the first duration, then the earliest t0.

    Coarse to fine, with ``stride`` the sample count nearest a quarter of
    the duration step. The coarse pass takes every ``stride``-th sample time
    for every duration and keeps each duration's best t0 (``_row_minima``).
    It scores the lateral half alone for every placement, ``stride``
    durations per evaluator call (about one placement per sample, so the
    temporaries stay small), and the longitudinal half only where the
    lateral SSE does not rule a placement out. That is exact: the objective
    is fl(lat + w*lon) with w >= 0 and lon >= 0, so it is never below the
    lateral SSE, and singular placements are ``inf``. A placement whose
    lateral SSE exceeds the objective of its duration's lateral-argmin
    placement therefore cannot be that duration's minimum or tie with it,
    and every row minimum, the best duration and the fine pass are those of
    the full coarse table.

    The fine pass takes the best coarse duration and its two neighbours and,
    for each of them, every sample time within ``stride - 1`` samples of
    that duration's own best coarse t0, in one call. It would miss the full
    grid's minimum if that lay outside those windows; the tests compare it
    with the full table (every duration by every sample time) on random
    episodes and on every fit of the benchmark workloads and the 225k-row
    corpus.
    """
    t = objective.t
    durations = np.arange(
        cfg.duration_min, cfg.duration_max + cfg.duration_step / 2, cfg.duration_step
    )
    spacing = (t[-1] - t[0]) / (len(t) - 1)
    stride = max(1, round(cfg.duration_step / 4.0 / spacing))
    coarse = t[::stride]
    values, columns = _row_minima(
        objective, np.tile(coarse, (len(durations), 1)),
        np.repeat(durations[:, None], len(coarse), axis=1), stride)
    k = int(np.argmin(values))
    rows = range(max(k - 1, 0), min(k + 2, len(durations)))
    centres = [stride * int(columns[row]) for row in rows]
    samples = [np.arange(max(c - stride + 1, 0), min(c + stride, len(t))) for c in centres]
    T = np.concatenate([np.full(len(i), durations[row]) for row, i in zip(rows, samples)])
    t0 = t[np.concatenate(samples)]
    fine = objective(t0, T)[0]
    best = int(np.argmin(fine))
    return float(fine[best]), float(t0[best]), float(T[best])


#: Evenly spaced points of the bracket that one round of ``_section_search``
#: scores.
_SECTION_POINTS = 11
#: Section-search rounds one refinement may run. A search's bracket of at
#: most 2 * duration_step shrinks by 2 / (_SECTION_POINTS - 1) per round, so
#: at the defaults a search takes at most 5 rounds and a refinement at most
#: 8 passes * 2 searches * 5 = 80: the budget only ends refinements with a
#: far smaller refine_tolerance.
_MAX_REFINE_ROUNDS = 200


def _section_search(lo: float, hi: float, tol: float, budget: int, request):
    """Minimum on [lo, hi] to width tol, in at most ``budget`` (>= 1) rounds,
    as a generator: for each batch of points it needs scored it yields
    ``request(points)`` and is sent their values.

    Each round scores ``_SECTION_POINTS`` evenly spaced points of the bracket,
    ends included, in one batch, and keeps the bracket between the neighbours
    of the best point (of equal values, the first). The next round's ends
    are those neighbours and, when the best point was not an end, its centre
    is the best point itself, so a later batch holds only the points not yet
    scored. The search stops once the bracket is at most tol wide, or after
    ``budget`` rounds.

    Returns (argmin, fmin, rounds, hit_budget): the best scored point.
    """
    last = _SECTION_POINTS - 1
    points = np.linspace(lo, hi, _SECTION_POINTS)
    values = yield request(points)
    rounds = 1
    while True:
        best = int(np.argmin(values))
        left, right = max(best - 1, 0), min(best + 1, last)
        wide = bool(points[right] - points[left] > tol)
        if not wide or rounds >= budget:
            return float(points[best]), float(values[best]), rounds, wide
        # the scored points the next round keeps: indices there and here
        into, of = [0, last], [left, right]
        if left < best < right:
            into.append(last // 2)
            of.append(best)
        grid = np.linspace(points[left], points[right], _SECTION_POINTS)
        grid[into] = points[of]
        scored = np.empty(_SECTION_POINTS)
        scored[into] = values[of]
        fresh = np.ones(_SECTION_POINTS, dtype=bool)
        fresh[into] = False
        scored[fresh] = yield request(grid[fresh])
        points, values = grid, scored
        rounds += 1


def _refine(grid: Tuple[float, float, float], t_span: Tuple[float, float], cfg: FitConfig):
    """The refinement of one fit from its grid minimum ``grid`` (objective,
    t0, T), with t0 bounded by ``t_span``, as a generator: it yields batches
    of placements (t0, T), two arrays, and is sent their objective values.
    Returns (t0, T, iterations, converged_by_tol, trace).

    Refinement is in (midpoint, duration) coordinates: stretching T around a
    fixed maneuver midpoint leaves the crossing in place, so the two
    variables decouple and a coordinate-wise section search converges in a
    few passes (in (t0, T) the valley is strongly correlated). A pass
    searches each coordinate within ``duration_step`` of its best value, and
    ``iterations`` counts the search rounds (``_MAX_REFINE_ROUNDS`` is their
    budget). Passes stop once neither coordinate moves by
    ``refine_tolerance``, after 8 passes, or mid-pass when the budget is
    spent. Only the first stop is converged.
    """
    j_best, t0_best, T_best = grid
    placement = [t0_best + T_best / 2.0, T_best]
    limits = (t_span, (cfg.duration_min, cfg.duration_max))
    trace = [j_best]
    iterations = 0
    converged_by_tol = True
    for _ in range(8):
        changes = []
        for axis, (lo, hi) in enumerate(limits):
            budget = _MAX_REFINE_ROUNDS - iterations
            if budget <= 0:
                break

            def along(values: np.ndarray, axis: int = axis):
                mid, T = (values if i == axis else np.full(len(values), v)
                          for i, v in enumerate(placement))
                return mid - T / 2.0, T

            value, j, used, hit = yield from _section_search(
                max(lo, placement[axis] - cfg.duration_step),
                min(hi, placement[axis] + cfg.duration_step),
                cfg.refine_tolerance,
                budget,
                along,
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
    else:
        converged_by_tol = False
    mid_best, T_best = placement
    return mid_best - T_best / 2.0, T_best, iterations, converged_by_tol, tuple(trace)


def _checked_objective(times, xs, ys, marking_y, cfg: FitConfig) -> _SeparableObjective:
    """The objective of one episode, after the checks of ``fit_lane_change``."""
    t = np.asarray(times, dtype=float)
    if t.size < cfg.min_samples:
        raise InsufficientData(f"need >= {cfg.min_samples} samples, got {t.size}")
    if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0.0)):
        raise ContractViolation("episode times must be finite and strictly increasing")
    objective = _SeparableObjective(t, xs, ys, marking_y, cfg)
    if objective.x.shape != t.shape or objective.r.shape != t.shape:
        raise ContractViolation(
            f"xs and ys need one value per time: got {objective.x.shape}, "
            f"{objective.r.shape} for {t.shape}")
    if not (np.all(np.isfinite(objective.x)) and np.all(np.isfinite(objective.r))):
        raise ContractViolation("xs, ys and marking_y must be finite")
    return objective


def _score(objectives: Mapping[int, _SeparableObjective],
           requests: Mapping[int, Tuple[np.ndarray, np.ndarray]], cfg: FitConfig):
    """The evaluator's columns for each episode's batch of placements (t0, T),
    keyed like ``requests``: one evaluator call per sample count, in which
    every placement's row holds the samples of its own episode."""
    by_count: Dict[int, List[int]] = {}
    for i in requests:
        by_count.setdefault(len(objectives[i].t), []).append(i)
    scored = {}
    for members in by_count.values():
        sizes = [len(requests[i][0]) for i in members]
        rows = np.repeat(np.arange(len(members)), sizes)
        t, x, r = (np.stack([getattr(objectives[i], name) for i in members])[rows]
                   for name in ("t", "x", "r"))
        # the lateral offsets pass as ys over a marking at 0, and r - 0.0 is r
        columns = _SeparableObjective(t, x, r, 0.0, cfg)(
            np.concatenate([requests[i][0] for i in members]),
            np.concatenate([requests[i][1] for i in members]))
        ends = np.cumsum(sizes).tolist()
        scored.update((i, tuple(column[end - size:end] for column in columns))
                      for i, size, end in zip(members, sizes, ends))
    return scored


def _fit_result(columns, t0: float, T: float, iterations: int, converged_by_tol: bool,
                trace: Tuple[float, ...], samples: int, cfg: FitConfig) -> LaneChangeFitResult:
    """The fit at the refined placement (t0, T), from the evaluator's columns
    of that one placement."""
    value, lateral_sse, longitudinal_sse, lat_coeff, lon_coeff = (
        column[0] for column in columns)
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
                              duration=T, side=Side.TO_LEFT if sign > 0 else Side.TO_RIGHT)
    return LaneChangeFitResult(
        params=params,
        t0=t0,
        lateral_rmse=math.sqrt(lateral_sse / samples),
        longitudinal_rmse=math.sqrt(longitudinal_sse / samples),
        converged=converged_by_tol and abs(amplitude) >= cfg.min_amplitude,
        iterations=iterations,
        objective=float(value),
        objective_trace=trace,
    )


EpisodeSamples = Tuple[Sequence[float], Sequence[float], Sequence[float], float]
FitOutcome = Union[LaneChangeFitResult, InsufficientData, DegenerateEpisode]


def fit_episodes(samples: Sequence[EpisodeSamples],
                 cfg: FitConfig = FitConfig()) -> List[FitOutcome]:
    """Fit the lane-change model to each of several episodes, given as the
    (times, xs, ys, marking_y) that ``fit_lane_change`` takes.

    Returns one outcome per episode, in order: its fit, or the
    ``InsufficientData`` or ``DegenerateEpisode`` that fitting it alone
    raises; a ``ContractViolation`` is raised. Each episode's grid runs
    alone. The refinements then run in lockstep rounds: in each round every
    episode still refining asks for one batch of placements, and the batches
    of all episodes with the same sample count go to one evaluator call,
    their samples stacked one row per placement. The refined placements are
    scored the same way. Every row is computed alone, so each episode gets
    the bits it gets when fitted alone.
    """
    outcomes: List[Optional[FitOutcome]] = [None] * len(samples)
    objectives: Dict[int, _SeparableObjective] = {}
    searches = {}
    for i, (times, xs, ys, marking_y) in enumerate(samples):
        try:
            objective = _checked_objective(times, xs, ys, marking_y, cfg)
            grid = _grid_minimum(objective, cfg)
            if grid[0] == math.inf:
                raise DegenerateEpisode("inner least squares singular over the whole grid")
        except (InsufficientData, DegenerateEpisode) as failure:
            outcomes[i] = failure
            continue
        objectives[i] = objective
        searches[i] = _refine(grid, (float(objective.t[0]), float(objective.t[-1])), cfg)

    refined = {}
    values = dict.fromkeys(searches)
    while values:
        requests = {}
        for i, value in values.items():
            try:
                requests[i] = searches[i].send(value)
            except StopIteration as stop:
                refined[i] = stop.value
        values = {i: columns[0] for i, columns in _score(objectives, requests, cfg).items()}

    final = _score(objectives, {i: (np.array([t0]), np.array([T]))
                                for i, (t0, T, *_) in refined.items()}, cfg)
    for i, columns in final.items():
        try:
            outcomes[i] = _fit_result(columns, *refined[i], len(objectives[i].t), cfg)
        except DegenerateEpisode as failure:
            outcomes[i] = failure
    return outcomes


def _only(outcomes: List[FitOutcome]) -> LaneChangeFitResult:
    [outcome] = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


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
    ``times`` must be finite and strictly increasing, and ``xs`` and ``ys``
    finite with one value per time, or it raises ``ContractViolation``.
    ``marking_y`` is the crossed lane marking. Minimizes the lateral SSE
    plus ``longitudinal_weight`` times the longitudinal SSE over all six
    quantities; the placement (t0, T) is found by a grid over the episode's
    sample times and the configured duration range, searched coarse to fine
    with a t0 stride of about ``duration_step / 4``, then refined by
    coordinate section search to ``refine_tolerance`` seconds. The
    one-episode case of ``fit_episodes``.
    """
    return _only(fit_episodes([(times, xs, ys, marking_y)], cfg))


def episode_samples(track: Track, episode: ManeuverEpisode,
                    meta: RecordingMeta) -> EpisodeSamples:
    """The (times, xs, ys, marking_y) to fit of a detected lane-change
    episode: the episode's frame span, x projected onto the travel
    direction, and the crossed marking (the boundary between the episode's
    from/to lanes) as the lateral anchor."""
    if episode.kind is not ManeuverKind.LANE_CHANGE:
        raise ContractViolation("fitting needs a lane-change episode")
    boundaries = meta.boundaries(track.direction)
    marking_index = max(episode.from_lane, episode.to_lane) - 1
    dt = 1.0 / meta.frame_rate
    rows = slice(episode.start_frame - track.initial_frame,
                 episode.end_frame - track.initial_frame + 1)
    return (track.frames[rows] * dt, track.x[rows] * track.direction.travel_sign,
            track.y[rows], boundaries[marking_index])


def fit_episode(
    track: Track,
    episode: ManeuverEpisode,
    meta: RecordingMeta,
    cfg: FitConfig = FitConfig(),
) -> LaneChangeFitResult:
    """Fit one detected lane-change episode of a track: the one-episode case
    of ``fit_episodes`` over ``episode_samples``."""
    return _only(fit_episodes([episode_samples(track, episode, meta)], cfg))


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


def write_events(
    directory: Path,
    recording_id: int,
    episodes: Sequence[ManeuverEpisode],
    cut_ins: Sequence[CutInScenario],
    fits: Optional[Sequence[Tuple[ManeuverEpisode, LaneChangeFitResult]]] = None,
) -> None:
    """A recording's ``NN_episodes.csv/.json`` and ``NN_cutIns.csv/.json`` in
    ``directory``, and its ``NN_laneChangeFits.csv`` when given ``fits``. The
    lane-change fields of an episode of another kind are None."""
    prefix = f"{recording_id:02d}_"
    episode_rows = [
        (recording_id, ep.track_id, ep.kind.value, ep.start_frame, ep.end_frame,
         *((ep.from_lane, ep.to_lane, ep.crossing_frame, ep.complete)
           if ep.kind is ManeuverKind.LANE_CHANGE else (None,) * 4))
        for ep in episodes
    ]
    cut_in_rows = [
        (recording_id, s.track_id, s.tailing_id, s.preceding_id, s.crossing_frame,
         s.entry_thw, s.tail_speed_at_entry, s.min_dhw, s.min_thw, s.min_ttc, s.gap_size,
         s.side.value)
        for s in cut_ins
    ]
    for name, columns, rows in (("episodes", EPISODE_COLUMNS, episode_rows),
                                ("cutIns", CUT_IN_COLUMNS, cut_in_rows)):
        write_rows(Path(directory, f"{prefix}{name}.csv"), columns, rows)
        write_json_rows(Path(directory, f"{prefix}{name}.json"), columns, rows)
    if fits is not None:
        write_rows(Path(directory, f"{prefix}laneChangeFits.csv"), FIT_COLUMNS, [
            (recording_id, ep.track_id, ep.crossing_frame, fit.t0, fit.params.duration,
             fit.params.d_start, fit.params.d_end, fit.params.v_start, fit.params.v_end,
             fit.params.side.value, fit.lateral_rmse, fit.longitudinal_rmse,
             fit.converged, fit.iterations)
            for ep, fit in fits
        ])
