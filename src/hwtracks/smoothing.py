"""Forward Kalman filtering and Rauch-Tung-Striebel smoothing of tracks.

The motion model is constant acceleration with white jerk driving noise,
with no coupling between the x and y axes. The covariances, the Kalman gains
and the smoother gains depend only on the time step, the noise model and
which frames were measured, so both axes share them: each track runs one
3-state (position, velocity, acceleration) recursion whose state carries the
two axes as columns. This gives the same result as a joint 6-state filter.

Frames flagged as predicted (coasted by the tracker) contribute no
measurement: the filter runs predict-only across them, and the backward
pass fills them with smoothed estimates informed by both sides of the gap.

All tracks of a recording run in lockstep (``smooth_series``): step k of
the forward and of the backward pass updates frame k of every track that
has one, as stacked (m, 3, 2) means and (m, 3, 3) covariances. Stacked
matrix products and solves run the same kernel per item as a single
track's would, so every track gets the same bits as when it runs alone.
``smooth_track_with_diagnostics(raw, smoothed, meta)`` then turns one
track's series into a ``Track``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import (
    DrivingDirection,
    RecordingMeta,
    Track,
    compute_mean_speed,
    nearest_lane_id,
)
from .tracking import RawTrack

#: Covariance eigenvalues may dip this far below zero before the run is
#: declared numerically failed.
PSD_TOLERANCE = 1e-9


class NumericalFailure(Exception):
    """Covariance lost positive semi-definiteness beyond tolerance.

    ``index`` is the failing position in the track's series. Raised by
    ``smooth_series``, the error also names the track and the recording
    ``frame`` at that position.
    """

    def __init__(
        self, index: int, detail: str,
        track_id: Optional[int] = None, frame: Optional[int] = None,
    ) -> None:
        self.index = index
        self.detail = detail
        self.track_id = track_id
        self.frame = frame
        where = (f"index {index}" if track_id is None
                 else f"track {track_id}, frame {frame}")
        super().__init__(f"{where}: {detail}")


@dataclass(frozen=True)
class SmootherConfig:
    """Noise model of the smoother.

    The initial sigmas keep the zero-velocity/zero-acceleration start from
    biasing the smoothed estimates near the track head: they are wide enough
    that the first measurements dominate within a few frames.
    """

    measurement_sigma: float = 0.10
    jerk_sigma: float = 2.0
    initial_velocity_sigma: float = 10000.0
    initial_accel_sigma: float = 1000.0

    def __post_init__(self) -> None:
        for name in ("measurement_sigma", "jerk_sigma",
                     "initial_velocity_sigma", "initial_accel_sigma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def transition_matrix(dt: float) -> np.ndarray:
    return np.array([[1.0, dt, dt * dt / 2.0], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])


def process_noise(dt: float, jerk_sigma: float) -> np.ndarray:
    """White-jerk process noise: Q = jerk_sigma^2 * g g^T, g = [dt^3/6, dt^2/2, dt]."""
    g = np.array([dt**3 / 6.0, dt**2 / 2.0, dt])
    return jerk_sigma**2 * np.outer(g, g)


@dataclass(frozen=True)
class FilteredSeries:
    """Per-frame filtered and one-step-predicted moments of a track, or of
    several tracks in the packed layout of ``_schedule``.

    The state of a frame is a (3, 2) array whose rows are position,
    velocity and acceleration and whose columns are the x and y axes; the
    covariance is shared by both columns.
    """

    means: np.ndarray       # (N, 3, 2) filtered
    covs: np.ndarray        # (N, 3, 3) filtered covariances
    pred_means: np.ndarray  # (N, 3, 2) predicted prior to the update
    pred_covs: np.ndarray   # (N, 3, 3)
    dt: float


@dataclass(frozen=True)
class SmoothedSeries:
    """Smoothed 6-vector states (x, vx, ax, y, vy, ay) and covariances."""

    states: np.ndarray       # (N, 6)
    covariances: np.ndarray  # (N, 3, 3), shared by the x and y axes
    used_pinv: bool = False


def _worst_eigenvalues(covs: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the symmetric part of every covariance."""
    sym = (covs + np.swapaxes(covs, -1, -2)) / 2.0
    return np.linalg.eigvalsh(sym).min(axis=-1)


def _check_psd(worst: np.ndarray, what: str, raw: Optional[RawTrack] = None) -> None:
    """Raise at the first frame whose smallest eigenvalue ``worst`` is below
    tolerance, naming ``raw``'s track and recording frame if given."""
    bad = np.flatnonzero(worst < -PSD_TOLERANCE)
    if bad.size:
        index = int(bad[0])
        detail = f"{what} covariance eigenvalue {worst[index]:.3e} < -{PSD_TOLERANCE}"
        if raw is None:
            raise NumericalFailure(index, detail)
        raise NumericalFailure(index, detail, raw.track_id, raw.first_frame + index)


def _schedule(lengths: np.ndarray) -> Tuple[np.ndarray, List[int], List[int]]:
    """Lockstep layout of tracks with the given frame counts.

    The tracks are ranked by decreasing length (ties in input order), so
    the ones that have a frame k are the first ``counts[k]`` of the ranking,
    and frame k of all of them occupies the packed rows ``offsets[k]`` to
    ``offsets[k] + counts[k]`` in rank order. Returns the packed row of
    every frame of every track, tracks in input order, with the two lists.
    """
    rank = np.empty(len(lengths), dtype=np.intp)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(len(lengths))
    counts = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    offsets = np.cumsum(counts) - counts
    starts = np.cumsum(lengths) - lengths
    frame = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
    rows = offsets[frame] + np.repeat(rank, lengths)
    return rows, counts.tolist(), offsets.tolist()


def _forward(
    z: np.ndarray, measured: np.ndarray, counts: List[int], offsets: List[int],
    cfg: SmootherConfig, dt: float,
) -> FilteredSeries:
    """Kalman filter over packed rows (``_schedule``), one step per frame
    index for all tracks at once. Each track starts at its first
    observation with zero velocity and acceleration under the prior sigmas;
    unmeasured frames keep their prediction."""
    F = transition_matrix(dt)
    Q = process_noise(dt, cfg.jerk_sigma)
    R = cfg.measurement_sigma**2
    I = np.eye(3)
    n = len(z)
    means = np.empty((n, 3, 2))
    covs = np.empty((n, 3, 3))
    pred_means = np.empty((n, 3, 2))
    pred_covs = np.empty((n, 3, 3))

    head = slice(0, counts[0])
    means[head] = 0.0
    means[head, 0] = z[head]
    covs[head] = np.diag(
        [cfg.measurement_sigma**2, cfg.initial_velocity_sigma**2,
         cfg.initial_accel_sigma**2]
    )
    pred_means[head], pred_covs[head] = means[head], covs[head]

    for k in range(1, len(counts)):
        prev = slice(offsets[k - 1], offsets[k - 1] + counts[k])
        cur = slice(offsets[k], offsets[k] + counts[k])
        x = F @ means[prev]
        P = F @ covs[prev] @ F.T + Q
        pred_means[cur], pred_covs[cur] = x, P
        # Scalar measurement of the position row; Joseph-form update, kept
        # on the measured rows only.
        K = P[:, :, 0] / (P[:, 0, 0] + R)[:, None]
        A = I - K[:, :, None] * [1.0, 0.0, 0.0]
        update = measured[cur, None, None]
        means[cur] = np.where(
            update, x + K[:, :, None] * (z[cur] - x[:, 0])[:, None, :], x)
        covs[cur] = np.where(
            update, A @ P @ A.swapaxes(1, 2) + R * (K[:, :, None] * K[:, None, :]), P)

    return FilteredSeries(
        means=means, covs=covs, pred_means=pred_means, pred_covs=pred_covs, dt=dt,
    )


def _transposed_gains(
    pred_covs: np.ndarray, a: np.ndarray, used_pinv: np.ndarray
) -> np.ndarray:
    """``pred_covs⁻¹ aᵀ`` per row, the transposed RTS smoother gains. When
    the batched solve meets a singular matrix, every row solves alone and a
    singular row falls back to the pseudo-inverse, flagged in ``used_pinv``."""
    try:
        return np.linalg.solve(pred_covs, a.swapaxes(1, 2))
    except np.linalg.LinAlgError:
        pass
    gains_t = np.empty_like(a)
    for i, (pp, ai) in enumerate(zip(pred_covs, a)):
        try:
            gains_t[i] = np.linalg.solve(pp, ai.T)
        except np.linalg.LinAlgError:
            gains_t[i] = (ai @ np.linalg.pinv(pp)).T
            used_pinv[i] = True
    return gains_t


def _backward(filtered: FilteredSeries, counts: List[int], offsets: List[int]) -> np.ndarray:
    """RTS pass in place over ``filtered``'s means and covs, laid out as in
    ``_forward``; returns ``used_pinv`` per track rank.

    The last frame of a track keeps its filtered state; earlier frames are
    corrected with the smoother gain, which both axes share."""
    F = transition_matrix(filtered.dt)
    xs, ps = filtered.means, filtered.covs
    used_pinv = np.zeros(counts[0], dtype=bool)
    for k in range(len(counts) - 2, -1, -1):
        cur = slice(offsets[k], offsets[k] + counts[k + 1])
        nxt = slice(offsets[k + 1], offsets[k + 1] + counts[k + 1])
        pp = filtered.pred_covs[nxt]
        gain = _transposed_gains(pp, ps[cur] @ F.T, used_pinv).swapaxes(1, 2)
        xs[cur] += gain @ (xs[nxt] - filtered.pred_means[nxt])
        cov = ps[cur] + gain @ (ps[nxt] - pp) @ gain.swapaxes(1, 2)
        ps[cur] = (cov + cov.swapaxes(1, 2)) / 2.0
    return used_pinv


def forward_filter(
    positions: Sequence[Tuple[float, float]],
    predicted: Optional[Sequence[bool]],
    cfg: SmootherConfig,
    dt: float,
) -> FilteredSeries:
    """Run the constant-acceleration Kalman filter over both axes.

    ``positions`` are the per-frame (x, y) observations at a fixed frame
    interval ``dt``; ``predicted`` flags frames whose value is a tracker
    prediction rather than a measurement (those frames skip the update).
    The state initializes at the first observation with zero velocity and
    acceleration under the configured prior sigmas.
    """
    z = np.asarray(positions, dtype=float)
    if z.ndim != 2 or z.shape[1] != 2 or z.shape[0] < 1:
        raise ValueError("positions must be a non-empty sequence of (x, y)")
    n = len(z)
    if predicted is None:
        flags = np.zeros(n, dtype=bool)
    else:
        flags = np.asarray(predicted, dtype=bool)
        if flags.shape != (n,):
            raise ValueError("predicted flags must align with positions")
    _, counts, offsets = _schedule(np.array([n]))
    filtered = _forward(z, ~flags, counts, offsets, cfg, dt)
    _check_psd(_worst_eigenvalues(filtered.covs), "filtered")
    return filtered


def rts_smooth(filtered: FilteredSeries) -> SmoothedSeries:
    """Backward RTS pass over a filtered series, which stays unchanged.

    A singular predicted covariance falls back to the pseudo-inverse and is
    flagged via ``used_pinv``.
    """
    n = len(filtered.means)
    smoothed = replace(filtered, means=filtered.means.copy(), covs=filtered.covs.copy())
    _, counts, offsets = _schedule(np.array([n]))
    used_pinv = _backward(smoothed, counts, offsets)
    _check_psd(_worst_eigenvalues(smoothed.covs), "smoothed")
    return SmoothedSeries(states=smoothed.means.transpose(0, 2, 1).reshape(n, 6),
                          covariances=smoothed.covs, used_pinv=bool(used_pinv[0]))


def smooth_series(
    raws: Sequence[RawTrack], cfg: SmootherConfig, dt: float
) -> List[SmoothedSeries]:
    """Forward filter and RTS pass of every raw track, all in lockstep.

    Gives each track the series that ``rts_smooth(forward_filter(...))``
    gives it alone, bit for bit. A covariance that loses positive
    semi-definiteness raises ``NumericalFailure`` for the first failing
    track in ``raws`` order, at its first failing frame, its filtered
    series checked before its smoothed one.
    """
    if not raws:
        return []
    lengths = np.array([len(raw.x) for raw in raws], dtype=np.intp)
    rows, counts, offsets = _schedule(lengths)
    n = len(rows)
    z = np.empty((n, 2))
    z[rows, 0] = np.concatenate([raw.x for raw in raws])
    z[rows, 1] = np.concatenate([raw.y for raw in raws])
    measured = np.empty(n, dtype=bool)
    measured[rows] = np.concatenate([raw.measured for raw in raws])

    series = _forward(z, measured, counts, offsets, cfg, dt)
    worst = [_worst_eigenvalues(series.covs)[rows]]
    used_pinv = _backward(series, counts, offsets)
    means, covs = series.means, series.covs
    del series  # frees the predicted moments
    worst.append(_worst_eigenvalues(covs)[rows])
    ends = np.cumsum(lengths).tolist()
    for raw, lo, hi in zip(raws, [0] + ends, ends):
        for what, w in zip(("filtered", "smoothed"), worst):
            _check_psd(w[lo:hi], what, raw)

    states = means.transpose(0, 2, 1)[rows].reshape(n, 6)
    del means
    covs = covs[rows]
    return [SmoothedSeries(states=states[lo:hi], covariances=covs[lo:hi],
                           used_pinv=bool(used_pinv[rows[lo]]))
            for lo, hi in zip([0] + ends, ends)]


def carriageway_of(y_values: Sequence[float], meta: RecordingMeta) -> DrivingDirection:
    """Carriageway whose lane span is closest to the track's median y."""
    median_y = float(np.median(np.asarray(y_values, dtype=float)))

    def span_distance(boundaries: Tuple[float, ...]) -> float:
        if boundaries[0] <= median_y < boundaries[-1]:
            return 0.0
        return min(abs(median_y - boundaries[0]), abs(median_y - boundaries[-1]))

    upper = span_distance(meta.upper_lane_boundaries)
    lower = span_distance(meta.lower_lane_boundaries)
    return DrivingDirection.UPPER if upper <= lower else DrivingDirection.LOWER


@dataclass(frozen=True)
class SmoothingDiagnostics:
    """Per-track smoothing health, reported by the CLI's track stage."""

    track_id: int
    frames: int
    measured: int
    rms_deviation: float  # smoothed vs measured positions, 2D, meters
    used_pinv: bool


def smooth_track(
    raw: RawTrack, cfg: SmootherConfig, meta: RecordingMeta
) -> Track:
    """Smooth one confirmed raw track at the recording's frame interval."""
    smoothed, = smooth_series([raw], cfg, 1.0 / meta.frame_rate)
    track, _ = smooth_track_with_diagnostics(raw, smoothed, meta)
    return track


def smooth_track_with_diagnostics(
    raw: RawTrack, smoothed: SmoothedSeries, meta: RecordingMeta
) -> Tuple[Track, SmoothingDiagnostics]:
    """The Track of a confirmed raw track, given its ``smooth_series`` result.

    Derives the lane id of every frame from the smoothed lateral position
    (off-span positions clamp to the nearest edge lane) and recomputes the
    mean speed.
    """
    direction = carriageway_of(smoothed.states[:, 3], meta)
    x, vx, ax, y, vy, ay = smoothed.states.T
    track = Track(
        track_id=raw.track_id,
        vehicle_class=raw.vehicle_class,
        direction=direction,
        length=raw.length,
        width=raw.width,
        mean_speed=compute_mean_speed(vx),
        initial_frame=raw.first_frame,
        x=x, y=y, vx=vx, vy=vy, ax=ax, ay=ay,
        lane=nearest_lane_id(y, meta, direction),
    )
    # Python's ``**`` is libm pow, which numpy's square does not match in
    # the last bit on every value; the reported RMS is pinned to the former.
    deviations = [(ox - sx) ** 2 + (oy - sy) ** 2 for ox, oy, sx, sy, measured
                  in zip(raw.x.tolist(), raw.y.tolist(), x.tolist(), y.tolist(),
                         raw.measured.tolist()) if measured]
    diagnostics = SmoothingDiagnostics(
        track_id=raw.track_id,
        frames=track.num_frames,
        measured=raw.measured_count,
        rms_deviation=float(np.sqrt(np.mean(deviations))) if deviations else 0.0,
        used_pinv=smoothed.used_pinv,
    )
    return track, diagnostics
