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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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

    ``index`` is the failing position in the filtered series. Raised by
    ``smooth_track_with_diagnostics``, the error also names the track and
    the recording ``frame`` at that position.
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
    """Per-frame filtered and one-step-predicted moments of a track.

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


def _check_psd(covs: np.ndarray, what: str) -> None:
    sym = (covs + np.swapaxes(covs, -1, -2)) / 2.0
    eigvals = np.linalg.eigvalsh(sym)
    worst = eigvals.min(axis=-1)
    bad = np.nonzero(worst < -PSD_TOLERANCE)[0]
    if bad.size:
        index = int(bad[0])
        raise NumericalFailure(
            index, f"{what} covariance eigenvalue {worst[index]:.3e} < -{PSD_TOLERANCE}"
        )


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
    F = transition_matrix(dt)
    Q = process_noise(dt, cfg.jerk_sigma)
    R = cfg.measurement_sigma**2
    I = np.eye(3)

    means = np.empty((n, 3, 2))
    covs = np.empty((n, 3, 3))
    pred_means = np.empty((n, 3, 2))
    pred_covs = np.empty((n, 3, 3))

    x = np.zeros((3, 2))
    x[0] = z[0]
    P = np.diag(
        [cfg.measurement_sigma**2, cfg.initial_velocity_sigma**2,
         cfg.initial_accel_sigma**2]
    )
    means[0], covs[0] = x, P
    pred_means[0], pred_covs[0] = x, P

    for k in range(1, n):
        x = F @ x
        P = F @ P @ F.T + Q
        pred_means[k], pred_covs[k] = x, P
        if not flags[k]:
            # Scalar measurement of the position row; Joseph-form update.
            S = P[0, 0] + R
            K = P[:, 0] / S
            x = x + np.outer(K, z[k] - x[0])
            A = I - np.outer(K, [1.0, 0.0, 0.0])
            P = A @ P @ A.T + R * np.outer(K, K)
        means[k], covs[k] = x, P

    _check_psd(covs, "filtered")
    return FilteredSeries(
        means=means, covs=covs, pred_means=pred_means, pred_covs=pred_covs, dt=dt,
    )


def rts_smooth(filtered: FilteredSeries) -> SmoothedSeries:
    """Backward RTS pass over a filtered series.

    The last frame's smoothed state equals the last filtered state; earlier
    frames are corrected with the standard smoother gain, which both axes
    share. A singular predicted covariance falls back to the pseudo-inverse
    and is flagged via ``used_pinv``.
    """
    F = transition_matrix(filtered.dt)
    n = len(filtered.means)
    xs = filtered.means.copy()
    ps = filtered.covs.copy()
    used_pinv = False
    for k in range(n - 2, -1, -1):
        pp = filtered.pred_covs[k + 1]
        a = filtered.covs[k] @ F.T
        try:
            gain = np.linalg.solve(pp, a.T).T
        except np.linalg.LinAlgError:
            gain = a @ np.linalg.pinv(pp)
            used_pinv = True
        xs[k] = filtered.means[k] + gain @ (xs[k + 1] - filtered.pred_means[k + 1])
        cov = filtered.covs[k] + gain @ (ps[k + 1] - pp) @ gain.T
        ps[k] = (cov + cov.T) / 2.0
    _check_psd(ps, "smoothed")
    states = xs.transpose(0, 2, 1).reshape(n, 6)
    return SmoothedSeries(states=states, covariances=ps, used_pinv=used_pinv)


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
    track, _ = smooth_track_with_diagnostics(raw, cfg, meta)
    return track


def smooth_track_with_diagnostics(
    raw: RawTrack, cfg: SmootherConfig, meta: RecordingMeta
) -> Tuple[Track, SmoothingDiagnostics]:
    """Smooth a confirmed raw track into a Track with full kinematic columns.

    Runs the forward filter at the recording's frame interval
    (``1 / meta.frame_rate``) and the RTS pass, derives the lane id
    of every frame from the smoothed lateral position (off-span positions
    clamp to the nearest edge lane), and recomputes the mean speed.
    """
    positions = np.column_stack((raw.x, raw.y))
    try:
        smoothed = rts_smooth(forward_filter(
            positions, np.logical_not(raw.measured), cfg, 1.0 / meta.frame_rate))
    except NumericalFailure as exc:
        raise NumericalFailure(
            exc.index, exc.detail, raw.track_id, raw.first_frame + exc.index
        ) from None

    direction = carriageway_of(smoothed.states[:, 3], meta)
    x, vx, ax, y, vy, ay = smoothed.states.T
    length, width = raw.extent()
    track = Track(
        track_id=raw.track_id,
        vehicle_class=raw.decide_class(),
        direction=direction,
        length=length,
        width=width,
        mean_speed=compute_mean_speed(vx),
        initial_frame=raw.first_frame,
        x=x, y=y, vx=vx, vy=vy, ax=ax, ay=ay,
        lane=nearest_lane_id(y, meta, direction),
    )
    # Python's ``**`` is libm pow, which numpy's square does not match in
    # the last bit on every value; the reported RMS is pinned to the former.
    deviations = [(ox - sx) ** 2 + (oy - sy) ** 2 for ox, oy, sx, sy, measured
                  in zip(raw.x, raw.y, x.tolist(), y.tolist(), raw.measured) if measured]
    diagnostics = SmoothingDiagnostics(
        track_id=raw.track_id,
        frames=track.num_frames,
        measured=raw.measured_count,
        rms_deviation=float(np.sqrt(np.mean(deviations))) if deviations else 0.0,
        used_pinv=smoothed.used_pinv,
    )
    return track, diagnostics
