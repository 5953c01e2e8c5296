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

``smooth_series`` is the one entry point of the filter and smoother. It
runs all tracks of a recording in lockstep: step k of the forward and of
the backward pass gathers frame k of every track that has one into stacked
(m, 3, 2) means and (m, 3, 3) covariances, and scatters the results back.
Stacked matrix products and solves run the same kernel per item as a
single track's would, so every track gets the same bits as when it runs
alone. The moments are stored track after track, the means in the layout
of the output states, so the result needs no reordering copy. The forward
pass stores only the filtered moments; the backward pass recomputes each
frame's one-step prediction from the still-filtered moments of the frame
before it, with the same operands and batch shapes as the forward pass, so
the predicted moments it uses are the same bits.
``smooth_track_with_diagnostics(raw, smoothed, meta)`` then turns one
track's series into a ``Track``.

Every filtered and smoothed covariance is checked for positive
semi-definiteness. A certificate (``_cleared``) clears almost every row
with a few vectorised products; only the rows it cannot clear reach
``eigvalsh``, which names a failing row's eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

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
    """A covariance lost positive semi-definiteness beyond tolerance, or
    overflowed.

    ``index`` is the failing position in the track's series, ``track_id``
    the track and ``frame`` the recording frame at that position.
    """

    def __init__(self, index: int, detail: str, track_id: int, frame: int) -> None:
        self.index = index
        self.detail = detail
        self.track_id = track_id
        self.frame = frame
        super().__init__(f"track {track_id}, frame {frame}: {detail}")


@dataclass(frozen=True)
class SmootherConfig:
    """Noise model of the smoother.

    The initial sigmas keep the zero-velocity/zero-acceleration start from
    biasing the smoothed estimates near the track head: they are wide enough
    that the first measurements dominate within a few frames. Each sigma
    must be positive and have a finite square.
    """

    measurement_sigma: float = 0.10
    jerk_sigma: float = 2.0
    initial_velocity_sigma: float = 10000.0
    initial_accel_sigma: float = 1000.0

    def __post_init__(self) -> None:
        for name in ("measurement_sigma", "jerk_sigma",
                     "initial_velocity_sigma", "initial_accel_sigma"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if not math.isfinite(value * value):
                raise ValueError(f"{name} squared overflows, got {value}")


def transition_matrix(dt: float) -> np.ndarray:
    return np.array([[1.0, dt, dt * dt / 2.0], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])


def process_noise(dt: float, jerk_sigma: float) -> np.ndarray:
    """White-jerk process noise: Q = jerk_sigma^2 * g g^T, g = [dt^3/6, dt^2/2, dt]."""
    g = np.array([dt**3 / 6.0, dt**2 / 2.0, dt])
    return jerk_sigma**2 * np.outer(g, g)


@dataclass(frozen=True)
class SmoothedSeries:
    """Smoothed 6-vector states (x, vx, ax, y, vy, ay) and covariances."""

    states: np.ndarray       # (N, 6)
    covariances: np.ndarray  # (N, 3, 3), shared by the x and y axes
    used_pinv: bool = False


#: An overflowing covariance is not a warning: the PSD check reports it as a
#: ``NumericalFailure``. The passes that make and read covariances run under it.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore")

#: Unit roundoff of float64.
_U = 2.0**-53
#: ``eigvalsh``'s eigenvalues of a symmetric S are exact for S + E with
#: ||E||_2 <= p(n) u ||S||_2, p modest (backward stability; LAPACK Users'
#: Guide, section 4.7). The certificate proves lambda_min(S) above
#: -PSD_TOLERANCE by this share of PSD_TOLERANCE + max|S_ij|: over
#: 1000 u ||S||_2, so a cleared row also passes ``eigvalsh``'s check.
_EIGVALSH_SLACK = 2.0**-40
#: Entries up to ``_MAX_ENTRY`` keep every product of three from
#: overflowing, and keep what gradual underflow adds to a minor (a few
#: 2**-1074, times at most one entry) far below ``_UNDERFLOW``, which the
#: margins add.
_MAX_ENTRY = 1e100
_UNDERFLOW = 1e-200
#: Rows per block of the PSD check, which bounds its temporaries.
_BLOCK = 2048


@_QUIET_OVERFLOW
def _cleared(sym: np.ndarray) -> np.ndarray:
    """Rows of the symmetric (m, 3, 3) ``sym`` whose smallest eigenvalue is
    proven above ``-PSD_TOLERANCE`` (and above what ``eigvalsh`` could
    compute as below it).

    Sylvester's criterion: M = S + sI is positive definite, so
    lambda_min(S) > -s, iff its leading minors m00, d2 = m00 m11 - m01^2
    and d3 = det M are positive. The shift s is PSD_TOLERANCE less the
    ``eigvalsh`` slack. Rounding keeps the sign of m00 = S_00 + s. d2 and
    d3 are sums of products t_j, each passing at most k roundings into the
    computed sum (k = 4 for d2 and 8 for d3, counting the rounding of
    m_ii = S_ii + s), so |fl(d) - d| <= gamma_k sum|t_j|, gamma_k =
    k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, Lemma 3.1). The same sum of |t_j|, computed as p,
    bounds it: sum|t_j| <= p / (1 - gamma_k). So fl(d) > 2 k u p, the
    margin's own rounding included, proves d > 0. Entries above
    ``_MAX_ENTRY``, and non-finite ones, are never cleared.
    """
    scale = np.abs(sym).max(axis=(1, 2))
    shift = PSD_TOLERANCE - _EIGVALSH_SLACK * (PSD_TOLERANCE + scale)
    a = sym[:, 0, 0] + shift
    b = sym[:, 1, 1] + shift
    c = sym[:, 2, 2] + shift
    d, e, f = sym[:, 0, 1], sym[:, 0, 2], sym[:, 1, 2]
    ab, dd = a * b, d * d
    bc, ff, dc, fe, df, be = b * c, f * f, d * c, f * e, d * f, b * e
    minor3 = a * (bc - ff) - d * (dc - fe) + e * (df - be)
    bound3 = (np.abs(a) * (np.abs(bc) + ff) + np.abs(d) * (np.abs(dc) + np.abs(fe))
              + np.abs(e) * (np.abs(df) + np.abs(be)))
    return ((scale <= _MAX_ENTRY) & (a > 0)
            & (ab - dd > 8 * _U * (np.abs(ab) + dd) + _UNDERFLOW)
            & (minor3 > 16 * _U * bound3 + _UNDERFLOW))


@_QUIET_OVERFLOW
def _worst_eigenvalues(covs: np.ndarray) -> np.ndarray:
    """Per covariance, a value below ``-PSD_TOLERANCE`` exactly when the
    smallest eigenvalue of its symmetric part is: 0.0 where ``_cleared``
    clears the row, else that eigenvalue from ``eigvalsh``, and ``-inf``
    where that part overflows (has a non-finite entry), which ``eigvalsh``
    never sees."""
    sym = (covs + np.swapaxes(covs, -1, -2)) / 2.0
    worst = np.zeros(len(sym))
    rest = np.flatnonzero(~_cleared(sym))
    if rest.size:
        sym = sym[rest]
        finite = np.isfinite(sym).all(axis=(-2, -1))
        sym[~finite] = 0.0
        worst[rest] = np.where(finite, np.linalg.eigvalsh(sym).min(axis=-1), -np.inf)
    return worst


def _failures(covs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The rows of ``covs`` that fail the PSD check, ascending, with their
    ``_worst_eigenvalues``; checked in blocks of rows."""
    rows, worst = [], []
    for lo in range(0, len(covs), _BLOCK):
        w = _worst_eigenvalues(covs[lo:lo + _BLOCK])
        bad = np.flatnonzero(w < -PSD_TOLERANCE)
        rows.append(bad + lo)
        worst.append(w[bad])
    return np.concatenate(rows), np.concatenate(worst)


def _raise_first_failure(
    failed: Sequence[Tuple[np.ndarray, np.ndarray]], raws: Sequence[RawTrack],
    ends: List[int],
) -> None:
    """Given the ``_failures`` of the filtered and of the smoothed
    covariances, stored track after track (track i ends at row
    ``ends[i]``), raise for the first track of ``raws`` with one, at its
    first failing frame, the filtered series before the smoothed one."""
    firsts = [(int(np.searchsorted(ends, rows[0], side="right")), kind, int(rows[0]),
               float(worst[0]))
              for kind, (rows, worst) in enumerate(failed) if rows.size]
    if not firsts:
        return
    track, kind, row, worst = min(firsts)
    raw = raws[track]
    index = row - (ends[track - 1] if track else 0)
    what = ("filtered", "smoothed")[kind]
    detail = (f"{what} covariance eigenvalue {worst:.3e} < -{PSD_TOLERANCE}"
              if math.isfinite(worst) else f"{what} covariance overflows")
    raise NumericalFailure(index, detail, raw.track_id, raw.first_frame + index)


def _schedule(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Lockstep layout of tracks with the given frame counts, stored one
    after another in input order.

    The tracks are ranked by decreasing length (ties in input order), so
    the ones that have a frame k are the first ``counts[k]`` of the
    ranking, and frame k of the ranked track r is row ``first[r] + k``.
    Returns the ranking (input indices), ``first`` and ``counts``.
    """
    order = np.argsort(-lengths, kind="stable")
    first = (np.cumsum(lengths) - lengths)[order]
    counts = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    return order, first, counts.tolist()


def _gather(means: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows of ``_forward``'s strided means view in C order, the layout
    every product of the passes takes its operands in."""
    return np.ascontiguousarray(means[rows])


@_QUIET_OVERFLOW
def _forward(
    z: np.ndarray, measured: np.ndarray, first: np.ndarray, counts: List[int],
    cfg: SmootherConfig, dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Filtered (means, covs) over the rows of ``_schedule``, one step per
    frame index for all tracks at once. The state of a row is a (3, 2)
    array whose rows are position, velocity and acceleration and whose
    columns are the x and y axes; the covariance is shared by both columns.
    ``means`` is a view of an (n, 6) array of (x, vx, ax, y, vy, ay) rows.
    Each track starts at its first observation with zero velocity and
    acceleration under the prior sigmas; unmeasured frames keep their
    prediction."""
    F = transition_matrix(dt)
    Q = process_noise(dt, cfg.jerk_sigma)
    R = cfg.measurement_sigma**2
    I = np.eye(3)
    n = len(z)
    means = np.empty((n, 6)).reshape(n, 2, 3).transpose(0, 2, 1)
    covs = np.empty((n, 3, 3))

    means[first] = 0.0
    means[first, 0] = z[first]
    covs[first] = np.diag(
        [cfg.measurement_sigma**2, cfg.initial_velocity_sigma**2,
         cfg.initial_accel_sigma**2]
    )

    for k in range(1, len(counts)):
        cur = first[:counts[k]] + k
        x = F @ _gather(means, cur - 1)
        P = F @ covs[cur - 1] @ F.T + Q
        # Scalar measurement of the position row; Joseph-form update, kept
        # on the measured rows only.
        K = P[:, :, 0] / (P[:, 0, 0] + R)[:, None]
        A = I - K[:, :, None] * [1.0, 0.0, 0.0]
        update = measured[cur, None, None]
        means[cur] = np.where(
            update, x + K[:, :, None] * (z[cur] - x[:, 0])[:, None, :], x)
        covs[cur] = np.where(
            update, A @ P @ A.swapaxes(1, 2) + R * (K[:, :, None] * K[:, None, :]), P)

    return means, covs


def _transposed_gains(
    predicted: np.ndarray, a: np.ndarray, used_pinv: np.ndarray
) -> np.ndarray:
    """``predicted⁻¹ aᵀ`` per row, the transposed RTS smoother gains. When
    the batched solve meets a singular matrix, every row solves alone and a
    singular row falls back to the pseudo-inverse, flagged in ``used_pinv``."""
    try:
        return np.linalg.solve(predicted, a.swapaxes(1, 2))
    except np.linalg.LinAlgError:
        pass
    gains_t = np.empty_like(a)
    for i, (pp, ai) in enumerate(zip(predicted, a)):
        try:
            gains_t[i] = np.linalg.solve(pp, ai.T)
        except np.linalg.LinAlgError:
            gains_t[i] = (ai @ np.linalg.pinv(pp)).T
            used_pinv[i] = True
    return gains_t


@_QUIET_OVERFLOW
def _backward(
    xs: np.ndarray, ps: np.ndarray, first: np.ndarray, counts: List[int],
    cfg: SmootherConfig, dt: float,
) -> np.ndarray:
    """RTS pass in place over ``_forward``'s means ``xs`` and covs ``ps``;
    returns ``used_pinv`` per track rank.

    The last frame of a track keeps its filtered state; earlier frames are
    corrected with the smoother gain, which both axes share. The predicted
    moments of frame k + 1 are recomputed from frame k's filtered rows
    before they are overwritten, as ``_forward`` computed them."""
    F = transition_matrix(dt)
    Q = process_noise(dt, cfg.jerk_sigma)
    used_pinv = np.zeros(counts[0], dtype=bool)
    for k in range(len(counts) - 2, -1, -1):
        cur = first[:counts[k + 1]] + k
        xc, pc = _gather(xs, cur), ps[cur]
        x = F @ xc
        pp = F @ pc @ F.T + Q
        gain = _transposed_gains(pp, pc @ F.T, used_pinv).swapaxes(1, 2)
        xs[cur] = xc + gain @ (_gather(xs, cur + 1) - x)
        cov = pc + gain @ (ps[cur + 1] - pp) @ gain.swapaxes(1, 2)
        ps[cur] = (cov + cov.swapaxes(1, 2)) / 2.0
    return used_pinv


def smooth_series(
    raws: Sequence[RawTrack], cfg: SmootherConfig, dt: float
) -> List[SmoothedSeries]:
    """Forward filter and RTS pass of every raw track, all in lockstep.

    Gives each track the series that it gets when smoothed alone, bit for
    bit. A covariance that loses positive semi-definiteness, or overflows,
    raises ``NumericalFailure`` for the first failing track in ``raws``
    order, at its first failing frame, its filtered series checked before
    its smoothed one.
    """
    if not raws:
        return []
    lengths = np.array([len(raw.x) for raw in raws], dtype=np.intp)
    order, first, counts = _schedule(lengths)
    z = np.empty((int(lengths.sum()), 2))
    z[:, 0] = np.concatenate([raw.x for raw in raws])
    z[:, 1] = np.concatenate([raw.y for raw in raws])
    measured = np.concatenate([raw.measured for raw in raws])

    means, covs = _forward(z, measured, first, counts, cfg, dt)
    del z, measured
    failed = [_failures(covs)]
    used_pinv = np.empty(len(raws), dtype=bool)
    used_pinv[order] = _backward(means, covs, first, counts, cfg, dt)
    failed.append(_failures(covs))
    ends = np.cumsum(lengths).tolist()
    _raise_first_failure(failed, raws, ends)

    states = means.transpose(0, 2, 1).reshape(-1, 6)  # a view of _forward's rows
    return [SmoothedSeries(states=states[lo:hi], covariances=covs[lo:hi],
                           used_pinv=bool(pinv))
            for lo, hi, pinv in zip([0] + ends, ends, used_pinv.tolist())]


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
