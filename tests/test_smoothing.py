from types import SimpleNamespace
import tracemalloc

import numpy as np
import pytest

from hwtracks import (
    NumericalFailure,
    SmootherConfig,
    TrackerConfig,
    build_tracks,
    smooth_series,
    smooth_track,
)
from hwtracks.core import DrivingDirection, VehicleClass
from hwtracks import smoothing
from hwtracks.smoothing import (
    PSD_TOLERANCE, _cleared, _forward, _schedule, _worst_eigenvalues, process_noise,
    transition_matrix,
)
from hwtracks.tracking import RawTrack
from conftest import det, detection_table

DT = 0.04


def cfg(**kwargs):
    return SmootherConfig(**kwargs)


def measured_mask(n, predicted):
    return np.ones(n, dtype=bool) if predicted is None else ~np.asarray(predicted, dtype=bool)


def filtered_moments(positions, predicted=None):
    """Filtered (means, covs) of one track from the forward pass that
    ``smooth_series`` runs; one track's rows are its frames."""
    z = np.asarray(positions, dtype=float)
    _, first, counts = _schedule(np.array([len(z)]))
    return _forward(z, measured_mask(len(z), predicted), first, counts, cfg(), DT)


def filter_smooth(positions, predicted=None, **kwargs):
    """``smooth_series`` of a one-track batch."""
    z = np.asarray(positions, dtype=float)
    measured = measured_mask(len(z), predicted)
    raw = RawTrack(1, 0, z[:, 0], z[:, 1], measured, 4.5, 2.0, VehicleClass.CAR,
                   int(measured.sum()))
    smoothed, = smooth_series([raw], cfg(**kwargs), DT)
    return smoothed


class TestForwardFilter:
    def test_single_observation_initialization(self):
        means, _ = filtered_moments([(12.5, -3.0)])
        assert means[0, :, 0] == pytest.approx([12.5, 0.0, 0.0])
        assert means[0, :, 1] == pytest.approx([-3.0, 0.0, 0.0])

    def test_constant_position_converges(self):
        # Derived oracle: run the recursion long enough and the filtered
        # position must approach the constant (steady state of this model).
        n = 200
        positions = [(5.0, 7.0)] * n
        means, _ = filtered_moments(positions)
        assert abs(means[-1, 0, 0] - 5.0) < 1e-6
        assert abs(means[-1, 0, 1] - 7.0) < 1e-6

    def test_predict_only_after_first_frame(self):
        n = 30
        positions = [(10.0, 2.0)] * n
        predicted = [False] + [True] * (n - 1)
        means, covs = filtered_moments(positions, predicted)
        # position never moves, covariance trace strictly grows
        assert means[-1, 0, 0] == pytest.approx(10.0)
        traces = [np.trace(P) for P in covs]
        assert all(b > a for a, b in zip(traces, traces[1:]))


class TestRtsSmooth:
    def test_constant_acceleration_exactness(self):
        # Analytic trajectory oracle: x(t) = x0 + v t + a t^2 / 2.
        n = 250
        t = np.arange(n) * DT
        v, a = 20.0, 0.5
        x = 3.0 + v * t + a / 2 * t**2
        y = np.full(n, 14.0)
        smoothed = filter_smooth(np.column_stack([x, y]))
        assert np.abs(smoothed.states[10:, 0] - x[10:]).max() < 1e-6
        assert np.abs(smoothed.states[10:, 1] - (v + a * t[10:])).max() < 1e-6
        assert np.abs(smoothed.states[10:, 2] - a).max() < 1e-6

    def test_constant_position_zero_motion(self):
        n = 120
        positions = [(1.0, 2.0)] * n
        smoothed = filter_smooth(positions)
        assert np.abs(smoothed.states[:, 1]).max() < 1e-9
        assert np.abs(smoothed.states[:, 4]).max() < 1e-9

    def test_last_smoothed_state_equals_filtered(self):
        n = 50
        t = np.arange(n) * DT
        positions = np.column_stack([10 + 20 * t, np.full(n, 4.0)])
        means, _ = filtered_moments(positions)
        smoothed = filter_smooth(positions)
        assert smoothed.states[-1, :3] == pytest.approx(means[-1, :, 0])

    def test_monotone_trace_improvement(self):
        rng = np.random.default_rng(5)
        n = 150
        t = np.arange(n) * DT
        x = 30 * t + rng.normal(0, 0.1, n)
        y = 14.0 + rng.normal(0, 0.1, n)
        positions = np.column_stack([x, y])
        _, covs = filtered_moments(positions)
        smoothed = filter_smooth(positions)
        for k in range(n):
            t_filt = np.trace(covs[k])
            t_smooth = np.trace(smoothed.covariances[k])
            assert t_smooth <= t_filt + 1e-12

    def test_pinv_fallback_matches_solve(self, monkeypatch):
        # The fallback runs only when solve raises; force it on every frame.
        # Moderate priors: under the default ones the first predicted
        # covariance has condition number ~1e10, and the two inverses differ
        # there by its round-off (~1e-8 m), not by their logic.
        rng = np.random.default_rng(7)
        n = 80
        t = np.arange(n) * DT
        positions = np.column_stack([30 * t, np.full(n, 14.0)])
        positions += rng.normal(0, 0.1, (n, 2))
        predicted = np.zeros(n, dtype=bool)
        predicted[30:36] = True
        priors = dict(initial_velocity_sigma=10.0, initial_accel_sigma=1.0)
        reference = filter_smooth(positions, predicted, **priors)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        fallback = filter_smooth(positions, predicted, **priors)
        assert not reference.used_pinv
        assert fallback.used_pinv
        assert np.abs(fallback.states - reference.states).max() < 1e-9

    def test_noisy_rmse_beats_raw(self):
        # Monte Carlo with fixed seed against injected ground truth.
        rng = np.random.default_rng(42)
        n = 500
        t = np.arange(n) * DT
        xt = 50 + 30 * t
        yt = np.full(n, 14.0)
        zx = xt + rng.normal(0, 0.10, n)
        zy = yt + rng.normal(0, 0.10, n)
        smoothed = filter_smooth(np.column_stack([zx, zy]))
        err = np.hypot(smoothed.states[:, 0] - xt, smoothed.states[:, 3] - yt)
        raw = np.hypot(zx - xt, zy - yt)
        assert np.sqrt((err**2).mean()) < 0.10
        assert np.sqrt((err**2).mean()) < np.sqrt((raw**2).mean())

    def test_axis_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        n = 80
        positions = rng.normal(0, 1, (n, 2)).cumsum(axis=0)
        a = filter_smooth(positions)
        b = filter_smooth(positions[:, ::-1])
        assert np.array_equal(a.states[:, :3], b.states[:, 3:])
        assert np.array_equal(a.states[:, 3:], b.states[:, :3])

    def test_finite_difference_crosscheck(self):
        # Smoothed vx must agree with central differences of smoothed x.
        n = 300
        t = np.arange(n) * DT
        x = 5 + 25 * t + 0.3 * t**2
        y = 14.0 + 0.5 * np.sin(t / 4.0)
        smoothed = filter_smooth(np.column_stack([x, y]))
        sx = smoothed.states[:, 0]
        vx = smoothed.states[:, 1]
        central = (sx[2:] - sx[:-2]) / (2 * DT)
        assert np.abs(vx[1:-1] - central).max() < 0.05


class TestSmoothTrack:
    def tracked(self, rows, **tracker_kwargs):
        return build_tracks(detection_table(rows), TrackerConfig(**tracker_kwargs))

    def test_constant_velocity_raw_track(self, meta):
        raw = self.tracked([det(f, f * 1.0, 13.85) for f in range(200)])[0]
        track = smooth_track(raw, cfg(), meta)
        vx, ax = track.vx, track.ax
        assert np.abs(vx[10:] - 25.0).max() < 1e-6
        assert np.abs(ax[10:]).max() < 1e-6
        assert track.direction is DrivingDirection.LOWER
        assert (track.lane == 1).all()
        assert track.mean_speed == pytest.approx(np.abs(vx).mean())

    def test_upper_carriageway_direction(self, meta):
        raw = self.tracked([det(f, 400 - f * 1.0, 1.85) for f in range(100)])[0]
        track = smooth_track(raw, cfg(), meta)
        assert track.direction is DrivingDirection.UPPER
        assert track.vx[50] < 0

    def test_gap_frames_carry_smoothed_positions(self, meta):
        truth_x = {f: f * 1.0 for f in range(120)}
        gap = set(range(50, 60))
        raw = self.tracked([det(f, truth_x[f], 13.85) for f in range(120) if f not in gap])[0]
        track = smooth_track(raw, cfg(), meta)
        # Compare against the same scene without dropout.
        full = [det(f, truth_x[f], 13.85) for f in range(120)]
        reference = smooth_track(self.tracked(full)[0], cfg(), meta)
        assert np.abs(track.x - reference.x).max() < 1e-6
        # no velocity discontinuity across the gap
        jumps = np.abs(np.diff(track.vx))
        assert jumps.max() < 0.5

    def test_lane_change_lateral_velocity_peak(self, meta):
        # Analytic quintic derivative oracle: the shape rate 30s^2-60s^3+30s^4
        # peaks at s=0.5 with value 1.875, so peak vy = 1.875 * span / T.
        from hwtracks import LaneChangeParams, Side, evaluate_model

        span, T = 3.7, 5.0
        params = LaneChangeParams(
            d_start=1.85, d_end=1.85, v_start=30.0, v_end=30.0, duration=T,
            side=Side.TO_LEFT,
        )
        n = int(T / DT) + 1
        t = np.arange(n) * DT
        _, y_rel, _, vy_true, _, _ = evaluate_model(params, t)
        analytic_peak = 1.875 * span / T
        # the frame grid does not hit s = 0.5 exactly, hence the loose rel
        assert np.abs(vy_true).max() == pytest.approx(analytic_peak, rel=1e-3)

        rng = np.random.default_rng(11)
        lead_in = 75
        ys = np.concatenate([
            np.full(lead_in, 13.85),
            13.85 + (y_rel - y_rel[0]),
            np.full(lead_in, 13.85 + span),
        ])
        xs = 30.0 * DT * np.arange(len(ys))
        rows = [det(f, xs[f], ys[f] + rng.normal(0, 0.05)) for f in range(len(ys))]
        raw = self.tracked(rows)[0]
        track = smooth_track(raw, cfg(), meta)
        peak = np.abs(track.vy).max()
        assert peak == pytest.approx(analytic_peak, rel=0.10)


def reference_smooth(raw, c, dt):
    """Forward Kalman filter, then the RTS pass, of one track, frame by
    frame: the recursion that ``smooth_series`` runs for all tracks at once."""
    z = np.column_stack((raw.x, raw.y))
    n = len(z)
    F = transition_matrix(dt)
    Q = process_noise(dt, c.jerk_sigma)
    R = c.measurement_sigma**2
    I = np.eye(3)
    means = np.empty((n, 3, 2))
    covs = np.empty((n, 3, 3))
    pred_means = np.empty((n, 3, 2))
    pred_covs = np.empty((n, 3, 3))
    x = np.zeros((3, 2))
    x[0] = z[0]
    P = np.diag([c.measurement_sigma**2, c.initial_velocity_sigma**2,
                 c.initial_accel_sigma**2])
    means[0], covs[0] = x, P
    pred_means[0], pred_covs[0] = x, P
    for k in range(1, n):
        x = F @ x
        P = F @ P @ F.T + Q
        pred_means[k], pred_covs[k] = x, P
        if raw.measured[k]:
            S = P[0, 0] + R
            K = P[:, 0] / S
            x = x + np.outer(K, z[k] - x[0])
            A = I - np.outer(K, [1.0, 0.0, 0.0])
            P = A @ P @ A.T + R * np.outer(K, K)
        means[k], covs[k] = x, P

    xs = means.copy()
    ps = covs.copy()
    used_pinv = False
    for k in range(n - 2, -1, -1):
        pp = pred_covs[k + 1]
        a = covs[k] @ F.T
        try:
            gain = np.linalg.solve(pp, a.T).T
        except np.linalg.LinAlgError:
            gain = a @ np.linalg.pinv(pp)
            used_pinv = True
        xs[k] = means[k] + gain @ (xs[k + 1] - pred_means[k + 1])
        cov = covs[k] + gain @ (ps[k + 1] - pp) @ gain.T
        ps[k] = (cov + cov.T) / 2.0
    return SimpleNamespace(filtered_covs=covs, pred_covs=pred_covs,
                           states=xs.transpose(0, 2, 1).reshape(n, 6),
                           covariances=ps, used_pinv=used_pinv)


def raw_track(track_id, first_frame, length, coasts=()):
    """A noisy, slightly weaving raw track; frames in the ``coasts`` ranges
    are unmeasured."""
    rng = np.random.default_rng(track_id)
    t = np.arange(length) * DT
    x = 10.0 * track_id + 28.0 * t + rng.normal(0, 0.1, length)
    y = 13.85 + 0.3 * np.sin(t) + rng.normal(0, 0.1, length)
    measured = np.ones(length, dtype=bool)
    for start, stop in coasts:
        measured[start:stop] = False
    return RawTrack(track_id, first_frame, x, y, measured, 4.5, 2.0, VehicleClass.CAR,
                    int(measured.sum()))


# (first frame, length, coast runs): lengths 1, 2 and ~200; coasts at the
# head, the middle and the tail; tracks 6 and 7 share one measured mask.
BATCH = [
    (0, 1, ()),
    (3, 2, ()),
    (5, 2, ((1, 2),)),
    (0, 200, ()),
    (7, 199, ((1, 6),)),
    (2, 201, ((80, 95),)),
    (9, 201, ((80, 95),)),
    (4, 180, ((170, 180),)),
    (1, 150, ((1, 4), (60, 70), (140, 150))),
    (6, 1, ()),
]


def batch_tracks():
    return [raw_track(i + 1, *spec) for i, spec in enumerate(BATCH)]


class TestSmoothSeries:
    def test_bit_identical_to_per_track_recursion(self):
        raws = batch_tracks()
        got = smooth_series(raws, cfg(), DT)
        assert len(got) == len(raws)
        for raw, series in zip(raws, got):
            want = reference_smooth(raw, cfg(), DT)
            assert np.array_equal(series.states, want.states), raw.track_id
            assert np.array_equal(series.covariances, want.covariances), raw.track_id
            assert series.used_pinv is want.used_pinv is False

    def test_pinv_fallback_flags_only_the_singular_track(self, monkeypatch):
        raws = batch_tracks()
        chosen = raws[8]
        # A predicted covariance inside the chosen track's middle coast run;
        # no other track has its measured mask, so no other track has it.
        singular_cov = reference_smooth(chosen, cfg(), DT).pred_covs[65]
        real_solve = np.linalg.solve
        batch_sizes = []

        def solve(a, b):
            stack = np.reshape(a, (-1, 3, 3))
            if (stack == singular_cov).all(axis=(1, 2)).any():
                batch_sizes.append(len(stack))
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        batch = smooth_series(raws, cfg(), DT)
        alone = [smooth_series([raw], cfg(), DT)[0] for raw in raws]
        assert max(batch_sizes) > 1
        assert [s.used_pinv for s in batch] == [raw is chosen for raw in raws]
        assert [s.used_pinv for s in alone] == [raw is chosen for raw in raws]
        for b, a in zip(batch, alone):
            assert np.abs(b.states - a.states).max() < 1e-9

    def test_failure_names_first_track_filtered_before_smoothed(self, monkeypatch):
        # Tracks in build order; the check fails only on chosen covariances.
        raws = [raw_track(1, 0, 60), raw_track(2, 10, 80, ((20, 26),)),
                raw_track(3, 0, 200, ((1, 4),)), raw_track(4, 5, 100, ((50, 60),))]
        ref = {raw.track_id: reference_smooth(raw, cfg(), DT) for raw in raws}

        def sym(P):
            return (P + P.T) / 2.0

        failing = {
            # track 2: smoothed at recording frame 25, filtered at 36
            "2s": sym(ref[2].covariances[15]), "2f": sym(ref[2].filtered_covs[26]),
            # track 3, the longest, first in lockstep: filtered at frame 5
            "3f": sym(ref[3].filtered_covs[5]),
            # track 4: smoothed at recording frame 50
            "4s": sym(ref[4].covariances[45]),
        }
        real_worst = smoothing._worst_eigenvalues

        def failure(chosen, tracks):
            # Every row passes _worst_eigenvalues, cleared by the
            # certificate or not; the chosen ones are made to fail there.
            def worst_eigenvalues(covs):
                w = real_worst(covs)
                bad = np.stack([failing[key] for key in chosen])
                sym = (covs + covs.swapaxes(1, 2)) / 2.0
                w[(sym[:, None] == bad).all(axis=(2, 3)).any(axis=1)] = -1.0
                return w

            with monkeypatch.context() as m:
                m.setattr(smoothing, "_worst_eigenvalues", worst_eigenvalues)
                with pytest.raises(NumericalFailure) as info:
                    smooth_series(tracks, cfg(), DT)
            exc = info.value
            return exc.track_id, exc.frame, exc.index, str(exc).split(":")[1].split()[0]

        smooth_series(raws, cfg(), DT)
        assert failure(failing, raws) == (2, 36, 26, "filtered")
        assert failure(["2s", "3f", "4s"], raws) == (2, 25, 15, "smoothed")
        assert failure(failing, [raws[0], raws[2], raws[3]]) == (3, 5, 5, "filtered")
        assert failure(["4s"], raws) == (4, 50, 45, "smoothed")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("priors, index, detail", [
        # a finite, indefinite filtered covariance; the smoothed ones
        # overflow, and eigvalsh does not converge on them
        (dict(initial_accel_sigma=1e152), 1, "filtered covariance eigenvalue"),
        # the symmetric part of the prior covariance overflows
        (dict(initial_velocity_sigma=1.3e154), 0, "filtered covariance overflows"),
    ])
    def test_overflow_names_the_first_track_and_frame(self, priors, index, detail):
        raws = [raw_track(1, 0, 60), raw_track(2, 10, 80, ((20, 26),))]
        for tracks in (raws, raws[::-1]):
            with pytest.raises(NumericalFailure) as info:
                smooth_series(tracks, cfg(**priors), DT)
            exc = info.value
            assert (exc.track_id, exc.frame, exc.index) \
                == (tracks[0].track_id, tracks[0].first_frame + index, index)
            assert exc.detail.startswith(detail)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eigvalsh_never_sees_an_overflowed_covariance(self, monkeypatch):
        # row 0 is cleared by the certificate, row 4 is indefinite
        covs = np.stack([np.diag([1.0, 2.0, 3.0])] * 4 + [np.diag([1.0, -0.5, 3.0])])
        covs[1, 0, 2] = np.inf
        covs[2, 1, 1] = np.nan
        covs[3, 2, 2] = 1e308  # finite, but twice it is not
        real_eigvalsh = np.linalg.eigvalsh
        seen = []

        def eigvalsh(a):
            assert np.isfinite(a).all()
            seen.append(len(a))
            return real_eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert _worst_eigenvalues(covs).tolist() == [0.0, -np.inf, -np.inf, -np.inf, -0.5]
        assert seen == [4]  # the rows the certificate leaves, overflowed ones zeroed

    def test_traced_peak_per_smoothed_row(self):
        # Only the filtered moments are stored (48 + 72 B per row), in track
        # order, and the backward pass overwrites them in place; with the
        # measurements (25 B per row while the forward pass runs) the peak
        # measured 146 B per row. The PSD check runs in blocks of rows. A
        # packed copy reordered at the end measured 261 B, a stored copy of
        # the predicted moments as well near 370 B.
        raws = [raw_track(i + 1, i, 900 + 10 * i, ((50 + i, 60 + i), (400, 430)))
                for i in range(20)]
        rows = sum(len(raw.x) for raw in raws)
        tracemalloc.start()
        try:
            smooth_series(raws, cfg(), DT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * rows, peak / rows

    def test_no_tracks(self):
        assert smooth_series([], cfg(), DT) == []


def eigvalsh_worst(covs):
    """The smallest eigenvalue of each symmetric part, as the PSD check
    computed it before the certificate: ``eigvalsh`` on every row."""
    return np.linalg.eigvalsh((covs + covs.swapaxes(1, 2)) / 2.0).min(axis=1)


def near_boundary_covariances():
    """Symmetric matrices whose smallest eigenvalue lies at and around
    -PSD_TOLERANCE: well and badly scaled spectra, real filtered and
    smoothed covariances (the head ones carry the 1e8 and 1e6 prior
    variances) shifted onto the boundary, and both scaled like the prior."""
    rng = np.random.default_rng(3)
    ratios = (0.0, 0.5, 0.99, 1 - 1e-6, 1.0, 1 + 1e-6, 1.01, 2.0)
    covs = []
    for spectrum in ([1.0, 2.0], [1e-3, 1.0], [1e-6, 1e-3], [1e6, 1e8], [1e-3, 1e8]):
        for ratio in ratios:
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            covs.append(q @ np.diag([-ratio * PSD_TOLERANCE, *spectrum]) @ q.T)
    raw = raw_track(1, 0, 120, ((40, 52),))
    filtered = reference_smooth(raw, cfg(), DT).filtered_covs
    smoothed, = smooth_series([raw], cfg(), DT)
    for P in [*filtered[[0, 1, 2, 45, 119]], *smoothed.covariances[[0, 1, 45, 119]]]:
        lowest = eigvalsh_worst(P[None])[0]
        covs += [P - (lowest + ratio * PSD_TOLERANCE) * np.eye(3) for ratio in ratios]
    prior = np.diag([0.1, 1e4, 1e3])
    covs += [prior @ P @ prior for P in covs]
    return np.array(covs)


class TestPsdCertificate:
    def test_never_clears_what_eigvalsh_fails(self):
        covs = near_boundary_covariances()
        cleared = _cleared((covs + covs.swapaxes(1, 2)) / 2.0)
        worst = eigvalsh_worst(covs)
        assert (worst[cleared] >= -PSD_TOLERANCE).all()
        # the check decides as eigvalsh alone did, and names its eigenvalue
        got = _worst_eigenvalues(covs)
        fails = worst < -PSD_TOLERANCE
        assert np.array_equal(got < -PSD_TOLERANCE, fails)
        assert np.array_equal(got[fails], worst[fails])
        assert 0 < fails.sum() < len(covs)

    def test_random_symmetric_matrices(self):
        rng = np.random.default_rng(11)
        n = 4000
        q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)))
        spectra = 10.0 ** rng.uniform(-12, 9, size=(n, 3))
        spectra[:, 0] *= rng.choice([-1.0, 1.0], n)
        covs = q @ (spectra[:, :, None] * q.swapaxes(1, 2))
        covs *= 10.0 ** rng.uniform(-3, 3, size=(n, 1, 1))
        cleared = _cleared((covs + covs.swapaxes(1, 2)) / 2.0)
        assert (eigvalsh_worst(covs)[cleared] >= -PSD_TOLERANCE).all()
        assert cleared.sum() > n / 4

    def test_clears_the_covariances_of_a_run(self):
        # the filter's and the smoother's covariances, prior head included:
        # none of them needs eigvalsh
        raw = raw_track(2, 0, 300, ((100, 112),))
        filtered = reference_smooth(raw, cfg(), DT).filtered_covs
        smoothed, = smooth_series([raw], cfg(), DT)
        for covs in (filtered, smoothed.covariances):
            assert _cleared((covs + covs.swapaxes(1, 2)) / 2.0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_and_huge_rows_are_not_cleared(self):
        covs = np.stack([np.diag([1.0, 2.0, 3.0])] * 5)
        covs[0, 0, 1] = covs[0, 1, 0] = np.inf
        covs[1, 2, 2] = np.nan
        covs[2, 1, 1] = 1e304  # an initial_accel_sigma of 1e152, squared
        covs[3] *= 1e101
        assert _worst_eigenvalues(covs)[:2].tolist() == [-np.inf, -np.inf]
        with np.errstate(over="ignore", invalid="ignore"):
            sym = (covs + covs.swapaxes(1, 2)) / 2.0
        assert _cleared(sym).tolist() == [False, False, False, False, True]
