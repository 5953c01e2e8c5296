import json
import math

import numpy as np
import pytest

from hwtracks import (
    ContractViolation,
    DegenerateEpisode,
    InsufficientData,
    KinematicState,
    LaneChangeParams,
    ManeuverEpisode,
    ManeuverKind,
    Side,
    compute_surround,
    evaluate_model,
    extract_cut_ins,
    fit_episodes,
    fit_lane_change,
)
import hwtracks.lane_change as lane_change
from hwtracks.cli import main
from hwtracks.lane_change import (
    CutInSide,
    FitConfig,
    SHAPE_COEFFICIENTS,
    _SECTION_POINTS,
    _SeparableObjective,
    _section_search,
    _grid_minimum,
    _row_minima,
    _score,
    shape,
)
from hwtracks.surround import NO_VEHICLE, UNDEFINED
from conftest import cut_in_oracle, track_from_states

DT = 0.04


def params(d_start=1.8, d_end=1.7, v_start=30.0, v_end=31.0, T=5.0,
           side=Side.TO_LEFT):
    return LaneChangeParams(d_start=d_start, d_end=d_end, v_start=v_start,
                            v_end=v_end, duration=T, side=side)


class TestQuinticShape:
    def test_coefficients_from_boundary_conditions(self):
        # Derived oracle: the unique quintic q(s) = sum a_k s^k with
        # q(0)=0, q(1)=1, q'(0)=q'(1)=0, q''(0)=q''(1)=0. Solve the 6x6
        # linear system and confirm the closed-form coefficients.
        A = np.zeros((6, 6))
        b = np.zeros(6)
        powers = np.arange(6)
        A[0] = [s == 0 for s in range(6)]            # q(0) = 0
        A[1] = np.ones(6)                             # q(1) = 1
        b[1] = 1.0
        A[2] = [1 if k == 1 else 0 for k in range(6)]  # q'(0) = 0
        A[3] = powers                                  # q'(1) = 0
        A[4] = [2 if k == 2 else 0 for k in range(6)]  # q''(0) = 0
        A[5] = powers * (powers - 1)                   # q''(1) = 0
        coeffs = np.linalg.solve(A, b)
        assert coeffs[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
        assert coeffs[3:] == pytest.approx(SHAPE_COEFFICIENTS, abs=1e-12)

    def test_midpoint_value(self):
        c3, c4, c5 = SHAPE_COEFFICIENTS
        assert c3 * 0.5**3 + c4 * 0.5**4 + c5 * 0.5**5 == pytest.approx(0.5)

    def test_monotone_on_unit_interval(self):
        s = np.linspace(0, 1, 10001)
        q = shape(s)
        assert np.all(np.diff(q) >= -1e-15)


class TestEvaluateModel:
    def test_start_boundary(self):
        p = params()
        x, y, vx, vy, ax, ay = evaluate_model(p, 0.0)
        assert x == 0.0
        assert y == pytest.approx(-p.d_start)
        assert vx == pytest.approx(p.v_start)
        assert vy == pytest.approx(0.0, abs=1e-12)
        assert ay == pytest.approx(0.0, abs=1e-12)

    def test_end_boundary(self):
        p = params()
        _, y, vx, vy, _, ay = evaluate_model(p, p.duration)
        assert y == pytest.approx(p.d_end)
        assert vx == pytest.approx(p.v_end)
        assert abs(vy) < 1e-12
        assert abs(ay) < 1e-12

    def test_boundary_exactness_any_params(self):
        for p in (params(), params(d_start=0.4, d_end=3.0, T=12.0),
                  params(side=Side.TO_RIGHT, v_start=8.0, v_end=8.0)):
            for t in (0.0, p.duration):
                _, _, _, vy, _, ay = evaluate_model(p, t)
                assert abs(vy) < 1e-12 and abs(ay) < 1e-12

    def test_midpoint_symmetry(self):
        p = params(d_start=1.85, d_end=1.85)
        _, y, _, _, _, _ = evaluate_model(p, p.duration / 2)
        assert y == pytest.approx(0.0, abs=1e-12)  # exactly on the marking

    def test_longitudinal_quadratic(self):
        p = params(v_start=20.0, v_end=24.0, T=4.0)
        t = np.linspace(0, 4.0, 101)
        x, _, vx, _, ax, _ = evaluate_model(p, t)
        accel = (p.v_end - p.v_start) / p.duration
        assert np.allclose(ax, accel)
        assert np.allclose(x, 20.0 * t + accel / 2 * t**2)
        assert np.allclose(vx, 20.0 + accel * t)

    def test_lateral_monotone(self):
        p = params(side=Side.TO_RIGHT)
        t = np.linspace(0, p.duration, 2001)
        _, y, _, _, _, _ = evaluate_model(p, t)
        assert np.all(np.diff(y) <= 1e-12)  # toRight: y decreases

    def test_outside_window_rejected(self):
        p = params()
        with pytest.raises(ContractViolation):
            evaluate_model(p, -0.01)
        with pytest.raises(ContractViolation):
            evaluate_model(p, p.duration + 0.01)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            params(d_start=0.0)
        with pytest.raises(ValueError):
            params(T=-1.0)
        with pytest.raises(ValueError):
            params(v_start=0.0)


def synth_episode(p, t0=2.0, pad=1.0, marking_y=15.7, noise=0.0, rng=None,
                  x_offset=500.0):
    """Sampled episode trajectory: steady lead-in, model maneuver, lead-out."""
    n_pad = int(round(pad / DT))
    n_m = int(round(p.duration / DT))
    times = t0 - pad + DT * np.arange(n_pad + n_m + n_pad + 1)
    xs = np.empty_like(times)
    ys = np.empty_like(times)
    accel = (p.v_end - p.v_start) / p.duration
    for i, t in enumerate(times):
        u = t - t0
        if u < 0:
            x_rel = p.v_start * u
            y_rel = -p.side.y_sign * p.d_start
        elif u > p.duration:
            x_end = p.v_start * p.duration + accel / 2 * p.duration**2
            x_rel = x_end + p.v_end * (u - p.duration)
            y_rel = p.side.y_sign * p.d_end
        else:
            x_rel, y_rel, *_ = evaluate_model(p, u)
        xs[i] = x_offset + x_rel
        ys[i] = marking_y + y_rel
    if noise > 0:
        ys = ys + rng.normal(0, noise, len(ys))
    return times, xs, ys


def reference_objective(t, x, r, t0, T, weight):
    """Weighted SSE at one placement from two explicit least-squares solves."""
    u = t - t0
    q = shape(np.clip(u / T, 0.0, 1.0))
    phi1 = np.where(u < 0, u, np.where(u > T, T / 2, u - u * u / (2 * T)))
    phi2 = np.where(u < 0, 0.0, np.where(u > T, u - T / 2, u * u / (2 * T)))
    lateral = np.column_stack([1 - q, q])
    longitudinal = np.column_stack([np.ones_like(u), phi1, phi2])
    c_lat = np.linalg.lstsq(lateral, r, rcond=None)[0]
    c_lon = np.linalg.lstsq(longitudinal, x, rcond=None)[0]
    lat_res = r - lateral @ c_lat
    lon_res = x - longitudinal @ c_lon
    return lat_res @ lat_res + weight * (lon_res @ lon_res), c_lat, c_lon


class TestSeparableObjective:
    """The batched inner solve against per-placement least squares."""

    @pytest.fixture
    def episode(self):
        rng = np.random.default_rng(3)
        times, xs, ys = synth_episode(params(), noise=0.05, rng=rng)
        return np.asarray(times), np.asarray(xs), np.asarray(ys)

    def test_single_placement_matches_reference(self, episode):
        t, x, y = episode
        cfg = FitConfig()
        objective = _SeparableObjective(t, x, y, 15.7, cfg)
        for t0, T in ((1.0, 4.0), (2.0, 5.0), (3.5, 2.5)):
            value, lat_sse, lon_sse, lat_coeff, lon_coeff = objective(np.array([t0]), T)
            want, c_lat, c_lon = reference_objective(
                t, x, y - 15.7, t0, T, cfg.longitudinal_weight)
            assert value[0] == pytest.approx(want, rel=1e-9)
            assert value[0] == pytest.approx(lat_sse[0] + cfg.longitudinal_weight
                                             * lon_sse[0], rel=1e-12)
            assert tuple(lat_coeff[0]) == pytest.approx(tuple(c_lat), rel=1e-9)
            assert tuple(lon_coeff[0, 1:]) == pytest.approx(tuple(c_lon[1:]), rel=1e-9)

    def test_grid_rows_are_single_placements(self, episode):
        t, x, y = episode
        objective = _SeparableObjective(t, x, y, 15.7, FitConfig())
        grid = t[::7]
        rows = objective(grid, 5.0)
        for i, t0 in enumerate(grid):
            single = objective(np.array([t0]), 5.0)
            for column, one in zip(rows, single):
                assert column[i] == pytest.approx(one[0], rel=1e-12, abs=1e-12)

    def test_placement_after_the_samples_is_singular(self, episode):
        t, x, y = episode
        objective = _SeparableObjective(t, x, y, 15.7, FitConfig())
        assert objective(np.array([float(t[-1]) + 1.0]), 3.0)[0][0] == np.inf
        assert list(objective(t[-1] + np.array([1.0, 2.0]), 3.0)[0]) == [np.inf, np.inf]

    def test_rows_do_not_depend_on_the_batch(self, episode):
        # one batch of mixed durations, one T per placement, gives the bits
        # of one call per duration
        t, x, y = episode
        objective = _SeparableObjective(t, x, y, 15.7, FitConfig())
        durations = np.array([1.0, 3.5, 5.0, 14.5])
        rows = objective(np.tile(t, len(durations)), np.repeat(durations, len(t)))
        for k, T in enumerate(durations):
            alone = objective(t, float(T))
            for column, want in zip(rows, alone):
                assert np.array_equal(column[k * len(t):(k + 1) * len(t)], want)
        # rows of different episodes, stacked in one call per sample count,
        # give the bits of each episode scored alone
        rng = np.random.default_rng(8)
        cfg = FitConfig()
        episodes = [synth_episode(params(T=T), noise=0.05, rng=rng) for T in (5.0, 5.0, 4.0)]
        episodes[1] = (episodes[1][0] + 3.0, episodes[1][1] - 40.0, episodes[1][2] + 0.3)
        objectives = dict(enumerate(_SeparableObjective(t, x, y, 15.7, cfg)
                                    for t, x, y in episodes))
        assert len(objectives[0].t) == len(objectives[1].t) != len(objectives[2].t)
        requests = {i: (o.t[::5] - 0.5, np.linspace(1.0, 14.5, len(o.t[::5])))
                    for i, o in objectives.items()}
        stacked = _score(objectives, requests, cfg)
        for i, objective in objectives.items():
            for column, want in zip(stacked[i], objective(*requests[i])):
                assert np.array_equal(column, want)

    @pytest.mark.parametrize("T", [4.0, 5.0, 6.0])
    def test_noise_free_grid_is_never_negative(self, T):
        # a sum of squares is >= 0; a quadratic-form SSE went to -1.5e-9 here
        t, x, y = synth_episode(params(T=T))
        objective = _SeparableObjective(t, x, y, 15.7, FitConfig())
        for duration in np.arange(1.0, 15.25, 0.5):
            value, lat_sse, lon_sse, _, _ = objective(t, float(duration))
            assert np.all(value >= 0.0)
            assert np.all(lat_sse >= 0.0) and np.all(lon_sse >= 0.0)


def random_episode(rng):
    """A seeded random episode: noise up to 0.6 m, window cut at both ends."""
    p = params(d_start=rng.uniform(0.5, 3.0), d_end=rng.uniform(0.5, 3.0),
               v_start=rng.uniform(10.0, 40.0), v_end=rng.uniform(10.0, 40.0),
               T=rng.uniform(2.0, 8.0),
               side=Side.TO_LEFT if rng.random() < 0.5 else Side.TO_RIGHT)
    t, x, y = synth_episode(p, t0=rng.uniform(1.0, 4.0), pad=rng.uniform(0.2, 2.0),
                            noise=rng.uniform(0.0, 0.6), rng=rng)
    start = int(rng.integers(0, len(t) // 3))
    stop = len(t) - int(rng.integers(0, len(t) // 3))
    return t[start:stop], x[start:stop], y[start:stop]


def full_table_minimum(objective, cfg):
    """(objective, t0, T) of the minimum of the full table, every duration by
    every sample time; of equal objectives, the first duration, then the
    earliest t0."""
    durations = np.arange(cfg.duration_min, cfg.duration_max + cfg.duration_step / 2,
                          cfg.duration_step)
    table = np.array([objective(objective.t, float(T))[0] for T in durations])
    row, col = np.unravel_index(np.argmin(table), table.shape)
    return table[row, col], objective.t[col], durations[row]


def benchmark_scripts(name):
    """The synth scripts of a benchmark workload (seed 1) or of the 225k-row
    corpus of ``tools/corpus_225k.py``."""
    from perfbench.scenes import fleet_scripts, lanechange_script
    from tools.corpus_225k import script

    return {"lanechange-dense": lambda: [lanechange_script(1)],
            "fleet-8x60": lambda: fleet_scripts(1),
            "corpus-225k": lambda: [script()]}[name]()


class TestGridMinimum:
    """The coarse-to-fine grid against the full (duration x sample time) table."""

    @pytest.mark.parametrize("duration_step", [0.5, 0.7])
    def test_full_table_minimum_on_random_episodes(self, duration_step):
        cfg = FitConfig(duration_step=duration_step)
        rng = np.random.default_rng(int(duration_step * 10))
        for _ in range(200):
            t, x, y = random_episode(rng)
            objective = _SeparableObjective(t, x, y, 15.7, cfg)
            want = full_table_minimum(objective, cfg)
            # the same placement, and the tie rule: first duration, earliest t0
            assert _grid_minimum(objective, cfg) == want
            fit = fit_lane_change(t, x, y, 15.7, cfg)
            assert fit.objective_trace[0] == want[0]

    #: Evaluator calls (grid, refinement and final scoring) of ``extract`` on
    #: each input with the golden-section refinement that preceded the
    #: section search: a bound that a change may lower, not raise.
    EVALUATOR_CALLS = {"lanechange-dense": 295, "fleet-8x60": 676, "corpus-225k": 134}

    @pytest.mark.parametrize("name, fits", [
        ("lanechange-dense", 70), ("fleet-8x60", 32), ("corpus-225k", 5)])
    def test_full_table_minimum_on_benchmark_fits(self, name, fits, tmp_path, monkeypatch):
        # every fit that ``extract`` makes on the benchmark workloads and the
        # 225k-row corpus, after the same synth -> track -> extract chain,
        # and the number of evaluator calls it makes
        for index, script in enumerate(benchmark_scripts(name)):
            path = tmp_path / f"script{index}.json"
            path.write_text(json.dumps(script), encoding="utf-8")
            assert main(["synth", "--script", str(path), "--output",
                         str(tmp_path / "synth")]) == 0
        assert main(["track", "--input", str(tmp_path / "synth" / "detections"),
                     "--output", str(tmp_path / "rec"), "--jobs", "1"]) == 0
        checked = []
        counted = []
        evaluate = _SeparableObjective.__call__

        def counting(objective, t0, T):
            counted.append(len(t0))
            return evaluate(objective, t0, T)

        def grid_minimum(objective, cfg):
            got = _grid_minimum(objective, cfg)
            before = len(counted)
            assert got == full_table_minimum(objective, cfg)
            del counted[before:]  # the test's own calls
            checked.append(got)
            return got

        monkeypatch.setattr(_SeparableObjective, "__call__", counting)
        monkeypatch.setattr(lane_change, "_grid_minimum", grid_minimum)
        assert main(["extract", "--input", str(tmp_path / "rec"),
                     "--output", str(tmp_path / "ext"), "--jobs", "1"]) == 0
        assert len(checked) == fits
        assert len(counted) <= self.EVALUATOR_CALLS[name]

    def test_stride_wider_than_the_episode(self):
        # a 13 s duration step makes the stride 81 samples, longer than the
        # 60-sample episode: one coarse t0 per duration, and the fine pass
        # scores every sample time
        cfg = FitConfig(duration_step=13.0)
        t, x, y = (column[:60] for column in synth_episode(params()))
        objective = _SeparableObjective(t, x, y, 15.7, cfg)
        durations = np.array([1.0, 14.0])
        table = np.array([objective(t, float(T))[0] for T in durations])
        row, col = np.unravel_index(np.argmin(table), table.shape)
        assert _grid_minimum(objective, cfg) == (table[row, col], t[col], durations[row])


class TestRowMinima:
    """The pruned coarse pass against the whole objective table."""

    @staticmethod
    def unpruned(objective, t0, T):
        table = objective(t0.ravel(), T.ravel())[0].reshape(t0.shape)
        columns = np.argmin(table, axis=1)
        return table[np.arange(len(table)), columns], columns

    @pytest.mark.parametrize("weight", [0.0, 0.1, 5.0])
    def test_coarse_pass_on_random_episodes(self, weight):
        cfg = FitConfig(longitudinal_weight=weight)
        rng = np.random.default_rng(int(weight * 10) + 1)
        durations = np.arange(1.0, 15.25, 0.5)
        for _ in range(60):
            t, x, y = random_episode(rng)
            objective = _SeparableObjective(t, x, y, 15.7, cfg)
            t0 = np.tile(t[::3], (len(durations), 1))
            T = np.repeat(durations[:, None], t0.shape[1], axis=1)
            got = _row_minima(objective, t0, T, 3)
            want = self.unpruned(objective, t0, T)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_singular_rows(self):
        # row 0 lies after the samples, singular at every placement; row 1's
        # lateral argmin (only the last sample inside the maneuver, a perfect
        # lateral fit) is longitudinally singular, so its bound rules nothing
        # out; row 2 is regular
        t = np.arange(20) * 0.04
        x = 500.0 + 30.0 * t
        y = np.zeros(20)
        y[-1] = 1.0
        objective = _SeparableObjective(t, x, y, 0.0, FitConfig())
        t0 = np.array([t[-1] + np.arange(1.0, 6.0),
                       [t[-1] - 1e-6, t[2], t[8], t[12], t[15]],
                       t[[0, 4, 8, 12, 16]]])
        T = np.array([[3.0] * 5, [5.0] * 5, [0.5] * 5])
        lateral_sse, _, lateral_valid = objective.lateral(t0[1], T[1])
        assert np.argmin(lateral_sse) == 0 and lateral_valid[0]
        assert not objective.longitudinal(t0[1], T[1])[2][0]
        values, columns = _row_minima(objective, t0, T, 2)
        assert values[0] == math.inf and columns[0] == 0
        assert columns[1] != 0
        want = self.unpruned(objective, t0, T)
        assert np.array_equal(values, want[0]) and np.array_equal(columns, want[1])


def section_search(f, lo, hi, tol, budget):
    """``_section_search`` of ``f``, which scores an array of points: its
    result and the batches of points it requested, in order."""
    batches = []
    search = _section_search(lo, hi, tol, budget,
                             lambda points: batches.append(points) or f(points))
    try:
        values = next(search)
        while True:
            values = search.send(values)
    except StopIteration as stop:
        return stop.value, batches


def rounds_to_tolerance(width, tol):
    """Section-search rounds that narrow a bracket of ``width`` to ``tol``
    when every round's best point is interior: each keeps 2 of the 10
    intervals between its scored points, and there is at least one."""
    rounds = 1
    width *= 2 / (_SECTION_POINTS - 1)
    while width > tol:
        width *= 2 / (_SECTION_POINTS - 1)
        rounds += 1
    return rounds


class TestSectionSearch:
    @pytest.mark.parametrize("tol", [1e-3, 1e-2, 0.1])
    def test_quadratic_minimum_within_tolerance(self, tol):
        rng = np.random.default_rng(int(1 / tol))
        for _ in range(50):
            lo = rng.uniform(-1.0, 0.5)
            hi = lo + rng.uniform(0.01, 2.0)
            centre, scale = rng.uniform(lo, hi), rng.uniform(0.1, 10.0)
            (argmin, fmin, rounds, hit), _ = section_search(
                lambda x: scale * (x - centre) ** 2, lo, hi, tol, 200)
            assert abs(argmin - centre) <= tol
            assert fmin == scale * (argmin - centre) ** 2
            assert not hit and rounds <= rounds_to_tolerance(hi - lo, tol)

    @pytest.mark.parametrize("kind", ["quadratic", "multimodal"])
    def test_batches_score_each_point_once(self, kind):
        # the first batch is the whole bracket; a later one leaves out the
        # points kept from the round before: its two ends, and its centre
        # too when the best point was not an end
        rng = np.random.default_rng(len(kind))
        for _ in range(20):
            a, b = rng.uniform(0.0, 1.0), rng.uniform(0.1, 10.0)
            if kind == "quadratic":
                def f(x):
                    return b * (x - a) ** 2
            else:
                def f(x):
                    return np.sin(5.0 + 35.0 * a * x + b) + 0.3 * x * x
            (argmin, _, rounds, _), batches = section_search(f, 0.0, 1.0, 1e-3, 200)
            assert len(batches) == rounds
            assert len(batches[0]) == _SECTION_POINTS
            points = np.concatenate(batches)
            assert len(set(points.tolist())) == len(points)
            assert argmin in points
            scored = batches[0]
            for batch in batches[1:]:
                best = int(np.argmin(f(scored)))
                end = best in (0, _SECTION_POINTS - 1)
                assert len(batch) == _SECTION_POINTS - (2 if end else 3)
                left = scored[max(best - 1, 0)]
                right = scored[min(best + 1, _SECTION_POINTS - 1)]
                kept = [left, right] if end else [left, scored[best], right]
                scored = np.sort(np.concatenate([batch, kept]))
                assert np.diff(scored) == pytest.approx(
                    np.full(_SECTION_POINTS - 1, (right - left) / (_SECTION_POINTS - 1)))

    def test_constant_resolves_to_the_lower_end(self):
        # every round ties, the first point wins, and the bracket shrinks to
        # its first interval, a tenth of its width: 1 -> 0.1 -> 0.01 -> 0.001
        (argmin, fmin, rounds, hit), batches = section_search(
            lambda x: np.zeros(len(x)), -0.3, 0.7, 2e-3, 200)
        assert (argmin, fmin, hit) == (-0.3, 0.0, False)
        assert rounds == 3 == len(batches)
        assert [len(b) for b in batches] == [_SECTION_POINTS] + [_SECTION_POINTS - 2] * 2

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_budget_stops_the_search(self, budget):
        (argmin, fmin, rounds, hit), batches = section_search(
            lambda x: (x - 0.123456789) ** 2, 0.0, 1.0, 1e-12, budget)
        assert rounds == budget == len(batches) and hit
        assert fmin == min(float(np.min((b - 0.123456789) ** 2)) for b in batches)


class TestFitEpisodes:
    def test_lockstep_equals_fitting_alone(self, monkeypatch):
        # mixed sample counts, several episodes of each, plus members that
        # raise InsufficientData and DegenerateEpisode
        rng = np.random.default_rng(12)
        episodes = []
        for length in (60, 75, 60, 90, 75, 60, 120, 90):
            t, x, y = random_episode(rng)
            while len(t) < length:
                t, x, y = random_episode(rng)
            episodes.append((t[:length], x[:length], y[:length], 15.7))
        straight = np.arange(0, 2.4, DT)
        episodes.insert(2, (straight, 500 + 30 * straight, np.full_like(straight, 14.5), 15.7))
        episodes.insert(5, (straight[:5], straight[:5], straight[:5], 15.7))
        for budget in (200, 7):
            monkeypatch.setattr(lane_change, "_MAX_REFINE_ROUNDS", budget)
            got = fit_episodes(episodes)
            alone = [fit_episodes([episode])[0] for episode in episodes]
            assert [repr(g) for g in got] == [repr(a) for a in alone]
            assert isinstance(got[2], DegenerateEpisode)
            assert isinstance(got[5], InsufficientData)
            assert {type(g).__name__ for g in got} == {
                "LaneChangeFitResult", "DegenerateEpisode", "InsufficientData"}

    def test_contract_violation_is_raised(self):
        t, x, y = synth_episode(params())
        with pytest.raises(ContractViolation):
            fit_episodes([(t, x, y, 15.7), (t, x[:-1], y, 15.7)])


class TestFitContract:
    @pytest.mark.parametrize("min_samples", [-1, 0, 1, 2])
    def test_min_samples_below_three_rejected(self, min_samples):
        # an empty episode under min_samples=0 crashed in numpy's argmin
        with pytest.raises(ValueError, match="min_samples must be >= 3"):
            FitConfig(min_samples=min_samples)

    def test_empty_episode_is_insufficient(self):
        with pytest.raises(InsufficientData):
            fit_lane_change([], [], [], marking_y=0.0, cfg=FitConfig(min_samples=3))

    @pytest.mark.parametrize("fault", ["repeated", "decreasing", "nan", "inf"])
    def test_times_must_be_finite_and_increasing(self, fault):
        t, x, y = synth_episode(params())
        i = len(t) // 2
        t[i] = {"repeated": t[i - 1], "decreasing": t[i - 1] - 0.01,
                "nan": math.nan, "inf": math.inf}[fault]
        with pytest.raises(ContractViolation, match="finite and strictly increasing"):
            fit_lane_change(t, x, y, marking_y=15.7)

    @pytest.mark.parametrize("column", ["xs", "ys"])
    def test_positions_need_one_value_per_time(self, column):
        # one sample short used to raise numpy's bare vecdot ValueError
        t, x, y = synth_episode(params())
        x, y = (x[:-1], y) if column == "xs" else (x, y[:-1])
        with pytest.raises(ContractViolation, match="one value per time"):
            fit_lane_change(t, x, y, marking_y=15.7)

    @pytest.mark.parametrize("fault", ["nan x", "inf x", "nan y", "-inf y", "nan marking"])
    def test_positions_must_be_finite(self, fault):
        # a NaN x used to end as DegenerateEpisode or as LaneChangeParams'
        # "v_start must be positive, got nan", depending on the data
        t, x, y = synth_episode(params())
        marking_y = 15.7
        value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[fault.split()[0]]
        if fault.endswith("x"):
            x[5] = value
        elif fault.endswith("y"):
            y[5] = value
        else:
            marking_y = value
        with pytest.raises(ContractViolation, match="must be finite"):
            fit_lane_change(t, x, y, marking_y)

    @pytest.mark.parametrize("weight", [-1.0, -1e-300, math.nan])
    def test_negative_longitudinal_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="longitudinal_weight"):
            FitConfig(longitudinal_weight=weight)

    def test_zero_longitudinal_weight_is_valid(self):
        t, x, y = synth_episode(params())
        fit = fit_lane_change(t, x, y, 15.7, FitConfig(longitudinal_weight=0.0))
        assert fit.params.duration == pytest.approx(5.0, abs=1e-3)


class TestFitLaneChange:
    def test_zero_noise_round_trip(self):
        p = params(d_start=1.8, d_end=1.7, v_start=30.0, v_end=31.0, T=5.0)
        times, xs, ys = synth_episode(p)
        fit = fit_lane_change(times, xs, ys, marking_y=15.7)
        assert fit.converged
        assert fit.params.d_start == pytest.approx(1.8, abs=1e-3)
        assert fit.params.d_end == pytest.approx(1.7, abs=1e-3)
        assert fit.params.v_start == pytest.approx(30.0, abs=1e-3)
        assert fit.params.v_end == pytest.approx(31.0, abs=1e-3)
        assert fit.params.duration == pytest.approx(5.0, abs=1e-3)
        assert fit.t0 == pytest.approx(2.0, abs=1e-3)
        assert fit.params.side is Side.TO_LEFT
        assert fit.lateral_rmse < 1e-6
        assert fit.longitudinal_rmse < 1e-5

    @pytest.mark.parametrize("seed", range(10))
    def test_noisy_recovery(self, seed):
        rng = np.random.default_rng(seed)
        p = params(d_start=1.9, d_end=1.6, v_start=28.0, v_end=26.5, T=6.0)
        times, xs, ys = synth_episode(p, t0=3.0, pad=1.5, noise=0.05, rng=rng)
        fit = fit_lane_change(times, xs, ys, marking_y=15.7)
        assert fit.params.d_start == pytest.approx(p.d_start, rel=0.05)
        assert fit.params.d_end == pytest.approx(p.d_end, rel=0.05)
        assert fit.params.v_start == pytest.approx(p.v_start, rel=0.05)
        assert fit.params.v_end == pytest.approx(p.v_end, rel=0.05)
        assert abs(fit.params.duration - p.duration) <= 0.2

    def test_straight_line_is_degenerate(self):
        times = np.arange(0, 8, DT)
        xs = 500 + 30 * times
        ys = np.full_like(times, 14.5)
        with pytest.raises(DegenerateEpisode):
            fit_lane_change(times, xs, ys, marking_y=15.7)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_lane_change([0.0, 0.04], [0.0, 1.0], [0.0, 0.0], marking_y=0.0)

    def test_objective_never_increases_through_refinement(self):
        rng = np.random.default_rng(17)
        p = params()
        times, xs, ys = synth_episode(p, noise=0.05, rng=rng)
        fit = fit_lane_change(times, xs, ys, marking_y=15.7)
        trace = fit.objective_trace
        assert len(trace) >= 1
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    # the budget is searches * R + extra, with R the rounds of one search
    @pytest.mark.parametrize("searches, extra, passes, converged", [
        (0, 0, 1, False),   # no round: the grid placement
        (0, 1, 1, False),   # cut in the first pass's midpoint search
        (1, -1, 1, False),
        (2, 0, 2, False),   # one whole pass; the second cannot start
        (3, 1, 3, False),   # cut in the second pass's duration search
        (4, 0, 3, True),    # two whole passes, the second moves < tolerance
    ], ids=["0", "1", "R-1", "2R", "3R+1", "4R"])
    def test_refinement_budget(self, searches, extra, passes, converged, monkeypatch):
        # _MAX_REFINE_ROUNDS counts section-search rounds. Away from the
        # limits a search brackets its coordinate within duration_step, and
        # on this episode every best point is interior, so each search takes
        # `rounds` rounds. An exhausted budget stops the search mid-pass: a
        # pass is traced once both its searches ran, and the fit is not
        # converged
        cfg = FitConfig()
        rounds = rounds_to_tolerance(2 * cfg.duration_step, cfg.refine_tolerance)
        budget = searches * rounds + extra
        times, xs, ys = synth_episode(params(), noise=0.05, rng=np.random.default_rng(3))
        with monkeypatch.context() as patch:
            patch.setattr(lane_change, "_MAX_REFINE_ROUNDS", budget)
            fit = fit_lane_change(times, xs, ys, marking_y=15.7)
        assert (fit.iterations, fit.converged, len(fit.objective_trace)) == (
            budget, converged, passes)
        grid_objective, grid_t0, grid_T = _grid_minimum(
            _SeparableObjective(times, xs, ys, 15.7, cfg), cfg)
        assert fit.objective_trace[0] == grid_objective >= fit.objective
        full = fit_lane_change(times, xs, ys, marking_y=15.7)
        assert (full.iterations, full.converged, len(full.objective_trace)) == (
            4 * rounds, True, 3)
        if searches == 0 or extra < 0:
            # the duration is never searched, and the midpoint within
            # duration_step of the grid's
            assert fit.params.duration == grid_T
            assert abs(fit.t0 + grid_T / 2 - (grid_t0 + grid_T / 2)) <= cfg.duration_step
            if budget == 0:
                assert fit.t0 == grid_t0
        else:
            # after one whole pass, the next moves neither coordinate by the
            # tolerance
            assert abs(fit.t0 - full.t0) < cfg.refine_tolerance
            assert abs(fit.params.duration - full.params.duration) < cfg.refine_tolerance

    def test_pass_cap_is_not_converged(self):
        # a random window whose refinement runs all 8 passes with rounds to
        # spare and an amplitude above min_amplitude: the last pass still
        # moved a coordinate, so the fit is not converged
        cfg = FitConfig()
        t, x, y = random_episode(np.random.default_rng(0))
        fit = fit_lane_change(t, x, y, 15.7, cfg)
        assert len(fit.objective_trace) == 1 + 8
        assert fit.iterations < lane_change._MAX_REFINE_ROUNDS
        assert fit.params.d_start + fit.params.d_end >= cfg.min_amplitude
        assert not fit.converged

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(23)
        p = params(side=Side.TO_LEFT)
        times, xs, ys = synth_episode(p, marking_y=0.0, noise=0.03, rng=rng)
        fit_left = fit_lane_change(times, xs, ys, marking_y=0.0)
        fit_right = fit_lane_change(times, xs, -ys, marking_y=0.0)
        assert fit_left.params.side is Side.TO_LEFT
        assert fit_right.params.side is Side.TO_RIGHT
        assert fit_right.params.d_start == pytest.approx(fit_left.params.d_start,
                                                         abs=1e-9)
        assert fit_right.params.d_end == pytest.approx(fit_left.params.d_end,
                                                       abs=1e-9)
        assert fit_right.lateral_rmse == pytest.approx(fit_left.lateral_rmse,
                                                       abs=1e-9)

    def test_small_amplitude_not_converged(self):
        # wobble below min_amplitude around the marking, valid but tiny
        times = np.arange(0, 8, DT)
        xs = 100 + 20 * times
        s = np.clip((times - 2.0) / 4.0, 0, 1)
        ys = 15.7 + (-0.02 + 0.04 * shape(s))  # amplitude 0.04 m
        try:
            fit = fit_lane_change(times, xs, ys, marking_y=15.7)
            assert not fit.converged
            assert fit.params.d_start + fit.params.d_end < 0.1
        except DegenerateEpisode:
            pass  # also acceptable for a degenerate input


def lane_switch_track(track_id, switch_frame, n, x0, speed, y_from, y_to,
                      lane_from, lane_to, length=5.0):
    states = []
    for f in range(n):
        before = f < switch_frame
        states.append(
            KinematicState(
                frame=f,
                x=x0 + speed * f * DT,
                y=y_from if before else y_to,
                vx=speed,
                vy=0.0,
                ax=0.0,
                ay=0.0,
                lane_id=lane_from if before else lane_to,
            )
        )
    return track_from_states(states, track_id=track_id, length=length, mean_speed=speed)


class TestExtractCutIns:
    def test_empty_new_lane_no_scenario(self, meta):
        changer = lane_switch_track(1, 50, 100, 100.0, 25.0, 13.85, 17.55, 1, 2)
        surround = compute_surround([changer], meta)
        episode = ManeuverEpisode(
            track_id=1, kind=ManeuverKind.LANE_CHANGE, start_frame=30,
            end_frame=80, from_lane=1, to_lane=2, crossing_frame=50,
            complete=True,
        )
        assert extract_cut_ins([episode], [changer], surround) == []

    def test_entry_thw_hand_computed(self, meta):
        # tailing vehicle 40 m behind the crossing point at 20 m/s, both
        # vehicles 5 m long: entry_thw = (40 - 5) / 20 = 1.75 s.
        crossing = 50
        changer = lane_switch_track(1, crossing, 100, 100.0, 25.0,
                                    13.85, 17.55, 1, 2, length=5.0)
        x_cross = 100.0 + 25.0 * crossing * DT
        tail_x0 = (x_cross - 40.0) - 20.0 * crossing * DT
        tail = lane_switch_track(2, 100, 100, tail_x0, 20.0, 17.55, 17.55,
                                 2, 2, length=5.0)
        surround = compute_surround([changer, tail], meta)
        episode = ManeuverEpisode(
            track_id=1, kind=ManeuverKind.LANE_CHANGE, start_frame=30,
            end_frame=80, from_lane=1, to_lane=2, crossing_frame=crossing,
            complete=True,
        )
        [scenario] = extract_cut_ins([episode], [changer, tail], surround)
        assert scenario.tailing_id == 2
        assert scenario.entry_thw == pytest.approx((40.0 - 5.0) / 20.0)
        assert scenario.tail_speed_at_entry == pytest.approx(20.0)
        assert scenario.preceding_id == NO_VEHICLE
        assert scenario.gap_size == UNDEFINED
        # lane 1 is to the right of lane 2 for a lower-carriageway driver
        assert scenario.side is CutInSide.FROM_RIGHT

    def test_randomized_scenes_match_frame_scan_oracle(self, meta):
        rng = np.random.default_rng(31)
        for _ in range(15):
            crossing = int(rng.integers(30, 70))
            n = 120
            speed_c = float(rng.uniform(20, 32))
            changer = lane_switch_track(1, crossing, n, 100.0, speed_c,
                                        13.85, 17.55, 1, 2,
                                        length=float(rng.uniform(4, 6)))
            tracks = [changer]
            for tid in range(2, int(rng.integers(3, 6))):
                speed = float(rng.uniform(18, 30))
                x0 = float(rng.uniform(-150, 250))
                lane = int(rng.integers(1, 3))
                y = 13.85 if lane == 1 else 17.55
                tracks.append(
                    lane_switch_track(tid, n, n, x0, speed, y, y, lane, lane,
                                      length=float(rng.uniform(4, 12)))
                )
            episode = ManeuverEpisode(
                track_id=1, kind=ManeuverKind.LANE_CHANGE,
                start_frame=max(crossing - 25, 0),
                end_frame=min(crossing + 25, n - 1),
                from_lane=1, to_lane=2, crossing_frame=crossing, complete=True,
            )
            surround = compute_surround(tracks, meta)
            got = extract_cut_ins([episode], tracks, surround)
            want = cut_in_oracle(episode, tracks, meta)
            if want is None:
                assert got == []
                continue
            [scenario] = got
            for name in ("tailing_id", "preceding_id", "crossing_frame", "side"):
                assert getattr(scenario, name) == want[name], name
            for name in ("entry_thw", "tail_speed_at_entry", "min_dhw",
                         "min_thw", "min_ttc", "gap_size"):
                assert getattr(scenario, name) == pytest.approx(want[name]), name
