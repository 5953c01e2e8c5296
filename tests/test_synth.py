import bisect
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hwtracks import (
    DrivingDirection,
    LaneChangeParams,
    ManeuverConfig,
    NoiseSpec,
    ScenarioScript,
    ScriptError,
    ScriptedLaneChange,
    Side,
    SmootherConfig,
    SpeedSegment,
    Track,
    TrackerConfig,
    VehicleClass,
    VehicleSpec,
    build_tracks,
    corrupt,
    evaluate_model,
    generate_truth,
    load_script,
    smooth_track,
)
from hwtracks.lane_change import CutInScenario
from hwtracks.synth import _validate_no_overlap, script_from_dict
from conftest import ROOT, cut_in_oracle, row_at, settle_extents_oracle, straight_track


def car(**kwargs):
    defaults = dict(
        vehicle_class=VehicleClass.CAR,
        direction=DrivingDirection.LOWER,
        entry_lane=1,
        initial_speed=25.0,
    )
    defaults.update(kwargs)
    return VehicleSpec(**defaults)


def dense_lane_change_script():
    """Two carriageways of three lanes, 93 s. On each, a 28 m/s platoon of
    short-lived vehicles in lane 3 and, half a headway behind each member, a
    lane-2 vehicle that changes into the gap ahead of the next member. The
    lane changers drive 1.5 m/s slower, as fast or faster than the platoon,
    so the gap to the tailing vehicle closes, holds or opens."""
    vehicles = []
    headway, lifetime, speed = 2.4, 8.0, 28.0
    for direction, entry_x in (("lower", 0.0), ("upper", 420.0)):
        t, k = 0.0, 0
        while t + headway / 2 + lifetime < 93.0:
            entry = round(t + headway / 2, 2)
            for lane, start, v, lane_changes in (
                (3, round(t, 2), speed, []),
                (2, entry, speed + 1.5 * (k % 3 - 1),
                 [{"start_time": round(entry + 2.0, 2), "duration": 3.5, "to_lane": 3}]),
            ):
                vehicles.append({
                    "direction": direction, "entry_lane": lane, "entry_time": start,
                    "exit_time": round(start + lifetime, 2), "entry_x": entry_x,
                    "initial_speed": v, "lane_changes": lane_changes,
                })
            t, k = t + headway, k + 1
    return {
        "seed": 1, "duration": 93.0, "road_length": 420.0,
        "upper_lane_boundaries": [0.0, 3.7, 7.4, 11.1],
        "lower_lane_boundaries": [16.0, 19.7, 23.4, 27.1],
        "vehicles": vehicles,
    }


def overlap_scene(rng):
    """8 random one-lane-wide boxes over a few frames, x and y on coarse
    grids, few extents and a start shared by about a third of them, so that
    boxes that touch exactly and boxes at the same centre are common; the
    ids come in random order."""
    tracks = []
    shared = 0.25 * rng.integers(0, 1600)
    for track_id in rng.permutation(np.arange(1, 9)).tolist():
        n = int(rng.integers(1, 25))
        x0 = shared if rng.random() < 0.3 else 0.25 * rng.integers(0, 1600)
        tracks.append(Track(
            track_id=track_id, vehicle_class=VehicleClass.CAR,
            direction=DrivingDirection.LOWER, length=float(rng.choice([4.0, 4.5, 12.0])),
            width=float(rng.choice([1.75, 2.0])), mean_speed=1.0,
            initial_frame=int(rng.integers(0, 8)),
            x=np.cumsum(rng.choice([0.0, 0.25, 0.5], n)) + x0,
            y=np.full(n, 1.75 * rng.integers(0, 5)), vx=np.zeros(n), vy=np.zeros(n),
            ax=np.zeros(n), ay=np.zeros(n), lane=np.ones(n, np.int64)))
    return tracks


def overlap_loop(tracks):
    """The message of the first overlap that the per-frame pair loop, which
    the vectorised check replaced, raises; None where it raises none."""
    max_length = max(t.length for t in tracks)
    present = {}
    for t in tracks:
        for frame, x, y in zip(t.frames.tolist(), t.x.tolist(), t.y.tolist()):
            present.setdefault(frame, []).append((x, y, t.length, t.width, t.track_id))
    for frame in sorted(present):
        boxes = sorted(present[frame])
        for i, (x1, y1, l1, w1, id1) in enumerate(boxes):
            for x2, y2, l2, w2, id2 in boxes[i + 1:]:
                if x2 - x1 >= (l1 + max_length) / 2.0:
                    break
                if x2 - x1 < (l1 + l2) / 2.0 and abs(y2 - y1) < (w1 + w2) / 2.0:
                    return f"vehicles {id1} and {id2} overlap at frame {frame}"
    return None


class TestGenerateTruth:
    def test_constant_speed_spacing(self):
        script = ScenarioScript(seed=1, duration=10.0, vehicles=(car(),))
        truth = generate_truth(script)
        [track] = truth.tracks
        assert track.num_frames == 250
        xs = track.x.tolist()
        diffs = {round(b - a, 9) for a, b in zip(xs, xs[1:])}
        assert diffs == {1.0}  # 25 m/s at 25 Hz

    def test_scripted_lane_change_truth(self):
        script = ScenarioScript(
            seed=1, duration=20.0,
            vehicles=(car(entry_x=50.0, lane_changes=(
                ScriptedLaneChange(start_time=6.0, duration=5.0, to_lane=2),
            )),),
        )
        truth = generate_truth(script)
        assert len(truth.lane_changes) == 1
        lc = truth.lane_changes[0]
        assert (lc.from_lane, lc.to_lane) == (1, 2)
        assert lc.params.d_start == pytest.approx(1.85)
        assert lc.params.d_end == pytest.approx(1.85)
        assert lc.params.v_start == pytest.approx(25.0)
        assert lc.params.duration == 5.0
        assert lc.complete is True
        assert lc.t0 == 6.0
        # crossing where the trajectory passes the marking
        track = truth.tracks[0]
        state = row_at(track, lc.crossing_frame)
        previous = row_at(track, lc.crossing_frame - 1)
        assert state.lane_id == 2 and previous.lane_id == 1

    def test_speed_profile_segments(self):
        script = ScenarioScript(
            seed=1, duration=12.0,
            vehicles=(car(initial_speed=20.0, speed_segments=(
                SpeedSegment(duration=4.0, acceleration=1.0),
                SpeedSegment(duration=4.0, acceleration=0.0),
                SpeedSegment(duration=4.0, acceleration=-0.5),
            )),),
        )
        [track] = generate_truth(script).tracks
        vx = track.vx
        assert vx[0] == pytest.approx(20.0)
        assert vx[100] == pytest.approx(24.0)   # after 4 s at +1
        assert vx[200] == pytest.approx(24.0)   # constant segment
        # decelerating over the last 99 steps (frames 200..299)
        assert vx[-1] == pytest.approx(24.0 - 0.5 * (99 * 0.04))

    def test_overlap_is_script_error(self):
        script = ScenarioScript(
            seed=1, duration=10.0,
            vehicles=(
                car(entry_x=0.0, initial_speed=30.0),
                car(entry_x=30.0, initial_speed=10.0),  # gets rear-ended
            ),
        )
        with pytest.raises(ScriptError) as err:
            generate_truth(script)
        assert "overlap" in str(err.value)

    def test_overlap_at_the_rounding_edge_of_the_window(self):
        # 30.788 + 8.25 rounds down to B's centre, so the candidate window's
        # computed bound equals it, while B lies 8.249999999999996 m ahead:
        # less than the 8.25 m of half the summed lengths
        a, b = (Track(track_id=i, vehicle_class=VehicleClass.CAR,
                      direction=DrivingDirection.LOWER, length=length, width=2.0,
                      mean_speed=1.0, initial_frame=0, x=[x], y=[13.85], vx=[0.0],
                      vy=[0.0], ax=[0.0], ay=[0.0], lane=[1])
                for i, x, length in ((1, 30.788, 4.5), (2, 30.788 + 8.25, 12.0)))
        assert overlap_loop([a, b]) == "vehicles 1 and 2 overlap at frame 0"
        with pytest.raises(ScriptError, match="^vehicles 1 and 2 overlap at frame 0$"):
            _validate_no_overlap([a, b])

    def test_overlap_check_matches_the_pair_loop(self):
        outcomes = []
        for seed in range(200):
            tracks = overlap_scene(np.random.default_rng(seed))
            want = overlap_loop(tracks)
            outcomes.append(want is not None)
            if want is None:
                _validate_no_overlap(tracks)
            else:
                with pytest.raises(ScriptError, match=f"^{want}$"):
                    _validate_no_overlap(tracks)
        assert 50 < sum(outcomes) < 150, sum(outcomes)

    def test_accel_change_inside_maneuver_rejected(self):
        script = ScenarioScript(
            seed=1, duration=20.0,
            vehicles=(car(
                speed_segments=(SpeedSegment(duration=8.0, acceleration=0.5),),
                lane_changes=(
                    ScriptedLaneChange(start_time=6.0, duration=5.0, to_lane=2),
                ),
            ),),
        )
        with pytest.raises(ScriptError):
            generate_truth(script)

    def test_nonadjacent_lane_rejected(self):
        script = ScenarioScript(
            seed=1, duration=20.0,
            upper_lane_boundaries=(0.0, 3.7, 7.4, 11.1),
            upper_speed_limits=None,
            vehicles=(car(
                direction=DrivingDirection.UPPER, entry_x=400.0,
                lane_changes=(
                    ScriptedLaneChange(start_time=5.0, duration=4.0, to_lane=3),
                ),
            ),),
        )
        with pytest.raises(ScriptError):
            generate_truth(script)

    def test_truncated_lane_change_incomplete(self):
        # the marking is crossed at t = 8.5 s; the window ends at 9.5 s,
        # well before the lateral settle at 11 s
        script = ScenarioScript(
            seed=1, duration=9.5,
            vehicles=(car(entry_x=50.0, lane_changes=(
                ScriptedLaneChange(start_time=6.0, duration=5.0, to_lane=2),
            )),),
        )
        truth = generate_truth(script)
        [lc] = truth.lane_changes
        assert lc.complete is False
        assert lc.end_frame == truth.tracks[0].final_frame

    def test_cut_in_truth(self):
        script = ScenarioScript(
            seed=1, duration=20.0,
            vehicles=(
                car(entry_x=100.0, initial_speed=30.0, lane_changes=(
                    ScriptedLaneChange(start_time=5.0, duration=4.0, to_lane=2),
                )),
                car(entry_x=0.0, entry_lane=2, initial_speed=25.0),
            ),
        )
        truth = generate_truth(script)
        assert len(truth.cut_ins) == 1
        cut = truth.cut_ins[0]
        assert cut.track_id == 1
        assert cut.tailing_id == 2
        assert cut.entry_thw > 0
        # lower carriageway, from lane 1 to 2: the changer comes from the
        # tailing driver's right
        assert cut.side.value == "fromRight"

    def test_cut_ins_match_frame_scan_oracle(self):
        # The truth cut-ins come from the pipeline's extract_cut_ins; the
        # oracle rescans every frame of every episode without the surround.
        truth = generate_truth(script_from_dict(dense_lane_change_script()))
        want = [
            CutInScenario(track_id=episode.track_id, **fields)
            for episode in truth.episodes
            for fields in [cut_in_oracle(episode, truth.tracks, truth.meta)]
            if fields is not None
        ]
        assert len(truth.episodes) == 70 and len(want) == 68
        assert list(truth.cut_ins) == want

    def test_lane_changes_match_frame_scan_oracle(self):
        # The truth crossings come from the script; the oracle rescans each
        # truth track's vy from them for the settle points and the splits.
        truth = generate_truth(script_from_dict(dense_lane_change_script()))
        by_id = {track.track_id: track for track in truth.tracks}
        settle = ManeuverConfig().lateral_settle_speed
        for track_id in sorted({lc.track_id for lc in truth.lane_changes}):
            track = by_id[track_id]
            first = track.initial_frame
            mine = [lc for lc in truth.lane_changes if lc.track_id == track_id]
            want = settle_extents_oracle(
                track.vy.tolist(), [lc.crossing_frame - first for lc in mine], settle)
            got = [(lc.start_frame - first, lc.end_frame - first, lc.complete)
                   for lc in mine]
            assert got == want, f"track {track_id}"
        assert len(truth.lane_changes) == 70

    def test_mean_speed_matches_definition(self):
        script = ScenarioScript(
            seed=1, duration=10.0,
            vehicles=(car(direction=DrivingDirection.UPPER, entry_x=400.0),),
        )
        [track] = generate_truth(script).tracks
        assert track.mean_speed == pytest.approx(25.0)

    def test_columns_match_frame_stepping(self):
        # two vehicles, each with speed segments; the lower one changes lane
        # twice, the second maneuver starting on the frame the first ends
        script = ScenarioScript(
            seed=1, duration=20.0,
            vehicles=(
                car(entry_time=1.0, entry_x=20.0, initial_speed=22.0, speed_segments=(
                    SpeedSegment(duration=3.0, acceleration=0.8),
                    SpeedSegment(duration=11.0, acceleration=0.0),
                    SpeedSegment(duration=4.0, acceleration=-0.6),
                ), lane_changes=(
                    ScriptedLaneChange(start_time=5.0, duration=4.0, to_lane=2),
                    ScriptedLaneChange(start_time=9.0, duration=3.5, to_lane=1),
                )),
                car(direction=DrivingDirection.UPPER, entry_lane=2, entry_x=400.0,
                    exit_time=17.0, speed_segments=(
                        SpeedSegment(duration=6.0, acceleration=-0.5),
                        SpeedSegment(duration=10.0, acceleration=0.3),
                    ), lane_changes=(
                        ScriptedLaneChange(start_time=7.0, duration=5.0, to_lane=1),
                    )),
            ),
        )
        truth = generate_truth(script)
        assert len(truth.lane_changes) == 3
        for spec, track in zip(script.vehicles, truth.tracks):
            lane_changes = [lc for lc in truth.lane_changes
                            if lc.track_id == track.track_id]
            want = stepped_reference(script, spec, lane_changes)
            for column in ("x", "vx", "ax", "vy", "ay", "lane"):
                np.testing.assert_array_equal(getattr(track, column), want[column],
                                              err_msg=column)
            # the quintic's s**3 over an array is not libm pow in the last bit
            np.testing.assert_array_max_ulp(track.y, want["y"], maxulp=4)

    def test_off_road_names_first_frame(self):
        # lane 1 -> 2 of the lower carriageway (marking 15.7), ending 5 m past
        # the marking: beyond the carriageway edge at 19.4
        script = ScenarioScript(
            seed=1, duration=12.0,
            vehicles=(car(lane_changes=(
                ScriptedLaneChange(start_time=2.0, duration=4.0, to_lane=2, d_end=5.0),
            )),),
        )
        params = LaneChangeParams(d_start=1.85, d_end=5.0, v_start=25.0, v_end=25.0,
                                  duration=4.0, side=Side.TO_LEFT)
        frame = next(f for f in range(50, 150)
                     if 15.7 + evaluate_model(params, f / 25.0 - 2.0)[1] >= 19.4)
        with pytest.raises(ScriptError, match=rf"vehicles\[0\]: off-road at frame {frame} "
                                              r"\(y=19\.4"):
            generate_truth(script)


def stepped_reference(script, spec, lane_changes):
    """The frame-by-frame stepping that the truth columns replace: speed and
    x from per-frame increments, the lateral offset with one model
    evaluation per maneuver frame, the lane by bisection."""
    fps = script.frame_rate
    dt = 1.0 / fps
    first = int(round(spec.entry_time * fps))
    exit_time = script.duration if spec.exit_time is None else spec.exit_time
    n = int(round(exit_time * fps)) - first
    accel = np.zeros(n)
    cursor = 0
    for seg in spec.speed_segments:
        frames = int(round(seg.duration * fps))
        accel[cursor : cursor + frames] = seg.acceleration
        cursor += frames
    speed = np.empty(n)
    speed[0] = spec.initial_speed
    for i in range(1, n):
        speed[i] = speed[i - 1] + accel[i - 1] * dt
    sign = spec.direction.travel_sign
    x = np.empty(n)
    x[0] = spec.entry_x
    for i in range(1, n):
        x[i] = x[i - 1] + sign * (speed[i - 1] * dt + accel[i - 1] * dt * dt / 2.0)

    boundaries = script.meta().boundaries(spec.direction)
    settled = (boundaries[spec.entry_lane - 1] + boundaries[spec.entry_lane]) / 2.0
    y, vy, ay, lane = [], [], [], []
    m = 0
    for i in range(n):
        t = (first + i) * dt
        while m < len(lane_changes) and t > lane_changes[m].t0 + lane_changes[m].params.duration:
            p = lane_changes[m].params
            settled = lane_changes[m].marking_y + p.side.y_sign * p.d_end
            m += 1
        if m < len(lane_changes) and t >= lane_changes[m].t0:
            lc = lane_changes[m]
            tau = min(t - lc.t0, lc.params.duration)
            _, y_rel, _, vy_i, _, ay_i = evaluate_model(lc.params, tau)
            y.append(lc.marking_y + y_rel)
            vy.append(vy_i)
            ay.append(ay_i)
        else:
            y.append(settled)
            vy.append(0.0)
            ay.append(0.0)
        lane.append(bisect.bisect_right(boundaries, y[-1]))
    return {"x": x, "vx": sign * speed, "ax": sign * accel, "y": np.array(y),
            "vy": np.array(vy), "ay": np.array(ay), "lane": np.array(lane)}


def per_frame(table, truth):
    """The (cx, cy, length) rows of each frame from 0 to the truth's last,
    checking that the table has no rows outside them."""
    n_frames = max(t.final_frame for t in truth.tracks) + 1
    bounds = np.searchsorted(table.frame, np.arange(n_frames + 1)).tolist()
    assert bounds[-1] == len(table)
    rows = list(zip(table.cx.tolist(), table.cy.tolist(), table.length.tolist()))
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def columns(table):
    return (table.frame.tolist(), table.cx.tolist(), table.cy.tolist(),
            table.length.tolist(), table.width.tolist(), table.class_hint)


class TestCorrupt:
    def two_vehicle_truth(self):
        script = ScenarioScript(
            seed=3, duration=10.0,
            vehicles=(car(entry_x=0.0), car(entry_x=60.0, entry_lane=2)),
        )
        return generate_truth(script)

    def test_identity_corruption(self):
        truth = self.two_vehicle_truth()
        table = corrupt(truth.tracks, NoiseSpec(), seed=1, meta=truth.meta)
        frames = per_frame(table, truth)
        assert len(frames) == 250
        for f, dets in enumerate(frames):
            assert len(dets) == 2
            for (cx, cy, length), track in zip(sorted(dets, key=lambda d: d[1]),
                                               truth.tracks):
                state = row_at(track, f)
                assert cx == state.x and cy == state.y
                assert length == track.length
        assert set(table.class_hint) == {VehicleClass.CAR}

    def test_full_dropout(self):
        truth = self.two_vehicle_truth()
        table = corrupt(truth.tracks, NoiseSpec(dropout_probability=1.0),
                        seed=1, meta=truth.meta)
        assert len(table) == 0

    def test_noise_sigma_statistics(self):
        script = ScenarioScript(
            seed=3, duration=100.0,
            vehicles=(car(entry_x=0.0), car(entry_x=60.0, entry_lane=2)),
        )
        truth = generate_truth(script)
        sigma = 0.10
        frames = per_frame(corrupt(truth.tracks, NoiseSpec(position_sigma=sigma),
                                   seed=7, meta=truth.meta), truth)
        offsets = []
        # lanes stay well separated, so pairing by y is unambiguous
        for f, dets in enumerate(frames):
            for (cx, cy, _), track in zip(sorted(dets, key=lambda d: d[1]),
                                          truth.tracks):
                state = row_at(track, f)
                offsets.extend([cx - state.x, cy - state.y])
        offsets = np.asarray(offsets)
        assert len(offsets) >= 10_000
        assert np.std(offsets) == pytest.approx(sigma, rel=0.03)

    def test_dropout_burst_length(self):
        script = ScenarioScript(seed=5, duration=40.0, vehicles=(car(),))
        truth = generate_truth(script)
        burst = 4
        frames = per_frame(corrupt(
            truth.tracks,
            NoiseSpec(dropout_probability=0.02, dropout_burst_length=burst),
            seed=11, meta=truth.meta,
        ), truth)
        missing = [f for f, dets in enumerate(frames) if not dets]
        assert missing, "expected some dropouts"
        runs = []
        run = 1
        for a, b in zip(missing, missing[1:]):
            if b == a + 1:
                run += 1
            else:
                runs.append(run)
                run = 1
        runs.append(run)
        # bursts are multiples of the burst length unless they merge/clip
        assert max(runs) >= burst

    def test_scripted_dropout_windows(self):
        script = ScenarioScript(
            seed=5, duration=4.0,
            vehicles=(car(dropout_windows=((10, 12),)),),
        )
        truth = generate_truth(script)
        frames = per_frame(corrupt(
            truth.tracks, NoiseSpec(), seed=1, meta=truth.meta,
            scripted_dropouts=truth.scripted_dropouts,
        ), truth)
        for f in range(len(frames)):
            assert bool(frames[f]) == (f not in (10, 11, 12))

    def test_false_positive_rate(self):
        script = ScenarioScript(seed=5, duration=100.0, vehicles=(car(),))
        truth = generate_truth(script)
        rate = 0.5
        frames = per_frame(corrupt(
            truth.tracks, NoiseSpec(false_positive_rate=rate), seed=13,
            meta=truth.meta, road_length=420.0,
        ), truth)
        n_fp = sum(len(dets) - 1 for dets in frames)
        expected = rate * len(frames)
        assert n_fp == pytest.approx(expected, rel=0.1)

    def test_determinism(self):
        truth = self.two_vehicle_truth()
        spec = NoiseSpec(position_sigma=0.1, dropout_probability=0.05,
                         false_positive_rate=0.2)
        a = columns(corrupt(truth.tracks, spec, seed=99, meta=truth.meta))
        b = columns(corrupt(truth.tracks, spec, seed=99, meta=truth.meta))
        assert a == b
        c = columns(corrupt(truth.tracks, spec, seed=100, meta=truth.meta))
        assert a != c

    def test_rows_match_the_row_loop_on_the_vehicle_stream(self):
        # The vehicle's stream: one uniform per truth row, then one normal
        # pair per truth row. Row by row, a scripted row is dropped and
        # counts for no burst; any other row continues a running burst, or
        # starts one when its uniform is below the dropout probability, or
        # is kept with its pair added.
        track = straight_track(track_id=6, first_frame=5, n_frames=3000)
        windows = ((0, 2), (4, 9), (40, 60), (61, 61), (900, 1200), (3004, 4000))
        spec = NoiseSpec(position_sigma=0.1, dropout_probability=0.05,
                         dropout_burst_length=4)
        table = corrupt([track], spec, seed=3, scripted_dropouts={6: windows})
        rng = np.random.default_rng(np.random.SeedSequence(3, spawn_key=(1, 6)))
        u = rng.random(3000)
        pairs = rng.normal(0.0, 0.1, (3000, 2))
        kept, left = [], 0
        for i, frame in enumerate(track.frames.tolist()):
            if any(a <= frame <= b for a, b in windows):
                continue
            if left > 0:
                left -= 1
            elif u[i] < spec.dropout_probability:
                left = spec.dropout_burst_length - 1
            else:
                kept.append(i)
        assert table.frame.tolist() == (track.frames[kept]).tolist()
        assert table.cx.tolist() == (track.x[kept] + pairs[kept, 0]).tolist()
        assert table.cy.tolist() == (track.y[kept] + pairs[kept, 1]).tolist()

    def test_removing_a_vehicle_leaves_the_other_rows(self):
        # Each vehicle has its own length, so its rows are the rows of that
        # length; false positives are 4.5 m long. Vehicle 2 leaves before
        # the others, so the false positives cover the same frames.
        script = ScenarioScript(seed=4, duration=20.0, vehicles=(
            car(entry_x=0.0, length=4.0),
            car(entry_x=60.0, entry_lane=2, length=5.0, entry_time=2.0, exit_time=15.0,
                dropout_windows=((100, 140),)),
            car(direction=DrivingDirection.UPPER, entry_x=420.0, length=6.0),
        ))
        truth = generate_truth(script)
        spec = NoiseSpec(position_sigma=0.1, dropout_probability=0.05,
                         dropout_burst_length=3, false_positive_rate=0.3)
        kwargs = dict(seed=8, meta=truth.meta, scripted_dropouts=truth.scripted_dropouts)
        full = corrupt(truth.tracks, spec, **kwargs)
        rest = corrupt(truth.tracks[::2], spec, **kwargs)
        others = full.length != 5.0
        assert 0 < others.sum() < len(full) and (full.length == 4.5).any()
        for name in ("frame", "cx", "cy", "length", "width"):
            assert getattr(full, name)[others].tobytes() == getattr(rest, name).tobytes()
        assert [h for h, o in zip(full.class_hint, others) if o] == list(rest.class_hint)
        assert columns(corrupt(truth.tracks[::-1], spec, **kwargs)) == columns(full)

    def test_identical_vehicles_get_different_noise(self):
        tracks = [straight_track(track_id=track_id, n_frames=100) for track_id in (3, 4)]
        table = corrupt(tracks, NoiseSpec(position_sigma=0.1), seed=1)
        assert len(table) == 200
        # per frame, vehicle 3's row and then vehicle 4's
        assert (table.cx[0::2] != table.cx[1::2]).all()
        assert (table.cy[0::2] != table.cy[1::2]).all()

    def test_repeated_track_id_is_an_error(self):
        tracks = [straight_track(track_id=2), straight_track(track_id=2, y=17.55, lane_id=2)]
        with pytest.raises(ValueError, match="track id 2 is repeated"):
            corrupt(tracks, NoiseSpec(), seed=1)

    def test_traced_peak_per_truth_row(self):
        # 48,000 rows of 200 vehicles passing through, 20 at a time. The
        # detections take 56 B per row (five columns, the class hints and
        # the table's tuple of them), the keep masks 1 B per truth row, and
        # each vehicle's draws live only while its rows are written, so the
        # peak measured 63.7 B per truth row; the bound leaves 10 % slack.
        # Four sorted copies of every row held at once measured 92 B.
        tracks = [straight_track(track_id=i + 1, first_frame=12 * i, n_frames=240,
                                 y=13.85 + 3.7 * (i % 2), lane_id=i % 2 + 1)
                  for i in range(200)]
        spec = NoiseSpec(position_sigma=0.1, dropout_probability=0.01,
                         dropout_burst_length=3)
        corrupt(tracks[:2], spec, seed=1)  # numpy's lazy imports happen untraced
        tracemalloc.start()
        try:
            corrupt(tracks, spec, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 70 * 48000, peak / 48000


@pytest.mark.parametrize("field", ["position_sigma", "false_positive_rate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
def test_noise_magnitude_must_be_finite_and_non_negative(field, value):
    with pytest.raises(ValueError, match=f"noise.{field} must be finite and >= 0"):
        NoiseSpec(**{field: value})


class TestPipelineClosure:
    def test_zero_noise_closure(self, meta):
        # one constant-velocity vehicle, one with a single constant
        # acceleration over its whole life: both lie exactly inside the
        # smoother's motion-model class, so the closure is near-exact
        script = ScenarioScript(
            seed=2, duration=20.0,
            vehicles=(
                car(entry_x=0.0, initial_speed=30.0, speed_segments=(
                    SpeedSegment(duration=20.0, acceleration=0.4),
                )),
                car(entry_x=80.0, entry_lane=2, initial_speed=22.0),
            ),
        )
        truth = generate_truth(script)
        detections = corrupt(truth.tracks, NoiseSpec(), seed=1, meta=truth.meta)
        raw = build_tracks(detections, TrackerConfig())
        assert len(raw) == len(truth.tracks)
        cfg = SmootherConfig()
        for raw_track, want in zip(raw, truth.tracks):
            got = smooth_track(raw_track, cfg, truth.meta)
            for a, b in zip(got.states[10:], want.states[10:]):
                assert abs(a.x - b.x) < 1e-6
                assert abs(a.y - b.y) < 1e-6
                assert abs(a.vx - b.vx) < 1e-5
                assert abs(a.vy - b.vy) < 1e-5


class TestScriptFiles:
    def script_dict(self):
        return {
            "seed": 7,
            "duration": 12.0,
            "vehicles": [
                {
                    "direction": "lower",
                    "entry_lane": 1,
                    "initial_speed": 28.0,
                    "lane_changes": [
                        {"start_time": 4.0, "duration": 5.0, "to_lane": 2}
                    ],
                },
                {"direction": "upper", "entry_lane": 2, "entry_x": 400.0},
            ],
            "noise": {"position_sigma": 0.1},
        }

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(self.script_dict()))
        script = load_script(path)
        assert script.seed == 7
        assert len(script.vehicles) == 2
        assert script.vehicles[0].lane_changes[0].to_lane == 2
        assert script.noise.position_sigma == 0.1
        generate_truth(script)  # must be a valid scene

    def test_missing_key_is_script_error(self):
        data = self.script_dict()
        del data["vehicles"][0]["entry_lane"]
        with pytest.raises(ScriptError) as err:
            script_from_dict(data)
        assert "entry_lane" in str(err.value)

    def test_bad_direction_is_script_error(self):
        data = self.script_dict()
        data["vehicles"][0]["direction"] = "sideways"
        with pytest.raises(ScriptError):
            script_from_dict(data)

    def test_invalid_json_is_script_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScriptError):
            load_script(path)

    def test_integer_beyond_the_digit_limit_is_script_error(self, tmp_path):
        # json cannot turn an integer literal of more than 4,300 digits into an int
        path = tmp_path / "big.json"
        path.write_text('{"seed": ' + "9" * 5000 + ', "duration": 10.0}')
        with pytest.raises(ScriptError, match=f"^{re.escape(str(path))}: invalid JSON .*4300"):
            load_script(path)


def assert_reads(data):
    # the reader rejects unknown keys, so a stray key would fail synth
    script = script_from_dict(json.loads(json.dumps(data)))
    assert (script.seed, len(script.vehicles)) == (data["seed"], len(data["vehicles"]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_benchmark_script_reads(seed):
    from perfbench.scenes import fleet_scripts, lanechange_script

    for data in [lanechange_script(seed), *fleet_scripts(seed)]:
        assert_reads(data)


def test_the_corpus_demo_and_readme_scripts_read():
    from tools.corpus_225k import script

    assert_reads(script())
    assert_reads(json.loads((ROOT / "demos" / "demo_scene.json").read_text()))
    readme = (ROOT / "README.md").read_text()
    block = readme[readme.index("```json\n{\n  \"seed\""):].split("\n", 1)[1]
    assert_reads(json.loads(block[:block.index("```")]))
