import math

import pytest

from hwtracks import (
    ContractViolation,
    Detection,
    TrackerConfig,
    VehicleClass,
    associate_frame,
    build_tracks,
    read_detections,
    write_detections,
)
from hwtracks.tracking import RawTrack


def det(frame, cx, cy, length=4.5, width=2.0, hint=None):
    return Detection(frame=frame, cx=cx, cy=cy, length=length, width=width,
                     class_hint=hint)


def seeded_track(track_id, positions):
    """RawTrack that has already observed the given (frame, x, y) sequence."""
    frames = iter(positions)
    first = next(frames)
    track = RawTrack(track_id, det(*first))
    for frame, x, y in frames:
        track.add_measurement(det(frame, x, y))
    return track


class TestAssociateFrame:
    def test_detection_inside_gate_matches(self):
        track = seeded_track(1, [(0, 99.0, 4.0), (1, 99.5, 4.0)])
        # predicted position at frame 2 is (100, 4)
        assert track.predicted_position() == (100.0, 4.0)
        a = associate_frame([track], [det(2, 100.4, 4.0)], TrackerConfig())
        assert a.matches == ((0, 0),)

    def test_detection_outside_gate_spawns(self):
        track = seeded_track(1, [(0, 99.0, 4.0), (1, 99.5, 4.0)])
        a = associate_frame([track], [det(2, 103.0, 4.0)], TrackerConfig())
        assert a.matches == ()
        assert a.unmatched_tracks == (0,)
        assert a.unmatched_detections == (0,)

    def test_nearest_track_wins(self):
        # Two single-observation tracks predict at their positions.
        t1 = seeded_track(1, [(0, 100.0, 4.0)])
        t2 = seeded_track(2, [(0, 101.0, 4.0)])
        detection = det(1, 100.4, 4.0)
        a = associate_frame([t1, t2], [detection], TrackerConfig())

        # Oracle: enumerate every one-to-at-most-one assignment and replay
        # the greedy rule by hand - the feasible pair with the smallest
        # distance must be chosen.
        def dist(track):
            px, py = track.predicted_position()
            return math.hypot(detection.cx - px, detection.cy - py)

        candidates = [
            (dist(t), t.track_id, ti) for ti, t in enumerate([t1, t2])
            if dist(t) <= 2.5
        ]
        expected_ti = min(candidates)[2]
        assert a.matches == ((expected_ti, 0),)

    def test_greedy_order_is_distance_then_ids(self):
        # One track equidistant to two detections: lower detection index wins.
        t = seeded_track(1, [(0, 100.0, 4.0)])
        a = associate_frame([t], [det(1, 100.5, 4.0), det(1, 99.5, 4.0)],
                            TrackerConfig())
        assert a.matches == ((0, 0),)
        assert a.unmatched_detections == (1,)

    def test_frame_skew_is_contract_violation(self):
        t = seeded_track(1, [(0, 100.0, 4.0)])
        with pytest.raises(ContractViolation):
            associate_frame([t], [det(5, 100.0, 4.0)], TrackerConfig())
        with pytest.raises(ContractViolation):
            associate_frame([], [det(1, 0.0, 0.0), det(2, 1.0, 1.0)],
                            TrackerConfig())


def constant_velocity_frames(n, x0=0.0, y=4.0, v=1.0, drop=(), hint=None):
    frames = []
    for f in range(n):
        frames.append([] if f in drop else [det(f, x0 + v * f, y, hint=hint)])
    return frames


class TestBuildTracks:
    def test_confirmation_filter_drops_short_tracks(self):
        frames = [[det(0, 10.0, 4.0)], [det(1, 11.0, 4.0)], [], [], [], [], [],
                  [], [], [], [], [], [], [], []]
        cfg = TrackerConfig(min_hits_to_confirm=5)
        assert build_tracks(frames, cfg) == []

    def test_coasting_fills_gap_on_the_line(self):
        cfg = TrackerConfig(max_coast=12)
        frames = constant_velocity_frames(30, drop={10, 11, 12})
        tracks = build_tracks(frames, cfg)
        assert len(tracks) == 1
        track = tracks[0]
        assert [o.frame for o in track.observations] == list(range(30))
        for obs in track.observations:
            measured_expected = obs.frame not in (10, 11, 12)
            assert obs.measured == measured_expected
            # analytic constant-velocity fill: x = frame * 1.0
            assert obs.x == pytest.approx(obs.frame * 1.0, abs=1e-9)
            assert obs.y == pytest.approx(4.0, abs=1e-12)

    def test_track_terminates_after_max_coast(self):
        cfg = TrackerConfig(max_coast=3, min_hits_to_confirm=2)
        frames = constant_velocity_frames(20, drop=set(range(8, 20)))
        tracks = build_tracks(frames, cfg)
        assert len(tracks) == 1
        # terminated at the last measured frame, predicted tail trimmed
        assert tracks[0].observations[-1].frame == 7
        assert all(o.measured for o in tracks[0].observations)

    def test_two_parallel_vehicles_no_identity_switch(self):
        frames = []
        for f in range(100):
            frames.append(
                [det(f, 0.0 + f * 1.2, 4.0), det(f, 20.0 + f * 1.2, 4.0)]
            )
        tracks = build_tracks(frames, TrackerConfig())
        assert len(tracks) == 2
        # Oracle: brute-force bookkeeping - every frame, each track's
        # measured position must equal its own vehicle's ground truth.
        starts = {t.observations[0].x: t for t in tracks}
        assert set(starts) == {0.0, 20.0}
        for x0, track in starts.items():
            for obs in track.observations:
                assert obs.x == pytest.approx(x0 + obs.frame * 1.2)

    def test_single_frame_false_positives_removed(self):
        frames = constant_velocity_frames(40)
        frames[7].append(det(7, 200.0, 4.0))
        frames[23].append(det(23, 150.0, 6.5))
        tracks = build_tracks(frames, TrackerConfig())
        assert len(tracks) == 1
        assert tracks[0].observations[0].x == 0.0

    def test_no_detection_shared_between_tracks(self):
        # Two vehicles converging but separated beyond the gate.
        frames = []
        for f in range(60):
            frames.append([det(f, f * 1.0, 4.0), det(f, 200 - f * 1.0, 4.0)])
        tracks = build_tracks(frames, TrackerConfig())
        seen = set()
        for t in tracks:
            for obs in t.observations:
                if obs.measured:
                    key = (obs.frame, obs.x, obs.y)
                    assert key not in seen
                    seen.add(key)

    def test_min_hits_respected(self):
        frames = constant_velocity_frames(30)
        for cfg_hits in (1, 5, 10):
            tracks = build_tracks(frames, TrackerConfig(min_hits_to_confirm=cfg_hits))
            for t in tracks:
                assert t.measured_count >= cfg_hits

    def test_determinism(self):
        frames = constant_velocity_frames(50, drop={11, 12})
        frames[5].append(det(5, 300.0, 2.0))
        a = build_tracks(frames, TrackerConfig())
        b = build_tracks(frames, TrackerConfig())
        assert [(t.track_id, [(o.frame, o.x, o.y, o.measured) for o in t.observations])
                for t in a] == [
            (t.track_id, [(o.frame, o.x, o.y, o.measured) for o in t.observations])
            for t in b
        ]

    def test_class_majority_vote(self):
        frames = []
        for f in range(10):
            hint = VehicleClass.TRUCK if f % 3 else VehicleClass.CAR
            frames.append([det(f, f * 1.0, 4.0, length=12.0, width=2.5, hint=hint)])
        tracks = build_tracks(frames, TrackerConfig())
        assert tracks[0].decide_class() is VehicleClass.TRUCK

    def test_class_tie_goes_to_car(self):
        track = seeded_track(1, [(0, 0.0, 0.0)])
        track.class_votes.clear()
        track.class_votes[VehicleClass.CAR] = 2
        track.class_votes[VehicleClass.TRUCK] = 2
        assert track.decide_class() is VehicleClass.CAR

    def test_extent_is_running_median(self):
        frames = []
        lengths = [4.0, 4.2, 4.4, 12.0, 4.1]
        for f, L in enumerate(lengths):
            frames.append([det(f, f * 1.0, 4.0, length=L)])
        tracks = build_tracks(frames, TrackerConfig(min_hits_to_confirm=3))
        length, width = tracks[0].extent()
        assert length == pytest.approx(4.2)  # median robust to the 12.0 outlier


class TestDetectionsCsv:
    def test_round_trip(self, tmp_path):
        frames = constant_velocity_frames(5, hint=VehicleClass.CAR)
        frames[2] = []  # empty frame must survive
        path = tmp_path / "01_detections.csv"
        write_detections(frames, path)
        back = read_detections(path, max_frame=4)
        assert len(back) == 5
        assert back[2] == []
        assert back[0][0].cx == 0.0
        assert back[0][0].class_hint is VehicleClass.CAR

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,x,y\n0,1,2\n")
        from hwtracks import DatasetError

        with pytest.raises(DatasetError):
            read_detections(path, max_frame=100)

    def test_bad_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,cx,cy,length,width,class\n0,oops,2,4,2,Car\n")
        from hwtracks import DatasetError

        with pytest.raises(DatasetError) as err:
            read_detections(path, max_frame=100)
        assert err.value.issue.row == 1

    @pytest.mark.parametrize("frame", [5000, -3])
    def test_frame_outside_recording_names_location(self, tmp_path, frame):
        # a frame past the recording's end is rejected before any per-frame
        # list is allocated for it
        path = tmp_path / "01_detections.csv"
        path.write_text("frame,cx,cy,length,width,class\n"
                        f"0,1,2,4,2,Car\n1,1,2,4,2,Car\n{frame},1,2,4,2,Car\n")
        from hwtracks import DatasetError

        with pytest.raises(DatasetError) as err:
            read_detections(path, max_frame=750)
        issue = err.value.issue
        assert (issue.kind, issue.row, issue.column) == ("InvariantViolation", 3, "frame")
        assert issue.file == str(path)

    @pytest.mark.parametrize("row, kind, column", [
        ("0,oops,2,4,2,Car", "TypeMismatch", "cx"),
        ("0,1,inf,4,2,Car", "TypeMismatch", "cy"),
        ("0,1,2,4,2,Bus", "TypeMismatch", "class"),
        ("0,1,2,0,2,Car", "TypeMismatch", "length"),
        ("0,1,2,4,-2,", "TypeMismatch", "width"),
        ("1.5,1,2,4,2,Car", "TypeMismatch", "frame"),
        (f"{10**20},1,2,4,2,Car", "TypeMismatch", "frame"),
    ])
    def test_bad_cell_names_column(self, tmp_path, row, kind, column):
        path = tmp_path / "01_detections.csv"
        path.write_text(f"frame,cx,cy,length,width,class\n0,1,2,4,2,Car\n{row}\n")
        from hwtracks import DatasetError

        with pytest.raises(DatasetError) as err:
            read_detections(path, max_frame=100)
        issue = err.value.issue
        assert (issue.kind, issue.row, issue.column) == (kind, 2, column)

    def test_missing_file_is_a_dataset_error(self, tmp_path):
        from hwtracks import DatasetError

        with pytest.raises(DatasetError) as err:
            read_detections(tmp_path / "01_detections.csv", max_frame=100)
        assert err.value.issue.kind == "MissingFile"

    def test_frame_bound_is_exact_beyond_float_precision(self, tmp_path):
        path = tmp_path / "01_detections.csv"
        path.write_text("frame,cx,cy,length,width,class\n"
                        "1152920000000000001,1,2,4,2,Car\n")
        from hwtracks import DatasetError

        with pytest.raises(DatasetError) as err:
            read_detections(path, max_frame=1.15292e18)
        issue = err.value.issue
        assert (issue.kind, issue.row, issue.column) == ("InvariantViolation", 1, "frame")

    def test_last_frame_of_recording_accepted(self, tmp_path):
        path = tmp_path / "01_detections.csv"
        path.write_text("frame,cx,cy,length,width,class\n0,1,2,4,2,Car\n750,1,2,4,2,Car\n")
        assert len(read_detections(path, max_frame=750)) == 751
