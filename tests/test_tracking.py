import math
import statistics
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hwtracks import (
    TrackerConfig,
    VehicleClass,
    associate_frame,
    build_tracks,
    read_detections,
    write_detections,
)
from conftest import (
    ARABIC_INDIC_DIGITS,
    FULLWIDTH_DIGITS,
    det,
    detection_table,
    insert_line,
    set_cell,
)


def predict(positions):
    """Constant-velocity prediction from a track's (x, y) positions."""
    if len(positions) == 1:
        return positions[0]
    (x0, y0), (x1, y1) = positions[-2:]
    return 2 * x1 - x0, 2 * y1 - y0


def associate(tracks, detections, gate=2.5):
    """``associate_frame`` of (track id, predicted centre) pairs and (cx, cy)
    detection centres."""
    return associate_frame([p for _, p in tracks], [i for i, _ in tracks],
                           [cx for cx, _ in detections], [cy for _, cy in detections], gate)


def brute_force_matches(tracks, detections, gate):
    """Reference matcher: scores every (track, detection) pair with
    math.hypot and claims feasible pairs in (distance, track_id, detection
    index) order."""
    candidates = []
    for ti, (track_id, (px, py)) in enumerate(tracks):
        for di, (cx, cy) in enumerate(detections):
            dist = math.hypot(cx - px, cy - py)
            if dist <= gate:
                candidates.append((dist, track_id, di, ti))
    candidates.sort()
    matches = []
    used_tracks = set()
    used_detections = set()
    for _, _, di, ti in candidates:
        if ti in used_tracks or di in used_detections:
            continue
        used_tracks.add(ti)
        used_detections.add(di)
        matches.append((ti, di))
    return matches


def positions(track):
    """The track's (frame, x, y, measured) rows."""
    return list(zip(range(track.first_frame, track.first_frame + len(track.x)),
                    track.x.tolist(), track.y.tolist(), track.measured.tolist()))


class TestAssociateFrame:
    def test_detection_inside_gate_matches(self):
        predicted = predict([(99.0, 4.0), (99.5, 4.0)])
        assert predicted == (100.0, 4.0)
        assert associate([(1, predicted)], [(100.4, 4.0)]) == [(0, 0)]

    def test_detection_outside_gate_spawns(self):
        assert associate([(1, predict([(99.0, 4.0), (99.5, 4.0)]))], [(103.0, 4.0)]) == []
        rows = [det(f, 99.0 + 0.5 * f, 4.0) for f in range(8)] + [det(2, 103.0, 4.0)]
        tracks = build_tracks(detection_table(rows), TrackerConfig(min_hits_to_confirm=1))
        assert [(t.track_id, t.first_frame, t.x[0]) for t in tracks] == [
            (1, 0, 99.0), (2, 2, 103.0)]

    def test_nearest_track_wins(self):
        # Two single-observation tracks predict at their positions.
        tracks = [(1, predict([(100.0, 4.0)])), (2, predict([(101.0, 4.0)]))]
        detection = (100.4, 4.0)
        got = associate(tracks, [detection])

        # Oracle: replay the greedy rule by hand - the feasible pair with
        # the smallest distance must be chosen.
        def dist(predicted):
            return math.hypot(detection[0] - predicted[0], detection[1] - predicted[1])

        candidates = [(dist(p), track_id, ti) for ti, (track_id, p) in enumerate(tracks)
                      if dist(p) <= 2.5]
        assert got == [(min(candidates)[2], 0)]

    def test_greedy_order_is_distance_then_ids(self):
        # One track equidistant to two detections: lower detection index wins.
        assert associate([(1, (100.0, 4.0))], [(100.5, 4.0), (99.5, 4.0)]) == [(0, 0)]
        # Two tracks equidistant to one detection: lower track id wins.
        assert associate([(9, (99.5, 4.0)), (3, (100.5, 4.0))], [(100.0, 4.0)]) == [(1, 0)]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("grid", [0.5, None])
    def test_matches_brute_force_on_dense_frames(self, seed, grid):
        # Tracks and detections crowd a 20 m x 8 m patch, so most of them
        # compete for several partners. On the 0.5 m grid many distances tie
        # and many pairs lie exactly at the gate (offsets such as (2.5, 0)
        # and (1.5, 2.0) have distance 2.5 exactly).
        rng = np.random.default_rng(seed)

        def point():
            x, y = rng.uniform(0.0, 20.0), rng.uniform(0.0, 8.0)
            return (round(x / grid) * grid, round(y / grid) * grid) if grid else (x, y)

        ids = rng.permutation(100)[: rng.integers(1, 25)] + 1
        tracks = []
        for track_id in ids.tolist():
            x, y = point()
            if rng.random() < 0.5:  # predicts its position
                tracks.append((track_id, predict([(x, y)])))
            else:  # predicts 2 * (x, y) - (x0, y0) from two positions
                x0, y0 = point()
                tracks.append((track_id, predict([(x0, y0), ((x + x0) / 2, (y + y0) / 2)])))
        detections = [point() for _ in range(rng.integers(0, 25))]
        assert associate(tracks, detections) == brute_force_matches(tracks, detections, 2.5)

    def test_pairs_exactly_at_the_gate_are_feasible(self):
        track = [(7, (10.0, 4.0))]
        for offset in [(2.5, 0.0), (0.0, -2.5), (1.5, 2.0), (-2.0, -1.5)]:
            assert associate(track, [(10.0 + offset[0], 4.0 + offset[1])]) == [(0, 0)]
        assert associate(track, [(12.5000001, 4.0), (11.5, 6.0000001)]) == []

    def test_window_bounds_do_not_round_away_a_pair(self):
        # px + gate is exactly 2**-51 here, but cx - px rounds to the gate
        # for a cx just above it; far from the origin one float step is
        # wider than the gate, so only the same x is within it.
        px = -(2.5 - 2.0**-51)
        cx = 2.0**-51 * (1 + 2.0**-52)
        assert cx > px + 2.5 and cx - px == 2.5
        assert associate([(1, (px, 0.0))], [(cx, 0.0)]) == [(0, 0)]
        far = 1e17
        assert associate([(1, (far, 0.0))], [(math.nextafter(far, 0.0), 0.0), (far, 0.0)]) \
            == [(0, 1)]
        assert associate([(1, (math.inf, 0.0))], [(far, 0.0)]) == []


def constant_velocity_rows(n, x0=0.0, y=4.0, v=1.0, drop=(), hint=None):
    return [det(f, x0 + v * f, y, hint=hint) for f in range(n) if f not in drop]


class TestBuildTracks:
    def test_confirmation_filter_drops_short_tracks(self):
        table = detection_table([det(0, 10.0, 4.0), det(1, 11.0, 4.0)])
        cfg = TrackerConfig(min_hits_to_confirm=5)
        assert build_tracks(table, cfg) == []

    def test_coasting_fills_gap_on_the_line(self):
        cfg = TrackerConfig(max_coast=12)
        table = detection_table(constant_velocity_rows(30, drop={10, 11, 12}))
        tracks = build_tracks(table, cfg)
        assert len(tracks) == 1
        rows = positions(tracks[0])
        assert [frame for frame, *_ in rows] == list(range(30))
        for frame, x, y, measured in rows:
            assert measured == (frame not in (10, 11, 12))
            # analytic constant-velocity fill: x = frame * 1.0
            assert x == pytest.approx(frame * 1.0, abs=1e-9)
            assert y == pytest.approx(4.0, abs=1e-12)

    def test_track_terminates_after_max_coast(self):
        cfg = TrackerConfig(max_coast=3, min_hits_to_confirm=2)
        table = detection_table(constant_velocity_rows(20, drop=set(range(8, 20))))
        tracks = build_tracks(table, cfg)
        assert len(tracks) == 1
        # terminated at the last measured frame, predicted tail trimmed
        assert tracks[0].first_frame + len(tracks[0].x) - 1 == 7
        assert tracks[0].measured.all()

    def test_walk_skips_frames_without_tracks_or_detections(self):
        rows = constant_velocity_rows(30)[20:] + constant_velocity_rows(510)[500:]
        tracks = build_tracks(detection_table(rows), TrackerConfig())
        assert [(t.first_frame, t.first_frame + len(t.x), t.x[0]) for t in tracks] == [
            (20, 30, 20.0), (500, 510, 500.0)]

    def test_two_parallel_vehicles_no_identity_switch(self):
        rows = []
        for f in range(100):
            rows += [det(f, 0.0 + f * 1.2, 4.0), det(f, 20.0 + f * 1.2, 4.0)]
        tracks = build_tracks(detection_table(rows), TrackerConfig())
        assert len(tracks) == 2
        # Oracle: brute-force bookkeeping - every frame, each track's
        # measured position must equal its own vehicle's ground truth.
        starts = {t.x[0]: t for t in tracks}
        assert set(starts) == {0.0, 20.0}
        for x0, track in starts.items():
            for frame, x, _, _ in positions(track):
                assert x == pytest.approx(x0 + frame * 1.2)

    def test_single_frame_false_positives_removed(self):
        rows = constant_velocity_rows(40)
        rows.append(det(7, 200.0, 4.0))
        rows.append(det(23, 150.0, 6.5))
        tracks = build_tracks(detection_table(rows), TrackerConfig())
        assert len(tracks) == 1
        assert tracks[0].x[0] == 0.0

    def test_no_detection_shared_between_tracks(self):
        # Two vehicles converging but separated beyond the gate.
        rows = []
        for f in range(60):
            rows += [det(f, f * 1.0, 4.0), det(f, 200 - f * 1.0, 4.0)]
        tracks = build_tracks(detection_table(rows), TrackerConfig())
        seen = set()
        for t in tracks:
            for frame, x, y, measured in positions(t):
                if measured:
                    key = (frame, x, y)
                    assert key not in seen
                    seen.add(key)

    def test_min_hits_respected(self):
        table = detection_table(constant_velocity_rows(30))
        for cfg_hits in (1, 5, 10):
            tracks = build_tracks(table, TrackerConfig(min_hits_to_confirm=cfg_hits))
            for t in tracks:
                assert t.measured_count >= cfg_hits

    def test_determinism(self):
        rows = constant_velocity_rows(50, drop={11, 12})
        rows.append(det(5, 300.0, 2.0))
        a = build_tracks(detection_table(rows), TrackerConfig())
        b = build_tracks(detection_table(rows), TrackerConfig())
        assert [(t.track_id, positions(t)) for t in a] == [
            (t.track_id, positions(t)) for t in b
        ]

    def test_class_majority_vote(self):
        rows = []
        for f in range(10):
            hint = VehicleClass.TRUCK if f % 3 else VehicleClass.CAR
            rows.append(det(f, f * 1.0, 4.0, length=12.0, width=2.5, hint=hint))
        tracks = build_tracks(detection_table(rows), TrackerConfig())
        assert tracks[0].vehicle_class is VehicleClass.TRUCK

    def test_class_tie_goes_to_car(self):
        cfg = TrackerConfig(min_hits_to_confirm=4)
        car, truck = VehicleClass.CAR, VehicleClass.TRUCK
        for hints in ([truck, car, truck, car], [car, truck, None, truck, car]):
            rows = [det(f, f * 1.0, 4.0, hint=h) for f, h in enumerate(hints)]
            assert [t.vehicle_class for t in build_tracks(detection_table(rows), cfg)] == [car]

    def test_extent_is_running_median(self):
        lengths = [4.0, 4.2, 4.4, 12.0, 4.1]
        rows = [det(f, f * 1.0, 4.0, length=L) for f, L in enumerate(lengths)]
        tracks = build_tracks(detection_table(rows), TrackerConfig(min_hits_to_confirm=3))
        assert tracks[0].length == pytest.approx(4.2)  # median robust to the 12.0 outlier

    def test_traced_peak_per_logged_row(self):
        # 50 vehicles over 400 frames with dropouts and every class hint;
        # each track is confirmed and ends measured, so every logged entry
        # is a row of a returned track. The typed log takes 8 B per column
        # and entry, and the peak measured 140 B per logged row; the log in
        # Python lists of boxed numbers measured 182 B.
        hints = (None, VehicleClass.CAR, VehicleClass.TRUCK)
        table = detection_table([
            det(f, 30.0 + 1.1 * f, 4.0 * i, hint=hints[(f + i) % 3])
            for i in range(50) for f in range(400) if (f + i) % 7 != 3 or f == 399])
        build_tracks(table, TrackerConfig())  # numpy's lazy imports happen untraced
        tracemalloc.start()
        try:
            tracks = build_tracks(table, TrackerConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        logged = sum(len(track.x) for track in tracks)
        assert (len(tracks), logged) == (50, 19993)
        assert peak <= 160 * logged, peak / logged

    def test_raw_track_columns_are_read_only(self):
        track, = build_tracks(detection_table(constant_velocity_rows(6)), TrackerConfig())
        for column in (track.x, track.y, track.measured):
            with pytest.raises(ValueError):
                column[0] = column[1]


@st.composite
def detection_scenes(draw):
    """Small detection rows: a few vehicles on straight lines with dropped
    frames, plus false positives, with random extents and class hints. No
    two rows share a frame and a centre, so each measured position names
    one detection."""
    n_frames = draw(st.integers(1, 40))
    centres = {}
    for _ in range(draw(st.integers(0, 4))):
        first = draw(st.integers(0, n_frames - 1))
        x0, y0 = draw(st.integers(0, 60)) * 0.5, draw(st.integers(0, 12)) * 0.5
        vx = draw(st.sampled_from([-1.5, -1.0, 0.0, 0.5, 1.0, 1.25]))
        for f in range(first, n_frames):
            if draw(st.integers(0, 9)) >= 2:  # else a dropout
                centres.setdefault((f, x0 + vx * (f - first), y0), None)
    for _ in range(draw(st.integers(0, 12))):  # false positives
        centres.setdefault((draw(st.integers(0, n_frames - 1)),
                            draw(st.integers(0, 60)) * 0.5, draw(st.integers(0, 12)) * 0.5),
                           None)
    hints = st.sampled_from([None, VehicleClass.CAR, VehicleClass.TRUCK])
    extents = st.sampled_from([2.0, 4.0, 4.5, 5.0, 12.0])
    return [det(f, x, y, length=draw(extents), width=draw(extents), hint=draw(hints))
            for f, x, y in centres]


def majority_class(hints):
    """The most frequent hint; a tie or no hint gives Car."""
    votes = Counter(h for h in hints if h is not None).most_common()
    if not votes or (len(votes) > 1 and votes[0][1] == votes[1][1]):
        return VehicleClass.CAR
    return votes[0][0]


class TestTrackerProperties:
    @settings(max_examples=200, deadline=None)
    @given(detection_scenes(), st.integers(1, 4), st.integers(0, 3))
    def test_invariants(self, rows, min_hits, max_coast):
        table = detection_table(rows)
        cfg = TrackerConfig(min_hits_to_confirm=min_hits, max_coast=max_coast)
        row_of = {(f, x, y): r for r, (f, x, y) in enumerate(zip(
            table.frame.tolist(), table.cx.tolist(), table.cy.tolist()))}
        used = []
        tracks = build_tracks(table, cfg)
        assert [t.track_id for t in tracks] == sorted({t.track_id for t in tracks})
        for t in tracks:
            track_rows = positions(t)
            assert track_rows[0][3] and track_rows[-1][3]
            assert t.measured_count == sum(m for *_, m in track_rows) >= min_hits
            mine = []
            coast = 0
            for k, (frame, x, y, measured) in enumerate(track_rows):
                if measured:
                    mine.append(row_of[frame, x, y])
                    coast = 0
                    continue
                coast += 1
                assert coast <= max_coast
                last = track_rows[k - 1][1:3]
                previous = track_rows[k - 2][1:3] if k >= 2 else last
                assert (x, y) == (2 * last[0] - previous[0], 2 * last[1] - previous[1])
            used += mine
            assert t.length == statistics.median(table.length[mine].tolist())
            assert t.width == statistics.median(table.width[mine].tolist())
            assert t.vehicle_class is majority_class(table.class_hint[r] for r in mine)
        assert len(used) == len(set(used))


class TestDetectionsCsv:
    def test_round_trip(self, tmp_path):
        rows = constant_velocity_rows(5, drop={2}, hint=VehicleClass.CAR)
        rows.append(det(3, 7.25, -1.5, length=12.0, width=2.5))
        path = tmp_path / "01_detections.csv"
        write_detections(detection_table(rows), path)
        back = read_detections(path, max_frame=4)
        assert back.frame.tolist() == [0, 1, 3, 3, 4]
        assert back.cx.tolist() == [0.0, 1.0, 3.0, 7.25, 4.0]
        assert back.cy.tolist() == [4.0, 4.0, 4.0, -1.5, 4.0]
        assert back.length.tolist() == [4.5, 4.5, 4.5, 12.0, 4.5]
        assert back.width.tolist() == [2.0, 2.0, 2.0, 2.5, 2.0]
        assert back.class_hint == (VehicleClass.CAR,) * 3 + (None, VehicleClass.CAR)
        again = tmp_path / "02_detections.csv"
        write_detections(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_rows_sorted_by_frame_keeping_file_order(self, tmp_path):
        path = tmp_path / "01_detections.csv"
        path.write_text("frame,cx,cy,length,width,class\n"
                        "2,1,0,4,2,Car\n0,2,0,4,2,\n2,3,0,4,2,Truck\n0,4,0,4,2,Car\n")
        back = read_detections(path, max_frame=100)
        assert back.frame.tolist() == [0, 0, 2, 2]
        assert back.cx.tolist() == [2.0, 4.0, 1.0, 3.0]
        assert back.class_hint == (None, VehicleClass.CAR, VehicleClass.CAR,
                                   VehicleClass.TRUCK)

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
        # a frame past the recording's end is rejected
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
        assert read_detections(path, max_frame=750).frame.tolist() == [0, 750]


DETECTIONS_CSV = ("frame,cx,cy,length,width,class\n"
                  "0,1,2,4,2,Car\n1,1.5,2,4,2,\n1000,2.5,2,4,2,Truck\n")

#: Detection tables that ``np.loadtxt`` reads otherwise than the per-cell
#: parser, or not at all, as edits of ``DETECTIONS_CSV``: the edit and the
#: issue of the reader before the C-parsed path was added (none: the table
#: reads as ``DETECTIONS_CSV`` does).
LOADTXT_GUARD_CASES = {
    "blank-line-middle": (insert_line(2), ("TypeMismatch", "expected 6 cells, got 0", 2, None)),
    "blank-line-end": (lambda table: table + "\n",
                       ("TypeMismatch", "expected 6 cells, got 0", 4, None)),
    "nul-in-class": (set_cell(1, "class", "Truck\0"), (
        "TypeMismatch", "unknown vehicle class 'Truck\\x00' (expected 'Car' or 'Truck')",
        1, "class")),
    "class-longer-than-field": (set_cell(1, "class", "Truck" * 3), (
        "TypeMismatch",
        "unknown vehicle class 'TruckTruckTruck' (expected 'Car' or 'Truck')", 1, "class")),
    "underscore-digits": (set_cell(3, "frame", "1_000"), None),
    "arabic-indic-digits": (set_cell(3, "frame", "1000".translate(ARABIC_INDIC_DIGITS)),
                            None),
    "fullwidth-digits": (set_cell(3, "frame", "1000".translate(FULLWIDTH_DIGITS)), None),
    "int-beyond-int64": (set_cell(3, "frame", str(2**63)), (
        "TypeMismatch", "integer '9223372036854775808' does not fit in 64 bits", 3,
        "frame")),
    "inf": (set_cell(2, "cx", "inf"),
            ("TypeMismatch", "expected finite number, got 'inf'", 2, "cx")),
    "nan": (set_cell(2, "cy", "nan"),
            ("TypeMismatch", "expected finite number, got 'nan'", 2, "cy")),
    "cr-line-ends": (lambda table: table.replace("\n", "\r"), None),
    "quoted-newline": (set_cell(2, "cx", '"1.5\n"'), None),
    "no-final-newline": (lambda table: table[:-1], None),
}


def read_outcome(path):
    """The issue read_detections raises, or the columns it reads."""
    from hwtracks import DatasetError

    try:
        table = read_detections(path, max_frame=1000)
    except DatasetError as err:
        return err.issue.kind, err.issue.message, err.issue.row, err.issue.column
    return ([getattr(table, c).tolist() for c in ("frame", "cx", "cy", "length", "width")]
            + [table.class_hint])


class TestLoadtxtGuards:
    @pytest.mark.parametrize("edit, want", LOADTXT_GUARD_CASES.values(),
                             ids=list(LOADTXT_GUARD_CASES))
    def test_outcome_is_the_per_cell_parsers(self, tmp_path, edit, want):
        path = tmp_path / "01_detections.csv"
        path.write_bytes(DETECTIONS_CSV.encode("utf-8"))
        unedited = read_outcome(path)
        path.write_bytes(edit(DETECTIONS_CSV).encode("utf-8"))
        assert read_outcome(path) == (want or unedited)
