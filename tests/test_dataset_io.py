import random
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

from hwtracks import (
    DatasetError,
    DrivingDirection,
    KinematicState,
    VehicleClass,
    compute_mean_speed,
    compute_surround,
    generate_truth,
    read_recording,
    validate,
    write_recording,
)
from hwtracks.dataset_io import (
    DANGLING_REFERENCE,
    DUPLICATE_ID,
    INVARIANT_VIOLATION,
    MISSING_COLUMN,
    MISSING_FILE,
    NON_MONOTONE_FRAMES,
    format_float,
)
from hwtracks.synth import script_from_dict
from conftest import (
    ARABIC_INDIC_DIGITS,
    FULLWIDTH_DIGITS,
    LOWER,
    UPPER,
    insert_line,
    make_meta,
    set_cell,
    track_from_states,
)

Q = lambda x: float(format_float(x))


def random_recording(seed, n_tracks=6, recording_id=1):
    """A random but internally consistent recording with quantized floats."""
    rng = random.Random(seed)
    meta = make_meta(recording_id=recording_id, duration=40.0)
    tracks = []
    for track_id in range(1, n_tracks + 1):
        direction = rng.choice([DrivingDirection.UPPER, DrivingDirection.LOWER])
        boundaries = UPPER if direction is DrivingDirection.UPPER else LOWER
        lane = rng.randint(1, 2)
        y = Q((boundaries[lane - 1] + boundaries[lane]) / 2 + rng.uniform(-0.8, 0.8))
        speed = Q(rng.uniform(15.0, 40.0))
        first = rng.randint(0, 200)
        n = rng.randint(1, 150)
        sign = direction.travel_sign
        x0 = Q(rng.uniform(0.0, 400.0)) + track_id * 1000.0  # keep vehicles apart
        states = tuple(
            KinematicState(
                frame=first + i,
                x=Q(x0 + sign * speed * i * 0.04),
                y=y,
                vx=Q(sign * speed),
                vy=0.0,
                ax=0.0,
                ay=0.0,
                lane_id=lane,
            )
            for i in range(n)
        )
        tracks.append(
            track_from_states(
                states,
                track_id=track_id,
                vehicle_class=rng.choice([VehicleClass.CAR, VehicleClass.TRUCK]),
                direction=direction,
                length=Q(rng.uniform(3.5, 16.0)),
                width=Q(rng.uniform(1.8, 2.6)),
                mean_speed=Q(compute_mean_speed([s.vx for s in states])),
            )
        )
    surround = compute_surround(tracks, meta)
    return meta, tracks, surround


def assert_recordings_equal(recording, meta, tracks, surround):
    """Field-by-field equality; floats compared after canonical formatting."""

    def feq(a, b):
        assert format_float(a) == format_float(b)

    feq(recording.meta.frame_rate, meta.frame_rate)
    feq(recording.meta.duration, meta.duration)
    assert recording.meta.recording_id == meta.recording_id
    assert recording.meta.location_id == meta.location_id
    for got, want in (
        (recording.meta.upper_lane_boundaries, meta.upper_lane_boundaries),
        (recording.meta.lower_lane_boundaries, meta.lower_lane_boundaries),
        (recording.meta.upper_speed_limits, meta.upper_speed_limits),
        (recording.meta.lower_speed_limits, meta.lower_speed_limits),
    ):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a == b) or format_float(a) == format_float(b)

    by_id = {t.track_id: t for t in tracks}
    assert sorted(t.track_id for t in recording.tracks) == sorted(by_id)
    for got in recording.tracks:
        want = by_id[got.track_id]
        assert got.vehicle_class is want.vehicle_class
        assert got.direction is want.direction
        feq(got.length, want.length)
        feq(got.width, want.width)
        feq(got.mean_speed, want.mean_speed)
        assert len(got.states) == len(want.states)
        for sg, sw in zip(got.states, want.states):
            assert sg.frame == sw.frame
            assert sg.lane_id == sw.lane_id
            for name in ("x", "y", "vx", "vy", "ax", "ay"):
                feq(getattr(sg, name), getattr(sw, name))
        got_surround, want_surround = recording.surround[got.track_id], surround[got.track_id]
        for name in got_surround._fields:
            g = getattr(got_surround, name).tolist()
            w = getattr(want_surround, name).tolist()
            assert len(g) == len(w) == got.num_frames
            if name in ("dhw", "thw", "ttc"):
                for a, b in zip(g, w):
                    feq(a, b)
            else:
                assert g == w


class TestRoundTrip:
    def test_read_write_inverse_two_tracks(self, tmp_path):
        meta, tracks, surround = random_recording(seed=1, n_tracks=2)
        paths = write_recording(meta, tracks, surround, tmp_path)
        recording = read_recording(paths)
        assert_recordings_equal(recording, meta, tracks, surround)

    def test_write_read_write_byte_identical(self, tmp_path):
        meta, tracks, surround = random_recording(seed=2)
        first = write_recording(meta, tracks, surround, tmp_path / "a")
        recording = read_recording(first)
        second = write_recording(
            recording.meta, recording.tracks, recording.surround, tmp_path / "b"
        )
        for a, b in (
            (first.recording_meta_path, second.recording_meta_path),
            (first.tracks_meta_path, second.tracks_meta_path),
            (first.tracks_path, second.tracks_path),
        ):
            assert a.read_bytes() == b.read_bytes()

    def test_lanechange_dense_scene_round_trips_byte_for_byte(self, tmp_path):
        from perfbench.scenes import lanechange_script

        truth = generate_truth(script_from_dict(lanechange_script(1)))
        surround = compute_surround(truth.tracks, truth.meta)
        first = write_recording(truth.meta, truth.tracks, surround, tmp_path / "a")
        recording = read_recording(first)
        second = write_recording(
            recording.meta, recording.tracks, recording.surround, tmp_path / "b"
        )
        for a, b in zip(astuple(first), astuple(second)):
            assert a.read_bytes() == b.read_bytes()

    def test_empty_track_list(self, tmp_path):
        meta = make_meta()
        paths = write_recording(meta, [], {}, tmp_path)
        assert paths.tracks_path.read_text().count("\n") == 1  # header only
        recording = read_recording(paths)
        assert recording.tracks == ()

    def test_single_frame_track(self, tmp_path):
        meta, tracks, surround = random_recording(seed=3, n_tracks=1)
        track = tracks[0]
        single = track_from_states(
            track.states[:1],
            track_id=track.track_id,
            vehicle_class=track.vehicle_class,
            direction=track.direction,
            length=track.length,
            width=track.width,
            mean_speed=Q(compute_mean_speed(track.vx[:1])),
        )
        surround = compute_surround([single], meta)
        paths = write_recording(meta, [single], surround, tmp_path)
        recording = read_recording(paths)
        assert recording.tracks[0].num_frames == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_round_trips(self, tmp_path, seed):
        meta, tracks, surround = random_recording(seed=seed, n_tracks=8)
        first = write_recording(meta, tracks, surround, tmp_path / "a")
        recording = read_recording(first)
        assert_recordings_equal(recording, meta, tracks, surround)
        second = write_recording(
            recording.meta, recording.tracks, recording.surround, tmp_path / "b"
        )
        assert first.tracks_path.read_bytes() == second.tracks_path.read_bytes()


def _patch_cell(path, row, column_index, value, delimiter=","):
    lines = path.read_text().splitlines()
    cells = lines[row].split(delimiter)
    cells[column_index] = value
    lines[row] = delimiter.join(cells)
    path.write_text("\n".join(lines) + "\n")


def _patch_cells(path, edits):
    """Set ``(row, column name, text)`` cells of a table; text None deletes
    the cell."""
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    for row, column, text in edits:
        cells = lines[row].split(",")
        if text is None:
            del cells[columns.index(column)]
        else:
            cells[columns.index(column)] = text
        lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _sort_rows(path, key):
    """Sort the data rows of a table, stably, by ``key`` of their cells."""
    header, *rows = path.read_text().splitlines()
    rows.sort(key=lambda line: key(line.split(",")))
    path.write_text("\n".join([header, *rows]) + "\n")


class TestErrors:
    @pytest.fixture
    def written(self, tmp_path):
        meta, tracks, surround = random_recording(seed=7, n_tracks=3)
        paths = write_recording(meta, tracks, surround, tmp_path)
        return paths

    def assert_error_kind(self, paths, kind):
        report = validate(paths)
        assert report.issues, "expected issues"
        assert any(i.kind == kind for i in report.issues)
        with pytest.raises(DatasetError):
            read_recording(paths)

    def test_dangling_preceding_reference(self, written):
        columns = written.tracks_path.read_text().splitlines()[0].split(",")
        idx = columns.index("precedingId")
        _patch_cell(written.tracks_path, 1, idx, "99")
        self.assert_error_kind(written, DANGLING_REFERENCE)

    def test_frame_gap(self, tmp_path):
        meta, tracks, surround = random_recording(seed=8, n_tracks=1)
        paths = write_recording(meta, tracks, surround, tmp_path)
        lines = paths.tracks_path.read_text().splitlines()
        assert len(lines) > 8
        del lines[3]  # remove one interior frame -> gap
        paths.tracks_path.write_text("\n".join(lines) + "\n")
        # tracksMeta numFrames now inconsistent too, but the frame gap must
        # be reported in its own right
        report = validate(paths)
        assert any(i.kind == NON_MONOTONE_FRAMES for i in report.issues)

    def test_missing_column(self, written):
        lines = written.tracks_meta_path.read_text().splitlines()
        lines[0] = lines[0].replace("meanSpeed", "avgSpeed")
        written.tracks_meta_path.write_text("\n".join(lines) + "\n")
        self.assert_error_kind(written, MISSING_COLUMN)

    def test_missing_file(self, written):
        written.tracks_meta_path.unlink()
        self.assert_error_kind(written, MISSING_FILE)

    def test_duplicate_track_id(self, written):
        lines = written.tracks_meta_path.read_text().splitlines()
        lines.append(lines[1])
        written.tracks_meta_path.write_text("\n".join(lines) + "\n")
        self.assert_error_kind(written, DUPLICATE_ID)

    def test_speed_limit_count_mismatch(self, written):
        lines = written.recording_meta_path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = cells[-1] + ";27.8"
        lines[1] = ",".join(cells)
        written.recording_meta_path.write_text("\n".join(lines) + "\n")
        self.assert_error_kind(written, INVARIANT_VIOLATION)

    def test_type_mismatch_names_row_and_column(self, written):
        columns = written.tracks_path.read_text().splitlines()[0].split(",")
        idx = columns.index("x")
        _patch_cell(written.tracks_path, 2, idx, "not-a-number")
        report = validate(paths=written)
        issue = next(i for i in report.issues if i.kind == "TypeMismatch")
        assert issue.row == 2
        assert issue.column == "x"

    def test_lane_inconsistency(self, written):
        columns = written.tracks_path.read_text().splitlines()[0].split(",")
        idx = columns.index("laneId")
        lines = written.tracks_path.read_text().splitlines()
        current = lines[1].split(",")[idx]
        _patch_cell(written.tracks_path, 1, idx, "2" if current == "1" else "1")
        self.assert_error_kind(written, INVARIANT_VIOLATION)

    def test_validate_empty_iff_read_succeeds(self, tmp_path):
        meta, tracks, surround = random_recording(seed=9)
        paths = write_recording(meta, tracks, surround, tmp_path)
        assert validate(paths).ok
        read_recording(paths)  # must not raise
        # now break it in an arbitrary way and check the equivalence flips
        _patch_cell(paths.tracks_path, 1, 1, "424242")
        assert not validate(paths).ok
        with pytest.raises(DatasetError):
            read_recording(paths)


class TestThroughput:
    def test_reader_is_linear_in_file_size(self, tmp_path):
        def build(n_tracks, directory):
            meta, tracks, surround = random_recording(seed=11, n_tracks=n_tracks)
            return write_recording(meta, tracks, surround, directory)

        small = build(8, tmp_path / "small")
        large = build(80, tmp_path / "large")
        size_ratio = (
            large.tracks_path.stat().st_size / small.tracks_path.stat().st_size
        )
        assert size_ratio > 7  # sanity: the large file is roughly 10x

        # Work is counted as Python and builtin calls, not timed: on a shared
        # machine the best of nine alternated timings of these two reads still
        # crossed the bound now and then, while the call count is exact.
        def calls(paths):
            count = 0

            def count_calls(frame, event, arg):
                nonlocal count
                if event in ("call", "c_call"):
                    count += 1

            sys.setprofile(count_calls)
            try:
                read_recording(paths)
            finally:
                sys.setprofile(None)
            return count

        for paths in (small, large):
            read_recording(paths)  # warm lazy imports and caches
        assert calls(large) <= 1.2 * size_ratio * calls(small)


# Cells a mutation may write: malformed numbers, sentinels, small ids,
# class names and an integer beyond 64 bits.
MUTANT_CELLS = ["", "x", "nan", "inf", "-1", "0", "1", "2", "3", "99", "-2.5",
                "1e3", " 7", "1_0", "Car", "Truck", "Bus", str(10**20)]


def mutate_recording(paths, rng, n_edits):
    """Apply ``n_edits`` random edits to a written recording: a cell replaced
    (by a mutant cell, the same column of another row, or an integer moved by
    one), a data row deleted or a data row duplicated. Returns the edits as
    (file name, action, row, column, value) tuples."""
    files = [paths.recording_meta_path, paths.tracks_meta_path, paths.tracks_path]
    edits = []
    for _ in range(n_edits):
        path = rng.choice(files + [paths.tracks_path])  # tracks twice as often
        lines = path.read_text().splitlines()
        if len(lines) < 2:
            continue
        action = rng.choice(["cell", "cell", "cell", "delete", "duplicate"])
        row = rng.randrange(1, len(lines))
        column = value = None
        if action == "cell":
            cells = lines[row].split(",")
            column = rng.randrange(len(cells))
            source = rng.randrange(3)
            if source == 0:
                value = rng.choice(MUTANT_CELLS)
            elif source == 1:
                value = lines[rng.randrange(1, len(lines))].split(",")[column]
            elif cells[column].lstrip("-").isdigit():
                value = str(int(cells[column]) + rng.choice([-1, 1]))
            else:
                value = cells[column] + "0"
            cells[column] = value
            lines[row] = ",".join(cells)
            column = lines[0].split(",")[column]
        elif action == "delete":
            del lines[row]
        else:
            lines.insert(rng.randrange(1, len(lines) + 1), lines[row])
        path.write_text("\n".join(lines) + "\n")
        edits.append((path.name, action, row, column, value))
    return edits


def mutant_case(seed, directory):
    """Recording ``seed`` of the mutation corpus, written to ``directory``."""
    rng = random.Random(seed)
    meta, tracks, surround = random_recording(seed, n_tracks=rng.randint(1, 5))
    paths = write_recording(meta, tracks, surround, directory)
    return paths, mutate_recording(paths, rng, rng.choice([1, 1, 1, 2, 3]))


def _issue_tuples(issues, directory):
    return [(i.kind, Path(i.file).relative_to(directory).as_posix(), i.message,
             i.row, i.column) for i in issues]


class TestMutationCorpus:
    def test_validate_and_read_agree_on_every_mutant(self, tmp_path):
        for seed in range(150):
            paths, edits = mutant_case(seed, tmp_path / str(seed))
            issues = validate(paths).issues
            try:
                read_recording(paths)
            except DatasetError as exc:
                assert issues, (seed, edits)
                assert exc.issue == issues[0], (seed, edits)
            else:
                assert not issues, (seed, edits, issues)

    # Both reports below were captured from the per-row reader that the
    # columnar one replaced.

    def test_multi_defect_report_across_files(self, tmp_path):
        meta, tracks, surround = random_recording(seed=7, n_tracks=3)
        paths = write_recording(meta, tracks, surround, tmp_path)
        _patch_cells(paths.recording_meta_path, [(1, "speedLimits", "-1;x")])
        with open(paths.tracks_meta_path, "a") as fh:
            fh.write(paths.tracks_meta_path.read_text().splitlines()[3] + "\n")
        _patch_cells(paths.tracks_meta_path, [(1, "length", "-3"), (2, "class", "Bus")])
        _patch_cells(paths.tracks_path, [(10, "ttc", None)])
        assert _issue_tuples(validate(paths).issues, tmp_path) == [
            ("TypeMismatch", "01_recordingMeta.csv",
             "expected ';'-separated numbers, got '-1;x'", 1, "speedLimits"),
            ("InvariantViolation", "01_tracksMeta.csv",
             "track 1: extents must be positive", 1, None),
            ("TypeMismatch", "01_tracksMeta.csv",
             "unknown vehicle class 'Bus' (expected 'Car' or 'Truck')", 2, "class"),
            ("DuplicateId", "01_tracksMeta.csv",
             "track id 3 appears more than once", 4, "id"),
            ("TypeMismatch", "01_tracks.csv", "expected 20 cells, got 19", 10, None),
        ]

    def test_summary_issues_of_one_track_skip_only_its_own_later_checks(self, tmp_path):
        meta, tracks, surround = random_recording(seed=7, n_tracks=3)
        paths = write_recording(meta, tracks, surround, tmp_path)
        # a numFrames or meanSpeed issue hides the rest of its own track's
        # summary checks, but not the numLaneChanges check of a later track
        _patch_cells(paths.tracks_meta_path, [
            (1, "numFrames", "26"), (1, "numLaneChanges", "1"),
            (2, "numLaneChanges", "4"),
            (3, "meanSpeed", "1"), (3, "initialFrame", "0"),
        ])
        issues = validate(paths).issues
        assert _issue_tuples(issues, tmp_path) == [
            ("InvariantViolation", "01_tracksMeta.csv",
             "track 1: numFrames=26 does not match the tracks table (25)", 1, "numFrames"),
            ("InvariantViolation", "01_tracksMeta.csv",
             "track 2: numLaneChanges=4 does not match the tracks table (0)", 2,
             "numLaneChanges"),
            ("InvariantViolation", "01_tracksMeta.csv",
             "track 3: meanSpeed 1 does not match recomputed 20.527", 3, "meanSpeed"),
        ]
        with pytest.raises(DatasetError) as err:
            read_recording(paths)
        assert err.value.issue == issues[0]

    def test_summary_issues_come_by_track_id_from_a_descending_tracks_meta(
        self, tmp_path
    ):
        meta, tracks, surround = random_recording(seed=4, n_tracks=4)
        paths = write_recording(meta, tracks, surround, tmp_path)
        _sort_rows(paths.tracks_meta_path, lambda cells: -int(cells[0]))
        # tracksMeta rows 1-4 now hold tracks 4, 3, 2, 1; a meanSpeed issue
        # hides its track's later checks, a numFrames issue its lane changes
        _patch_cells(paths.tracks_meta_path, [
            (1, "initialFrame", "139"),
            (2, "meanSpeed", "1"), (2, "numFrames", "1"),
            (3, "numLaneChanges", "2"),
            (4, "numFrames", "25"), (4, "numLaneChanges", "3"),
        ])
        issues = validate(paths).issues
        assert _issue_tuples(issues, tmp_path) == [
            ("InvariantViolation", "01_tracksMeta.csv",
             "track 1: numFrames=25 does not match the tracks table (24)", 4, "numFrames"),
            ("InvariantViolation", "01_tracksMeta.csv",
             "track 2: numLaneChanges=2 does not match the tracks table (0)", 3,
             "numLaneChanges"),
            ("InvariantViolation", "01_tracksMeta.csv",
             "track 3: meanSpeed 1 does not match recomputed 22.7462", 2, "meanSpeed"),
            ("InvariantViolation", "01_tracksMeta.csv",
             "track 4: initialFrame=139 does not match the tracks table (140)", 1,
             "initialFrame"),
        ]
        with pytest.raises(DatasetError) as err:
            read_recording(paths)
        assert err.value.issue == issues[0]

    def test_cross_reference_issues_come_in_order_of_first_appearance(self, tmp_path):
        meta, tracks, surround = random_recording(seed=4, n_tracks=4)
        paths = write_recording(meta, tracks, surround, tmp_path)
        _sort_rows(paths.tracks_path, lambda cells: -int(cells[1]))
        # rows 1-77 are track 4, 78-173 track 3, 174-218 track 2 and 219-242
        # track 1; tracks 4 and 2 lose a frame, track 3 is renamed 9
        lines = paths.tracks_path.read_text().splitlines()
        lines[78:174] = [",".join([line.split(",")[0], "9", *line.split(",")[2:]])
                         for line in lines[78:174]]
        del lines[200], lines[10]
        paths.tracks_path.write_text("\n".join(lines) + "\n")
        issues = validate(paths).issues
        assert _issue_tuples(issues, tmp_path) == [
            ("NonMonotoneFrames", "01_tracks.csv",
             "track 4: frame 150 follows 148 (frames must be consecutive)", 10, "frame"),
            ("DanglingReference", "01_tracks.csv",
             "track id 9 has no tracksMeta entry", 77, "id"),
            ("NonMonotoneFrames", "01_tracks.csv",
             "track 2: frame 226 follows 224 (frames must be consecutive)", 199, "frame"),
            ("DanglingReference", "01_tracksMeta.csv",
             "track id 3 has no rows in the tracks table", 3, "id"),
        ]
        with pytest.raises(DatasetError) as err:
            read_recording(paths)
        assert err.value.issue == issues[0]

    def test_multi_defect_report_of_per_row_checks(self, tmp_path):
        meta, tracks, surround = random_recording(seed=7, n_tracks=3)
        paths = write_recording(meta, tracks, surround, tmp_path)
        # rows 1-25 are track 1 (frames 137-161, lower lane 1, no neighbors);
        # track 2 is alive from frame 141 and track 3 from frame 142
        _patch_cells(paths.tracks_path, [
            (2, "precedingId", "99"), (2, "leftFollowingId", "3"),
            (3, "followingId", "1"),
            (4, "dhw", "-2"), (4, "laneId", "7"),
            (5, "leftFollowingId", "2"),
            (6, "ttc", "0.5"),
        ])
        assert _issue_tuples(validate(paths).issues, tmp_path) == [
            ("DanglingReference", "01_tracks.csv",
             "precedingId=99 refers to an unknown track", 2, "precedingId"),
            ("DanglingReference", "01_tracks.csv",
             "leftFollowingId=3 is not alive at frame 138", 2, "leftFollowingId"),
            ("InvariantViolation", "01_tracks.csv",
             "followingId equals the row's own track id 1", 3, "followingId"),
            ("InvariantViolation", "01_tracks.csv",
             "laneId 7 inconsistent with y=13.6817 (expected 1)", 4, "laneId"),
            ("InvariantViolation", "01_tracks.csv",
             "dhw must be >= 0 or the -1 sentinel, got -2", 4, "dhw"),
            ("InvariantViolation", "01_tracks.csv",
             "dhw defined without a preceding vehicle", 4, "dhw"),
            ("InvariantViolation", "01_tracks.csv",
             "ttc defined without a preceding vehicle", 6, "ttc"),
        ]


class TestCellRanges:
    def test_malformed_driving_direction_reported_once(self, tmp_path):
        meta, tracks, surround = random_recording(seed=7, n_tracks=3)
        paths = write_recording(meta, tracks, surround, tmp_path)
        _patch_cells(paths.tracks_meta_path, [(2, "drivingDirection", "x")])
        assert _issue_tuples(validate(paths).issues, tmp_path) == [
            ("TypeMismatch", "01_tracksMeta.csv", "expected integer, got 'x'", 2,
             "drivingDirection"),
        ]

    @pytest.mark.parametrize("table, row, column", [
        ("recording_meta_path", 1, "id"),
        ("tracks_meta_path", 2, "numFrames"),
        ("tracks_path", 3, "frame"),
        ("tracks_path", 3, "precedingId"),
    ])
    def test_integer_beyond_64_bits_is_a_type_mismatch(self, tmp_path, table, row,
                                                       column):
        meta, tracks, surround = random_recording(seed=7, n_tracks=3)
        paths = write_recording(meta, tracks, surround, tmp_path)
        path = getattr(paths, table)
        _patch_cells(path, [(row, column, str(10**20))])
        issues = validate(paths).issues
        assert [(i.kind, i.file, i.row, i.column) for i in issues] == [
            ("TypeMismatch", str(path), row, column)
        ]
        with pytest.raises(DatasetError) as err:
            read_recording(paths)
        assert err.value.issue == issues[0]

    def test_frame_bound_is_exact_beyond_float_precision(self, tmp_path):
        # max frame 1.15292e18 is a float; frame 1152920000000000001 lies one
        # past it, although it rounds to the same float
        meta, tracks, surround = random_recording(seed=3, n_tracks=1)
        one = track_from_states(tracks[0].states[:1], direction=tracks[0].direction,
                                mean_speed=tracks[0].mean_speed)
        paths = write_recording(meta, [one], compute_surround([one], meta), tmp_path)
        _patch_cells(paths.recording_meta_path,
                                 [(1, "frameRate", "1"), (1, "duration", "1.15292e+18")])
        _patch_cells(paths.tracks_path, [(1, "frame", "1152920000000000001")])
        assert _issue_tuples(validate(paths).issues, tmp_path) == [
            ("InvariantViolation", "01_tracks.csv",
             "frame 1152920000000000001 outside [0, 1.15292e+18]", 1, "frame"),
        ]


#: Tables that ``np.loadtxt`` reads otherwise than the per-cell parser, or
#: not at all, as edits of the seed-7 recording: the table, the edit, and
#: the report of the reader before the C-parsed path was added (none: the
#: recording reads as written).
LOADTXT_GUARD_CASES = {
    "blank-line-middle": ("tracks_path", insert_line(3), [
        ("TypeMismatch", "01_tracks.csv", "expected 20 cells, got 0", 3, None)]),
    "blank-line-end": ("tracks_path", lambda table: table + "\n", [
        ("TypeMismatch", "01_tracks.csv", "expected 20 cells, got 0", 170, None)]),
    "nul-in-class": ("tracks_meta_path", set_cell(2, "class", "Truck\0"), [
        ("TypeMismatch", "01_tracksMeta.csv",
         "unknown vehicle class 'Truck\\x00' (expected 'Car' or 'Truck')", 2, "class")]),
    "class-longer-than-field": ("tracks_meta_path", set_cell(2, "class", "Truck" * 3), [
        ("TypeMismatch", "01_tracksMeta.csv",
         "unknown vehicle class 'TruckTruckTruck' (expected 'Car' or 'Truck')", 2,
         "class")]),
    "underscore-digits": ("tracks_path", set_cell(3, "x", "1_147.57"), None),
    "arabic-indic-digits": ("tracks_path",
                            set_cell(1, "frame", "137".translate(ARABIC_INDIC_DIGITS)), None),
    "fullwidth-digits": ("tracks_path",
                         set_cell(1, "frame", "137".translate(FULLWIDTH_DIGITS)), None),
    "int-beyond-int64": ("tracks_path", set_cell(3, "precedingId", str(2**63)), [
        ("TypeMismatch", "01_tracks.csv",
         "integer '9223372036854775808' does not fit in 64 bits", 3, "precedingId")]),
    "inf": ("tracks_path", set_cell(3, "x", "inf"), [
        ("TypeMismatch", "01_tracks.csv", "expected finite number, got 'inf'", 3, "x")]),
    "nan": ("tracks_meta_path", set_cell(2, "length", "nan"), [
        ("TypeMismatch", "01_tracksMeta.csv", "expected finite number, got 'nan'", 2,
         "length")]),
    "cr-line-ends": ("tracks_path", lambda table: table.replace("\n", "\r"), None),
    "quoted-newline": ("tracks_path", set_cell(3, "x", '"1147.57\n"'), None),
    "no-final-newline": ("tracks_path", lambda table: table[:-1], None),
}


class TestLoadtxtGuards:
    @pytest.mark.parametrize("table, edit, want", LOADTXT_GUARD_CASES.values(),
                             ids=list(LOADTXT_GUARD_CASES))
    def test_report_is_the_per_cell_parsers(self, tmp_path, table, edit, want):
        meta, tracks, surround = random_recording(seed=7, n_tracks=3)
        paths = write_recording(meta, tracks, surround, tmp_path)
        path = getattr(paths, table)
        path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8"))
        issues = validate(paths).issues
        assert _issue_tuples(issues, tmp_path) == (want or [])
        if want:
            with pytest.raises(DatasetError) as err:
                read_recording(paths)
            assert err.value.issue == issues[0]
        else:
            assert_recordings_equal(read_recording(paths), meta, tracks, surround)
