import random
import sys

import pytest

from hwtracks import (
    DatasetError,
    DrivingDirection,
    KinematicState,
    Track,
    VehicleClass,
    compute_mean_speed,
    compute_surround,
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
from conftest import LOWER, UPPER, make_meta

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
            Track(
                track_id=track_id,
                vehicle_class=rng.choice([VehicleClass.CAR, VehicleClass.TRUCK]),
                direction=direction,
                length=Q(rng.uniform(3.5, 16.0)),
                width=Q(rng.uniform(1.8, 2.6)),
                states=states,
                mean_speed=Q(compute_mean_speed(states)),
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
        for fg, fw in zip(recording.surround[got.track_id], surround[got.track_id]):
            assert fg.frame == fw.frame
            for name in (
                "preceding_id", "following_id", "left_preceding_id",
                "left_alongside_id", "left_following_id", "right_preceding_id",
                "right_alongside_id", "right_following_id",
            ):
                assert getattr(fg, name) == getattr(fw, name)
            for name in ("dhw", "thw", "ttc"):
                feq(getattr(fg, name), getattr(fw, name))


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

    def test_empty_track_list(self, tmp_path):
        meta = make_meta()
        paths = write_recording(meta, [], {}, tmp_path)
        assert paths.tracks_path.read_text().count("\n") == 1  # header only
        recording = read_recording(paths)
        assert recording.tracks == ()

    def test_single_frame_track(self, tmp_path):
        meta, tracks, surround = random_recording(seed=3, n_tracks=1)
        track = tracks[0]
        single = Track(
            track_id=track.track_id,
            vehicle_class=track.vehicle_class,
            direction=track.direction,
            length=track.length,
            width=track.width,
            states=track.states[:1],
            mean_speed=Q(compute_mean_speed(track.states[:1])),
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
