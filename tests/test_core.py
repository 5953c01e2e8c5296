import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hwtracks import (
    DetectionTable,
    DrivingDirection,
    Track,
    VehicleClass,
    compute_mean_speed,
    lane_change_count,
    nearest_lane_id,
    write_detections,
)
from hwtracks.core import format_float, format_floats, write_json_rows, write_rows, write_table
from hwtracks.surround import NO_VEHICLE, UNDEFINED
from conftest import det, detection_table, make_meta, straight_track
from test_surround import neighbors, vehicle_at


def boundaries_meta(boundaries):
    lanes = len(boundaries) - 1
    return make_meta(
        lower_lane_boundaries=tuple(boundaries),
        lower_speed_limits=tuple(math.inf for _ in range(lanes)),
    )


def columns_track(**fields):
    """A valid three-row Track, with ``fields`` replacing its arguments."""
    args = dict(
        track_id=1, vehicle_class=VehicleClass.CAR, direction=DrivingDirection.LOWER,
        length=4.5, width=2.0, mean_speed=25.0, initial_frame=0,
        x=[0.0, 1.0, 2.0], y=[13.85] * 3, vx=[25.0] * 3, vy=[0.0] * 3,
        ax=[0.0] * 3, ay=[0.0] * 3, lane=[1] * 3,
    )
    args.update(fields)
    return Track(**args)


class TestLaneIdOf:
    def test_interval_membership(self):
        meta = boundaries_meta([0.0, 3.5, 7.0])
        assert nearest_lane_id(1.0, meta, DrivingDirection.LOWER) == 1

    def test_lower_edge_inclusive(self):
        meta = boundaries_meta([0.0, 3.5, 7.0])
        assert nearest_lane_id(3.5, meta, DrivingDirection.LOWER) == 2

    @given(st.floats(min_value=-5.0, max_value=12.0,
                     allow_nan=False, allow_infinity=False))
    def test_matches_linear_scan(self, y):
        boundaries = [0.0, 3.5, 7.0]
        meta = boundaries_meta(boundaries)
        expected = None
        for k in range(len(boundaries) - 1):
            if boundaries[k] <= y < boundaries[k + 1]:
                expected = k + 1
        nearest = expected or (1 if y < boundaries[0] else len(boundaries) - 1)
        assert nearest_lane_id(y, meta, DrivingDirection.LOWER) == nearest
        ys = np.array([y, boundaries[1], y])
        assert nearest_lane_id(ys, meta, DrivingDirection.LOWER).tolist() == [
            nearest, 2, nearest]

    def test_nearest_lane_clamps(self):
        meta = boundaries_meta([0.0, 3.5, 7.0])
        assert nearest_lane_id(-1.0, meta, DrivingDirection.LOWER) == 1
        assert nearest_lane_id(9.0, meta, DrivingDirection.LOWER) == 2
        assert nearest_lane_id(1.0, meta, DrivingDirection.LOWER) == 1
        ys = np.array([-1.0, 0.0, 1.0, 3.5, 6.99, 7.0, 9.0])
        assert nearest_lane_id(ys, meta, DrivingDirection.LOWER).tolist() == [
            1, 1, 1, 2, 2, 2, 2]


class TestAheadOf:
    """Which vehicle is ahead along the travel direction, as the preceding and
    following slots of compute_surround see it."""

    def pair(self, direction, x_a, x_b):
        a = vehicle_at(1, direction, 1, x_a)
        b = vehicle_at(2, direction, 1, x_b)
        return neighbors([a, b], make_meta())

    def test_lower_carriageway_larger_x_is_ahead(self):
        a, b = self.pair(DrivingDirection.LOWER, 100.0, 90.0)
        assert (b.preceding_id, a.following_id) == (1, 2)
        assert (a.preceding_id, b.following_id) == (NO_VEHICLE, NO_VEHICLE)

    def test_upper_carriageway_sign_flips(self):
        a, b = self.pair(DrivingDirection.UPPER, 100.0, 90.0)
        assert (a.preceding_id, b.following_id) == (2, 1)
        assert (b.preceding_id, a.following_id) == (NO_VEHICLE, NO_VEHICLE)

    def test_equal_x_strict(self):
        for sf in self.pair(DrivingDirection.LOWER, 100.0, 100.0):
            assert sf.preceding_id == sf.following_id == NO_VEHICLE
            assert sf.dhw == UNDEFINED


class TestTypes:
    def test_vehicle_class_parse(self):
        assert VehicleClass.parse("Car") is VehicleClass.CAR
        assert VehicleClass.parse("Truck") is VehicleClass.TRUCK
        with pytest.raises(ValueError):
            VehicleClass.parse("Bus")

    def test_travel_signs(self):
        assert DrivingDirection.UPPER.travel_sign == -1
        assert DrivingDirection.LOWER.travel_sign == 1

    def test_state_rejects_non_finite(self):
        with pytest.raises(ValueError, match="x must be finite"):
            columns_track(x=[0.0, math.nan, 2.0])
        with pytest.raises(ValueError, match="vy must be finite"):
            columns_track(vy=[0.0, math.inf, 0.0])

    def test_track_rejects_bad_columns(self):
        track = columns_track()
        assert track.frames.tolist() == [0, 1, 2]  # consecutive by construction
        with pytest.raises(ValueError):
            track.x[0] = 1.0  # the columns are read-only
        for bad, message in (
            (dict(lane=[1, 0, 1]), "lane must be >= 1"),
            (dict(initial_frame=-1), "frame must be >= 0"),
            (dict(y=[13.85, 13.85]), "column y has shape"),
            ({name: [] for name in ("x", "y", "vx", "vy", "ax", "ay", "lane")},
             "needs at least one state"),
            (dict(width=0.0), "extents must be positive"),
        ):
            with pytest.raises(ValueError, match=message):
                columns_track(**bad)

    def test_track_requires_positive_extent(self):
        with pytest.raises(ValueError):
            straight_track(length=0.0)

    def test_detection_validation(self):
        columns = dict(frame=[0, 1], cx=[0.0, 1.0], cy=[0.0, 0.0], length=[4.0, 4.0],
                       width=[2.0, 2.0], class_hint=[None, VehicleClass.CAR])
        DetectionTable(**columns)  # the unchanged columns are valid
        for bad, message in (
            (dict(frame=[-1, 0]), "frame must be >= 0"),
            (dict(frame=[1, 0]), "ascending"),
            (dict(length=[4.0, 0.0]), "extents must be positive"),
            (dict(width=[-2.0, 2.0]), "extents must be positive"),
            (dict(cx=[math.nan, 0.0]), "finite"),
            (dict(cx=[0.0, math.inf]), "finite"),
            (dict(cy=[0.0, -math.inf]), "finite"),
            (dict(width=[2.0]), "shape"),
            (dict(class_hint=[None]), "shape"),
        ):
            with pytest.raises(ValueError, match=message):
                DetectionTable(**{**columns, **bad})

    def test_detection_table_columns_are_read_only(self):
        table = DetectionTable([0, 0, 3], [1.0, 2.0, 3.0], [0.0] * 3, [4.0] * 3,
                               [2.0] * 3, [None] * 3)
        assert table.frame.dtype == np.int64 and table.cx.dtype == np.float64
        assert len(table) == 3
        with pytest.raises(ValueError):
            table.cx[0] = 5.0

    def test_meta_boundary_validation(self):
        with pytest.raises(ValueError):
            make_meta(upper_lane_boundaries=(0.0, 3.7))  # only one lane
        with pytest.raises(ValueError):
            make_meta(upper_lane_boundaries=(3.7, 0.0, 7.4))  # not increasing
        with pytest.raises(ValueError):
            make_meta(upper_speed_limits=(math.inf,))  # wrong limit count

    def test_mean_speed_recomputation(self):
        track = straight_track(speed=31.25, n_frames=200)
        recomputed = compute_mean_speed(track.vx)
        assert abs(recomputed - track.mean_speed) <= 1e-9 * abs(track.mean_speed)

    def test_mean_speed_adds_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16, twice; a compensated sum (Python's
        # ``sum`` from 3.12 on) keeps the 2 and divides 1e16 + 2
        assert compute_mean_speed([1e16, 1.0, 1.0]) == 1e16 / 3
        assert compute_mean_speed([-1e16, 1.0, -1.0]) == 1e16 / 3

    def test_mean_speed_uses_magnitudes(self):
        track = straight_track(direction=DrivingDirection.UPPER, x0=400.0,
                               y=1.85, speed=20.0)
        assert track.mean_speed == pytest.approx(20.0)
        assert (track.vx < 0).all()

    def test_lane_consistency_of_builders(self):
        meta = make_meta()
        track = straight_track()
        for y, lane in zip(track.y.tolist(), track.lane.tolist()):
            assert nearest_lane_id(y, meta, track.direction) == lane

    def test_lane_change_count(self):
        assert lane_change_count(straight_track().lane) == 0
        assert lane_change_count(np.array([1, 1, 1, 2])) == 1
        assert lane_change_count(np.array([1, 2, 2, 1, 2])) == 3
        assert lane_change_count(np.array([2])) == 0


class TestCanonicalFormat:
    def test_column_form_matches_per_value_format(self):
        # Reference: the built-in ".6g" format of each value, -0.0 as 0.0.
        rng = np.random.default_rng(5)
        values = np.concatenate([
            rng.normal(0.0, 1.0, 2000) * 10.0 ** rng.integers(-12, 12, 2000),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e308, 123456.5,
             1234567.0, 0.0001, 1e-5, 2.5, -2.5],
        ])
        want = [format(0.0 if v == 0.0 else v, ".6g") for v in values.tolist()]
        assert format_floats(values) == want
        assert [format_float(v) for v in values.tolist()] == want
        assert format_floats(np.empty(0)) == []


def csv_writer_bytes(columns, rows):
    """A table as ``csv.writer`` writes the canonical cells: the writer that
    ``write_table`` replaced."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


class TestWriteTable:
    EDGE_FLOATS = [-0.0, 1e-07, 1234567.0, 1e21, -1.0, 0.0, 2.5, -2.5, 5e-324]

    def test_edge_values_as_csv_writer_wrote_them(self, tmp_path):
        n = len(self.EDGE_FLOATS)
        ints = [2**63 - 1, -1, 0, 1, -(2**63)] + [7] * (n - 5)
        texts = ["Car", "", "toLeft", "Truck"] + ["x"] * (n - 4)
        path = tmp_path / "t.csv"
        write_table(path, ["f", "i", "s"], "gds", [(np.array(self.EDGE_FLOATS), ints, texts)])
        assert path.read_bytes() == csv_writer_bytes(
            ["f", "i", "s"], zip(map(format_float, self.EDGE_FLOATS), ints, texts))
        assert path.read_text().splitlines()[1:5] == [
            "0,9223372036854775807,Car", "1e-07,-1,", "1.23457e+06,0,toLeft",
            "1e+21,1,Truck"]

    def test_rows_across_blocks_as_csv_writer_wrote_them(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(0.0, 1.0, 9000) * 10.0 ** rng.integers(-9, 9, 9000)
        ids = rng.integers(-5, 10**12, 9000)
        path = tmp_path / "t.csv"
        blocks = [(ids[:10], values[:10]), (ids[10:], values[10:]), ([], [])]
        write_table(path, ["id", "v"], "dg", blocks)
        assert path.read_bytes() == csv_writer_bytes(
            ["id", "v"], zip(ids.tolist(), format_floats(values)))

    def test_detections_with_an_empty_class_hint(self, tmp_path):
        table = detection_table([det(0, -0.0, 1e-07, hint=VehicleClass.TRUCK),
                                 det(3, 1234567.0, -1.0)])
        path = tmp_path / "01_detections.csv"
        write_detections(table, path)
        assert path.read_bytes() == csv_writer_bytes(
            ["frame", "cx", "cy", "length", "width", "class"],
            [[0, "0", "1e-07", "4.5", "2", "Truck"], [3, "1.23457e+06", "-1", "4.5", "2", ""]])


class TestWriteRows:
    COLUMNS = ["id", "v", "ok", "side"]
    ROWS = [(1, None, True, "toLeft"), (2, -0.0, False, "toRight"),
            (np.int64(3), 1 / 3, np.bool_(True), "")]

    def test_csv_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows(path, self.COLUMNS, iter(self.ROWS))
        assert path.read_text() == \
            "id,v,ok,side\n1,,1,toLeft\n2,0,0,toRight\n3,0.333333,1,\n"

    def test_json_records(self, tmp_path):
        path = tmp_path / "t.json"
        write_json_rows(path, self.COLUMNS, iter(self.ROWS))
        assert json.loads(path.read_text()) == [
            {"id": 1, "v": None, "ok": True, "side": "toLeft"},
            {"id": 2, "v": 0.0, "ok": False, "side": "toRight"},
            {"id": 3, "v": 0.333333, "ok": True, "side": ""},
        ]
        assert '"v": 0.0,' in path.read_text()  # 0.0, not -0.0

    def test_no_rows(self, tmp_path):
        write_rows(tmp_path / "t.csv", self.COLUMNS, [])
        write_json_rows(tmp_path / "t.json", self.COLUMNS, [])
        assert (tmp_path / "t.csv").read_text() == "id,v,ok,side\n"
        assert (tmp_path / "t.json").read_text() == "[]\n"
