import math

import pytest
from hypothesis import given, strategies as st

from hwtracks import (
    ContractViolation,
    Detection,
    DrivingDirection,
    Track,
    VehicleClass,
    assign_neighbors,
    compute_mean_speed,
    lane_id_of,
    nearest_lane_id,
)
from hwtracks.core import sweep_frames
from hwtracks.surround import NO_VEHICLE, UNDEFINED
from conftest import make_meta, make_state, straight_track
from test_surround import vehicle_at


def boundaries_meta(boundaries):
    lanes = len(boundaries) - 1
    return make_meta(
        lower_lane_boundaries=tuple(boundaries),
        lower_speed_limits=tuple(math.inf for _ in range(lanes)),
    )


class TestLaneIdOf:
    def test_interval_membership(self):
        meta = boundaries_meta([0.0, 3.5, 7.0])
        assert lane_id_of(1.0, meta, DrivingDirection.LOWER) == 1

    def test_lower_edge_inclusive(self):
        meta = boundaries_meta([0.0, 3.5, 7.0])
        assert lane_id_of(3.5, meta, DrivingDirection.LOWER) == 2

    def test_outside_span_is_off_road(self):
        meta = boundaries_meta([0.0, 3.5, 7.0])
        assert lane_id_of(8.0, meta, DrivingDirection.LOWER) is None
        assert lane_id_of(-0.1, meta, DrivingDirection.LOWER) is None
        assert lane_id_of(7.0, meta, DrivingDirection.LOWER) is None

    @given(st.floats(min_value=-5.0, max_value=12.0,
                     allow_nan=False, allow_infinity=False))
    def test_matches_linear_scan(self, y):
        boundaries = [0.0, 3.5, 7.0]
        meta = boundaries_meta(boundaries)
        expected = None
        for k in range(len(boundaries) - 1):
            if boundaries[k] <= y < boundaries[k + 1]:
                expected = k + 1
        assert lane_id_of(y, meta, DrivingDirection.LOWER) == expected

    def test_nearest_lane_clamps(self):
        meta = boundaries_meta([0.0, 3.5, 7.0])
        assert nearest_lane_id(-1.0, meta, DrivingDirection.LOWER) == 1
        assert nearest_lane_id(9.0, meta, DrivingDirection.LOWER) == 2
        assert nearest_lane_id(1.0, meta, DrivingDirection.LOWER) == 1


class TestAheadOf:
    """Which vehicle is ahead along the travel direction, as the preceding and
    following slots of assign_neighbors see it."""

    def pair(self, direction, x_a, x_b, frame_b=0):
        a = vehicle_at(1, direction, 1, x_a)
        b = vehicle_at(2, direction, 1, x_b, frame=frame_b)
        return assign_neighbors([a, b], make_meta())

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

    def test_frame_mismatch_is_contract_violation(self):
        with pytest.raises(ContractViolation):
            self.pair(DrivingDirection.LOWER, 100.0, 90.0, frame_b=1)


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
        with pytest.raises(ValueError):
            make_state(x=math.nan)
        with pytest.raises(ValueError):
            make_state(vy=math.inf)

    def test_track_requires_consecutive_frames(self):
        states = (make_state(frame=0), make_state(frame=2, x=1.0))
        with pytest.raises(ValueError):
            Track(
                track_id=1,
                vehicle_class=VehicleClass.CAR,
                direction=DrivingDirection.LOWER,
                length=4.5,
                width=2.0,
                states=states,
                mean_speed=25.0,
            )

    def test_track_requires_positive_extent(self):
        with pytest.raises(ValueError):
            straight_track(length=0.0)

    def test_detection_validation(self):
        with pytest.raises(ValueError):
            Detection(frame=-1, cx=0, cy=0, length=4, width=2)
        with pytest.raises(ValueError):
            Detection(frame=0, cx=0, cy=0, length=0, width=2)

    def test_meta_boundary_validation(self):
        with pytest.raises(ValueError):
            make_meta(upper_lane_boundaries=(0.0, 3.7))  # only one lane
        with pytest.raises(ValueError):
            make_meta(upper_lane_boundaries=(3.7, 0.0, 7.4))  # not increasing
        with pytest.raises(ValueError):
            make_meta(upper_speed_limits=(math.inf,))  # wrong limit count

    def test_mean_speed_recomputation(self):
        track = straight_track(speed=31.25, n_frames=200)
        recomputed = compute_mean_speed(track.states)
        assert abs(recomputed - track.mean_speed) <= 1e-9 * abs(track.mean_speed)

    def test_mean_speed_uses_magnitudes(self):
        track = straight_track(direction=DrivingDirection.UPPER, x0=400.0,
                               y=1.85, speed=20.0)
        assert track.mean_speed == pytest.approx(20.0)
        assert all(s.vx < 0 for s in track.states)

    def test_lane_consistency_of_builders(self):
        meta = make_meta()
        track = straight_track()
        for s in track.states:
            assert lane_id_of(s.y, meta, track.direction) == s.lane_id

    def test_lane_change_count(self):
        states = [make_state(frame=i) for i in range(3)]
        states += [make_state(frame=3, y=17.5, lane_id=2)]
        track = Track(
            track_id=1,
            vehicle_class=VehicleClass.CAR,
            direction=DrivingDirection.LOWER,
            length=4.5,
            width=2.0,
            states=tuple(states),
            mean_speed=25.0,
        )
        assert track.lane_change_count() == 1


class TestSweepFrames:
    def test_matches_state_at_on_every_frame(self):
        tracks = [
            straight_track(track_id=7, first_frame=3, n_frames=4),
            straight_track(track_id=2, first_frame=5, n_frames=6, x0=50.0),
            straight_track(track_id=4, first_frame=3, n_frames=1, x0=90.0),
        ]
        swept = list(sweep_frames(tracks))
        assert [frame for frame, _ in swept] == list(range(11))
        by_id = sorted(tracks, key=lambda t: t.track_id)
        for frame, present in swept:
            assert present == [(t, t.state_at(frame)) for t in by_id
                               if t.state_at(frame) is not None]

    def test_no_tracks_no_frames(self):
        assert list(sweep_frames([])) == []
