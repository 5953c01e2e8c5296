import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from hwtracks import DrivingDirection, compute_surround
from hwtracks import surround as surround_module
from hwtracks.surround import NO_VEHICLE, UNDEFINED, left_lane_id
from conftest import (
    LOWER, UPPER, make_meta, make_state, row_at, straight_track, surround_rows,
    track_from_states,
)


def vehicle_at(track_id, direction, lane, x, vx=25.0, length=4.5, frame=0):
    """A one-frame track and its state."""
    boundaries = UPPER if direction is DrivingDirection.UPPER else LOWER
    y = (boundaries[lane - 1] + boundaries[lane]) / 2
    state = make_state(frame=frame, x=x, y=y, vx=vx * direction.travel_sign,
                       lane_id=lane)
    track = track_from_states([state], track_id=track_id, direction=direction,
                              length=length, mean_speed=abs(vx))
    return track, state


def neighbors(vehicles, meta):
    """compute_surround over the one-frame tracks of ``(track, state)``
    pairs, as one record per vehicle in input order."""
    surround = compute_surround([t for t, _ in vehicles], meta)
    return [surround_rows(surround[t.track_id], [t.track_id])[0] for t, _ in vehicles]


def brute_force_neighbors(vehicles, meta):
    """Independent O(n^2) oracle straight from the slot definitions."""
    out = {}
    for track, state in vehicles:
        direction = track.direction
        sign = direction.travel_sign

        def candidates(lane):
            return [
                (t, s)
                for t, s in vehicles
                if t.track_id != track.track_id
                and t.direction is direction
                and s.lane_id == lane
            ]

        def nearest(pool, ahead):
            best = None
            for t, s in pool:
                delta = (s.x - state.x) * sign
                if delta == 0 or (delta > 0) != ahead:
                    continue
                key = (abs(s.x - state.x), t.track_id)
                if best is None or key < best[0]:
                    best = (key, t.track_id)
            return best[1] if best else NO_VEHICLE

        preceding = nearest(candidates(state.lane_id), ahead=True)
        following = nearest(candidates(state.lane_id), ahead=False)

        def side_slots(lane):
            if lane < 1 or lane > meta.lane_count(direction):
                return NO_VEHICLE, NO_VEHICLE, NO_VEHICLE
            pool = candidates(lane)
            best = None
            for t, s in pool:
                if abs(s.x - state.x) <= (t.length + track.length) / 2:
                    key = (abs(s.x - state.x), t.track_id)
                    if best is None or key < best[0]:
                        best = (key, t.track_id)
            alongside = best[1] if best else NO_VEHICLE
            rest = [(t, s) for t, s in pool if t.track_id != alongside]
            return nearest(rest, True), alongside, nearest(rest, False)

        lp, la, lf = side_slots(left_lane_id(state.lane_id, direction))
        rp, ra, rf = side_slots(2 * state.lane_id - left_lane_id(state.lane_id, direction))

        dhw = thw = ttc = UNDEFINED
        if preceding != NO_VEHICLE:
            lead_t, lead_s = next(
                (t, s) for t, s in vehicles if t.track_id == preceding
            )
            dhw = max(abs(lead_s.x - state.x) - (lead_t.length + track.length) / 2, 0.0)
            ve, vl = abs(state.vx), abs(lead_s.vx)
            thw = dhw / ve if ve > 0.1 else UNDEFINED
            ttc = dhw / (ve - vl) if (ve - vl) > 0.1 else UNDEFINED
        out[track.track_id] = dict(
            preceding=preceding, following=following,
            left=(lp, la, lf), right=(rp, ra, rf), dhw=dhw, thw=thw, ttc=ttc,
        )
    return out


def oracle_mismatches(frames, vehicles, meta):
    """Track ids whose surround record differs from the oracle in any slot or
    metric (exact comparison); ``frames`` must cover ``vehicles``."""
    want = brute_force_neighbors(vehicles, meta)
    assert sorted(sf.track_id for sf in frames) == sorted(want)
    return [
        sf.track_id for sf in frames
        if (sf.preceding_id, sf.following_id,
            (sf.left_preceding_id, sf.left_alongside_id, sf.left_following_id),
            (sf.right_preceding_id, sf.right_alongside_id, sf.right_following_id),
            sf.dhw, sf.thw, sf.ttc)
        != tuple(want[sf.track_id][k] for k in ("preceding", "following", "left",
                                                "right", "dhw", "thw", "ttc"))
    ]


def tie_scene(rng, n_vehicles, frame=0):
    """A random scene with x on a 2.5 m grid and few lengths and speeds, so
    that equal distances, equal x and exact overlaps are common."""
    return [
        vehicle_at(track_id, rng.choice(list(DrivingDirection)), rng.randint(1, 2),
                   2.5 * rng.randint(0, 40), rng.choice([20.0, 25.0, 30.0]),
                   rng.choice([4.5, 5.0, 10.0]), frame)
        for track_id in range(1, n_vehicles + 1)
    ]


def random_scene(rng, n_vehicles, frame=0):
    vehicles = []
    for track_id in range(1, n_vehicles + 1):
        direction = rng.choice([DrivingDirection.UPPER, DrivingDirection.LOWER])
        lane = rng.randint(1, 2)
        x = rng.uniform(0, 420)
        vx = rng.uniform(10, 45)
        length = rng.uniform(3.5, 16.0)
        vehicles.append(vehicle_at(track_id, direction, lane, x, vx, length, frame))
    return vehicles


def headway_pair(gap, v_ego, v_lead, len_ego=4.5, len_lead=4.5,
                 direction=DrivingDirection.LOWER, x_ego=100.0):
    """(dhw, thw, ttc) that compute_surround gives an ego with a lead vehicle
    ``gap`` metres ahead, bumper to bumper, in the same lane."""
    x_lead = x_ego + direction.travel_sign * (gap + (len_ego + len_lead) / 2)
    ego = vehicle_at(1, direction, 1, x_ego, v_ego, len_ego)
    lead = vehicle_at(2, direction, 1, x_lead, v_lead, len_lead)
    sf = neighbors([ego, lead], make_meta())[0]
    assert sf.preceding_id == 2
    return sf.dhw, sf.thw, sf.ttc


class TestHeadwayMetrics:
    def test_equal_speeds_thw_defined_ttc_not(self):
        dhw, thw, ttc = headway_pair(50.0, 25.0, 25.0)
        assert dhw == pytest.approx(50.0)
        assert thw == pytest.approx(2.0)
        assert ttc == UNDEFINED

    def test_closing_gives_ttc(self):
        _, _, ttc = headway_pair(30.0, 30.0, 20.0)
        assert ttc == pytest.approx(3.0)

    def test_bumper_to_bumper_definition(self, meta):
        ego = vehicle_at(1, DrivingDirection.LOWER, 1, 100.0, 20.0, length=5.0)
        lead = vehicle_at(2, DrivingDirection.LOWER, 1, 120.0, 20.0, length=15.0)
        sf = neighbors([ego, lead], meta)[0]
        assert sf.dhw == pytest.approx(20.0 - 10.0)

    def test_slow_ego_thw_undefined(self):
        # below the speed floor both THW and TTC (closing 0.05 m/s) are undefined
        dhw, thw, ttc = headway_pair(10.0, 0.05, 0.0)
        assert dhw == pytest.approx(10.0)
        assert thw == ttc == UNDEFINED

    @given(
        gap=st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        v_ego=st.floats(min_value=0.2, max_value=50.0, allow_nan=False),
        shift=st.floats(min_value=-500, max_value=500, allow_nan=False),
    )
    def test_thw_times_speed_is_dhw_and_translation_invariance(self, gap, v_ego, shift):
        dhw, thw, _ = headway_pair(gap, v_ego, v_ego, x_ego=10.0)
        assert abs(thw * v_ego - dhw) <= 1e-9 * max(dhw, 1.0)
        dhw2, _, _ = headway_pair(gap, v_ego, v_ego, x_ego=10.0 + shift)
        assert dhw2 == pytest.approx(dhw, abs=1e-9)

    def test_mirror_invariance_across_carriageways(self):
        # the same geometry mirrored to the upper carriageway (x reversed)
        low = headway_pair(35.5, 30.0, 20.0)
        up = headway_pair(35.5, 30.0, 20.0, direction=DrivingDirection.UPPER,
                          x_ego=-100.0)
        assert low == pytest.approx(up)
        assert low[2] == pytest.approx(35.5 / 10.0)


class TestGapSize:
    def test_simple_gap(self):
        # lead rear at 150 - l/2, tail front at 100 + l/2
        dhw, _, _ = headway_pair(40.0, 25.0, 25.0, len_ego=10.0, len_lead=10.0)
        assert dhw == 40.0

    def test_bumper_to_bumper_zero(self, meta):
        tail = vehicle_at(1, DrivingDirection.LOWER, 1, 100.0)
        lead = vehicle_at(2, DrivingDirection.LOWER, 1, 104.5)
        sf = neighbors([tail, lead], meta)[0]
        assert sf.preceding_id == 2
        assert sf.dhw == 0.0

    def test_randomized_matches_direct_formula(self, meta):
        rng = random.Random(4)
        for _ in range(200):
            x_tail = rng.uniform(0, 300)
            lt, ll = rng.uniform(3, 16), rng.uniform(3, 16)
            x_lead = x_tail + rng.uniform(0, 80) + (lt + ll) / 2
            tail = vehicle_at(1, DrivingDirection.LOWER, 1, x_tail, length=lt)
            lead = vehicle_at(2, DrivingDirection.LOWER, 1, x_lead, length=ll)
            sf = neighbors([tail, lead], meta)[0]
            assert sf.dhw == pytest.approx(abs(x_lead - x_tail) - (lt + ll) / 2)


class TestAssignNeighbors:
    def test_single_vehicle_empty_scene(self, meta):
        vehicles = [vehicle_at(1, DrivingDirection.LOWER, 1, 100.0)]
        [sf] = neighbors(vehicles, meta)
        assert sf.preceding_id == sf.following_id == NO_VEHICLE
        assert sf.left_alongside_id == sf.right_alongside_id == NO_VEHICLE
        assert sf.dhw == sf.thw == sf.ttc == UNDEFINED

    def test_two_vehicles_same_lane(self, meta):
        a = vehicle_at(1, DrivingDirection.LOWER, 1, 130.0)
        b = vehicle_at(2, DrivingDirection.LOWER, 1, 100.0)
        sfs = {sf.track_id: sf for sf in neighbors([a, b], meta)}
        assert sfs[2].preceding_id == 1
        assert sfs[1].following_id == 2
        assert sfs[1].preceding_id == NO_VEHICLE

    def test_left_right_flip_with_carriageway(self, meta):
        # lane 1 -> lane 2 is the driver's left on the lower carriageway,
        # the driver's right on the upper one.
        assert left_lane_id(1, DrivingDirection.LOWER) == 2
        assert left_lane_id(2, DrivingDirection.UPPER) == 1

        ego = vehicle_at(1, DrivingDirection.LOWER, 1, 100.0)
        other = vehicle_at(2, DrivingDirection.LOWER, 2, 130.0)
        sfs = {sf.track_id: sf for sf in neighbors([ego, other], meta)}
        assert sfs[1].left_preceding_id == 2

        ego_u = vehicle_at(1, DrivingDirection.UPPER, 1, 100.0)
        other_u = vehicle_at(2, DrivingDirection.UPPER, 2, 70.0)
        sfs = {sf.track_id: sf for sf in neighbors([ego_u, other_u], meta)}
        assert sfs[1].right_preceding_id == 2

    def test_alongside_requires_overlap(self, meta):
        ego = vehicle_at(1, DrivingDirection.LOWER, 1, 100.0, length=4.5)
        beside = vehicle_at(2, DrivingDirection.LOWER, 2, 103.0, length=4.5)
        sfs = {sf.track_id: sf for sf in neighbors([ego, beside], meta)}
        assert sfs[1].left_alongside_id == 2  # |dx|=3 <= 4.5
        far = vehicle_at(2, DrivingDirection.LOWER, 2, 106.0, length=4.5)
        sfs = {sf.track_id: sf for sf in neighbors([ego, far], meta)}
        assert sfs[1].left_alongside_id == NO_VEHICLE
        assert sfs[1].left_preceding_id == 2

    def test_six_vehicle_block_matches_oracle(self, meta):
        # 3-lane carriageway for this one
        meta3 = make_meta(
            lower_lane_boundaries=(12.0, 15.7, 19.4, 23.1),
            lower_speed_limits=(math.inf,) * 3,
        )
        def at(track_id, lane, x):
            boundaries = (12.0, 15.7, 19.4, 23.1)
            y = (boundaries[lane - 1] + boundaries[lane]) / 2
            state = make_state(x=x, y=y, lane_id=lane)
            return track_from_states([state], track_id=track_id, mean_speed=25.0), state
        vehicles = [
            at(1, 2, 100.0),          # ego
            at(2, 2, 140.0), at(3, 2, 60.0),
            at(4, 3, 101.0),          # left alongside
            at(5, 3, 150.0), at(6, 1, 80.0),
        ]
        got = {sf.track_id: sf for sf in neighbors(vehicles, meta3)}
        want = brute_force_neighbors(vehicles, meta3)
        for tid, sf in got.items():
            w = want[tid]
            assert (sf.preceding_id, sf.following_id) == (w["preceding"], w["following"])
            assert (sf.left_preceding_id, sf.left_alongside_id, sf.left_following_id) == w["left"]
            assert (sf.right_preceding_id, sf.right_alongside_id, sf.right_following_id) == w["right"]

    @pytest.mark.parametrize("seed", range(20))
    def test_random_scenes_match_oracle(self, meta, seed):
        rng = random.Random(seed)
        vehicles = random_scene(rng, rng.randint(1, 50))
        got = {sf.track_id: sf for sf in neighbors(vehicles, meta)}
        want = brute_force_neighbors(vehicles, meta)
        assert set(got) == set(want)
        for tid, sf in got.items():
            w = want[tid]
            assert sf.preceding_id == w["preceding"], tid
            assert sf.following_id == w["following"], tid
            assert (sf.left_preceding_id, sf.left_alongside_id,
                    sf.left_following_id) == w["left"], tid
            assert (sf.right_preceding_id, sf.right_alongside_id,
                    sf.right_following_id) == w["right"], tid
            assert sf.dhw == pytest.approx(w["dhw"])
            assert sf.thw == pytest.approx(w["thw"])
            assert sf.ttc == pytest.approx(w["ttc"])
        # a tie-heavy scene, compared exactly
        ties = tie_scene(rng, rng.randint(2, 40))
        assert oracle_mismatches(neighbors(ties, meta), ties, meta) == []

    def test_preceding_following_symmetry(self, meta):
        rng = random.Random(99)
        vehicles = random_scene(rng, 30)
        sfs = {sf.track_id: sf for sf in neighbors(vehicles, meta)}
        for tid, sf in sfs.items():
            if sf.preceding_id != NO_VEHICLE:
                lead = sfs[sf.preceding_id]
                if lead.following_id == tid:
                    # mutual nearest: symmetric by definition
                    assert sf.preceding_id == lead.track_id


def assert_every_frame_matches_oracle():
    """compute_surround on 60 random tracks against the oracle, frame by
    frame; returns the tracks."""
    # Both carriageways with three lanes each share lane numbers and x
    # values, so any leak between frames or carriageways shows.
    meta3 = make_meta(
        upper_lane_boundaries=(0.0, 3.7, 7.4, 11.1),
        lower_lane_boundaries=(16.0, 19.7, 23.4, 27.1),
        upper_speed_limits=(math.inf,) * 3, lower_speed_limits=(math.inf,) * 3,
    )
    rng = random.Random(2024)
    tracks = []
    for track_id in range(1, 61):
        direction = rng.choice(list(DrivingDirection))
        lane = rng.randint(1, 3)
        to_lane = rng.choice([k for k in (lane - 1, lane + 1) if 1 <= k <= 3])
        change_at = rng.randint(0, 40)
        x0, step = 2.5 * rng.randint(0, 40), rng.choice([0.0, 0.5, 1.0])
        sign = direction.travel_sign
        states = [
            make_state(frame=frame, x=x0 + sign * step * i, vx=sign * step * 25,
                       lane_id=lane if i < change_at else to_lane)
            for i, frame in enumerate(range(rng.randint(0, 30), rng.randint(35, 70)))
        ]
        tracks.append(track_from_states(
            states, track_id=track_id, direction=direction,
            length=rng.choice([4.5, 5.0, 10.0]), mean_speed=step * 25,
        ))
    surround = compute_surround(tracks, meta3)
    assert list(surround) == [t.track_id for t in tracks]
    rows = {t.track_id: surround_rows(surround[t.track_id], [t.track_id] * t.num_frames)
            for t in tracks}
    by_id = sorted(tracks, key=lambda t: t.track_id)
    for frame in range(max(t.final_frame for t in tracks) + 1):
        present = [(t, row_at(t, frame)) for t in by_id
                   if row_at(t, frame) is not None]
        got = [rows[t.track_id][frame - t.initial_frame] for t, _ in present]
        assert oracle_mismatches(got, present, meta3) == [], frame
    return tracks


class TestComputeSurround:
    def test_no_tracks(self, meta):
        assert compute_surround([], meta) == {}

    def test_every_frame_matches_oracle(self):
        assert_every_frame_matches_oracle()

    def test_frame_blocks_match_oracle(self, monkeypatch):
        # Blocks of a few rows: the scene's frames hold up to about 40 rows,
        # so most frames are searched alone, each larger than one block.
        searched = []

        def search(frame, *columns):
            searched.append(len(frame))
            return real_search(frame, *columns)

        real_search = surround_module._search
        monkeypatch.setattr(surround_module, "_BLOCK_ROWS", 5)
        monkeypatch.setattr(surround_module, "_search", search)
        tracks = assert_every_frame_matches_oracle()
        assert sum(searched) == sum(t.num_frames for t in tracks)  # each row once
        assert len(searched) > 50 and max(searched) > 5

    def test_traced_peak_per_row(self):
        # 48,000 rows in 600 frames. The eleven output columns take 56 B per
        # row (int32 ids) and the search runs in blocks of about 4,096 rows,
        # so its temporaries do not grow with the recording: the peak
        # measured 88 B per row, and the bound leaves 14 % slack. int64 ids
        # measured 123 B, and one search over all rows 298 B.
        tracks = [straight_track(track_id=i + 1, x0=6.0 * i, n_frames=600,
                                 lane_id=i % 2 + 1, y=13.85 + 3.7 * (i % 2))
                  for i in range(80)]
        meta = make_meta()
        compute_surround(tracks[:2], meta)  # numpy's lazy imports happen untraced
        tracemalloc.start()
        try:
            compute_surround(tracks, meta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * 48000, peak / 48000

    def test_alongside_at_the_rounding_edge_of_the_window(self, meta):
        # The centres lie (4.4962... + 11.6072...) / 2 apart to within
        # rounding: the overlap test holds, while the unrounded window bound
        # x + reach rounds to just below the other centre.
        vehicles = [
            vehicle_at(1, DrivingDirection.LOWER, 1, -0.17380179845947685,
                       length=4.496219824652468),
            vehicle_at(2, DrivingDirection.LOWER, 2, 7.87793418885057,
                       length=11.607252149967625),
        ]
        surround = compute_surround([t for t, _ in vehicles], meta)
        got = [surround_rows(surround[t.track_id], [t.track_id])[0] for t, _ in vehicles]
        assert got[0].left_alongside_id == 2
        assert oracle_mismatches(got, vehicles, meta) == []

    def test_aligned_with_states(self, meta):
        a = straight_track(track_id=1, x0=0.0, n_frames=50)
        b = straight_track(track_id=2, x0=30.0, n_frames=80, first_frame=10)
        surround = compute_surround([a, b], meta)
        for track in (a, b):
            assert [len(column) for column in surround[track.track_id]] == [
                track.num_frames] * 11
        # while both alive: 2 follows... b is ahead (larger x, lower carriageway)
        assert surround[1].preceding_id[20] == 2
        assert surround[2].following_id[20 - b.initial_frame] == 1

    def test_neighbors_only_while_alive(self, meta):
        a = straight_track(track_id=1, x0=0.0, n_frames=100)
        b = straight_track(track_id=2, x0=30.0, n_frames=20)
        surround = compute_surround([a, b], meta)
        assert surround[1].preceding_id[10] == 2
        assert surround[1].preceding_id[50] == NO_VEHICLE
