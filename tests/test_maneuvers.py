import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hwtracks import (
    ContractViolation,
    DrivingDirection,
    KinematicState,
    LaneChangeParams,
    ManeuverConfig,
    ManeuverEpisode,
    ManeuverKind,
    Side,
    Surround,
    Track,
    VehicleClass,
    detect_critical,
    detect_lane_changes,
    evaluate_model,
    lane_change_count,
    longitudinal_episodes,
    nearest_lane_id,
)
from hwtracks.maneuvers import lane_change_extents
from hwtracks.surround import NO_VEHICLE, UNDEFINED
from conftest import (lane_change_oracle, make_meta, settle_extents_oracle,
                      track_from_states)

DT = 0.04


def track_from_y(ys, vys, meta, direction=DrivingDirection.LOWER, track_id=1):
    states = []
    road = meta.boundaries(direction)
    for i, (y, vy) in enumerate(zip(ys, vys)):
        assert road[0] <= y < road[-1]
        lane = int(nearest_lane_id(y, meta, direction))
        states.append(
            KinematicState(frame=i, x=25.0 * i * DT, y=y, vx=25.0, vy=vy,
                           ax=0.0, ay=0.0, lane_id=lane)
        )
    return track_from_states(states, track_id=track_id, direction=direction,
                             mean_speed=25.0)


def surround_with_thw(track, thws, ttcs=None):
    """Surround columns, one row per entry of ``thws``, with scripted thw/ttc
    toward track 99 (no preceding vehicle where the thw is None)."""
    ttcs = ttcs if ttcs is not None else [UNDEFINED] * len(thws)
    empty = np.full(len(thws), NO_VEHICLE)
    return Surround(
        np.array([NO_VEHICLE if thw is None else 99 for thw in thws]),
        *[empty] * 7,
        np.array([UNDEFINED if thw in (None, UNDEFINED) else thw * 25.0 for thw in thws]),
        np.array([UNDEFINED if thw is None else thw for thw in thws], dtype=float),
        np.array([UNDEFINED if ttc is None else ttc for ttc in ttcs], dtype=float),
    )


def constant_track(n, meta, y=13.85):
    return track_from_y([y] * n, [0.0] * n, meta)


def hysteresis_oracle(surround, cfg):
    """Independent two-state automaton, written straight from the rule."""
    labels = []
    following = False
    for preceding_id, thw in zip(surround.preceding_id.tolist(), surround.thw.tolist()):
        has_thw = preceding_id != NO_VEHICLE and thw != UNDEFINED
        if not has_thw:
            following = False
        elif following:
            if thw > cfg.following_thw_max + cfg.following_hysteresis:
                following = False
        else:
            if thw < cfg.following_thw_max:
                following = True
        labels.append(
            ManeuverKind.VEHICLE_FOLLOWING if following else ManeuverKind.FREE_DRIVING
        )
    return labels


def longitudinal_labels(track, surround, cfg):
    """The kind of the ``longitudinal_episodes`` episode at each frame of the
    track; the episodes must tile the track in order, each of the other kind
    than the one before (maximal runs)."""
    labels = []
    for episode in longitudinal_episodes(track, surround, cfg):
        assert episode.track_id == track.track_id
        assert episode.start_frame == track.initial_frame + len(labels)
        assert not labels or episode.kind is not labels[-1]
        labels += [episode.kind] * (episode.end_frame - episode.start_frame + 1)
    assert len(labels) == track.num_frames
    return labels


class TestLabelLongitudinal:
    def test_no_preceding_all_free(self, meta):
        track = constant_track(50, meta)
        frames = surround_with_thw(track, [None] * 50)
        labels = longitudinal_labels(track, frames, ManeuverConfig())
        assert all(l is ManeuverKind.FREE_DRIVING for l in labels)

    def test_constant_small_thw_all_following(self, meta):
        track = constant_track(50, meta)
        frames = surround_with_thw(track, [1.5] * 50)
        labels = longitudinal_labels(track, frames, ManeuverConfig())
        assert all(l is ManeuverKind.VEHICLE_FOLLOWING for l in labels)

    def test_hysteresis_ramp(self, meta):
        # THW ramps 4.0 -> 2.0 -> 4.0: one following episode whose exit
        # happens only above 3.5 s. Oracle: the independent automaton.
        n = 101
        ramp = list(np.linspace(4.0, 2.0, 50)) + list(np.linspace(2.0, 4.0, 51))
        track = constant_track(n, meta)
        frames = surround_with_thw(track, ramp)
        cfg = ManeuverConfig()
        labels = longitudinal_labels(track, frames, cfg)
        assert labels == hysteresis_oracle(frames, cfg)
        episodes = [
            e for e in longitudinal_episodes(track, frames, cfg)
            if e.kind is ManeuverKind.VEHICLE_FOLLOWING
        ]
        assert len(episodes) == 1
        exit_frame = episodes[0].end_frame
        assert ramp[exit_frame] <= 3.5 < ramp[exit_frame + 1]

    def test_exactly_one_label_per_frame(self, meta):
        rng = np.random.default_rng(0)
        n = 500
        thws = [None if rng.random() < 0.2 else float(rng.uniform(0.5, 5.0))
                for _ in range(n)]
        track = constant_track(n, meta)
        frames = surround_with_thw(track, thws)
        labels = longitudinal_labels(track, frames, ManeuverConfig())
        assert len(labels) == n
        assert all(
            l in (ManeuverKind.FREE_DRIVING, ManeuverKind.VEHICLE_FOLLOWING)
            for l in labels
        )

    def test_random_thw_matches_oracle(self, meta):
        rng = np.random.default_rng(7)
        n = 1000
        thws = [
            None if rng.random() < 0.15 else float(rng.uniform(2.0, 4.5))
            for _ in range(n)
        ]
        track = constant_track(n, meta)
        frames = surround_with_thw(track, thws)
        cfg = ManeuverConfig()
        assert longitudinal_labels(track, frames, cfg) == hysteresis_oracle(frames, cfg)

    def test_misaligned_surround_rejected(self, meta):
        track = constant_track(10, meta)
        frames = surround_with_thw(track, [None] * 9)
        with pytest.raises(ContractViolation):
            longitudinal_labels(track, frames, ManeuverConfig())


def critical_oracle(surround, cfg):
    flags = [
        (0.0 < ttc < cfg.critical_ttc_max) or (0.0 < thw < cfg.critical_thw_max)
        for ttc, thw in zip(surround.ttc.tolist(), surround.thw.tolist())
    ]
    episodes = []
    start = None
    for i, f in enumerate(flags):
        if f and start is None:
            start = i
        if not f and start is not None:
            episodes.append((start, i - 1))
            start = None
    if start is not None:
        episodes.append((start, len(flags) - 1))
    return episodes


class TestDetectCritical:
    def test_steady_low_thw(self, meta):
        track = constant_track(50, meta)
        frames = surround_with_thw(track, [0.8] * 50)
        [ep] = detect_critical(track, frames, ManeuverConfig())
        assert (ep.start_frame, ep.end_frame) == (0, 49)

    def test_safe_metrics_no_episode(self, meta):
        track = constant_track(50, meta)
        frames = surround_with_thw(track, [2.0] * 50, [10.0] * 50)
        assert detect_critical(track, frames, ManeuverConfig()) == []

    def test_sawtooth_matches_frame_scan_oracle(self, meta):
        n = 400
        ttcs = [3.0 + 2.5 * math.sin(i / 7.0) for i in range(n)]  # crosses 4.0
        track = constant_track(n, meta)
        frames = surround_with_thw(track, [2.0] * n, ttcs)
        cfg = ManeuverConfig()
        got = [(e.start_frame, e.end_frame) for e in detect_critical(track, frames, cfg)]
        assert got == critical_oracle(frames, cfg)

    def test_threshold_monotonicity(self, meta):
        rng = np.random.default_rng(3)
        n = 300
        thws = [float(rng.uniform(0.2, 2.5)) for _ in range(n)]
        ttcs = [float(rng.uniform(0.5, 8.0)) for _ in range(n)]
        track = constant_track(n, meta)
        frames = surround_with_thw(track, thws, ttcs)

        def critical_frames(cfg):
            out = set()
            for e in detect_critical(track, frames, cfg):
                out.update(range(e.start_frame, e.end_frame + 1))
            return out

        base = critical_frames(ManeuverConfig())
        wider_ttc = critical_frames(ManeuverConfig(critical_ttc_max=6.0))
        wider_thw = critical_frames(ManeuverConfig(critical_thw_max=1.5))
        assert base <= wider_ttc
        assert base <= wider_thw

    def test_sentinels_never_critical(self, meta):
        track = constant_track(20, meta)
        frames = surround_with_thw(track, [UNDEFINED] * 20, [UNDEFINED] * 20)
        assert detect_critical(track, frames, ManeuverConfig()) == []


def lane_change_ys(meta, lead_in=100, lead_out=100, T=5.0, d_start=1.85,
                   d_end=1.85, to_left=True):
    """y/vy samples of a model lane change from lane 1 to lane 2 (lower)."""
    params = LaneChangeParams(
        d_start=d_start, d_end=d_end, v_start=25.0, v_end=25.0, duration=T,
        side=Side.TO_LEFT if to_left else Side.TO_RIGHT,
    )
    marking = 15.7 if to_left else 15.7
    n = int(round(T / DT)) + 1
    t = np.arange(n) * DT
    _, y_rel, _, vy, _, _ = evaluate_model(params, t)
    ys = list(marking + y_rel)
    vys = list(vy)
    ys = [ys[0]] * lead_in + ys + [ys[-1]] * lead_out
    vys = [0.0] * lead_in + vys + [0.0] * lead_out
    return ys, vys


class TestDetectLaneChanges:
    def test_straight_track_no_episodes(self, meta):
        track = constant_track(200, meta)
        assert detect_lane_changes(track, ManeuverConfig()) == []

    def test_model_lane_change_detected_complete(self, meta):
        ys, vys = lane_change_ys(meta)
        track = track_from_y(ys, vys, meta)
        [ep] = detect_lane_changes(track, ManeuverConfig())
        assert ep.kind is ManeuverKind.LANE_CHANGE
        assert (ep.from_lane, ep.to_lane) == (1, 2)
        assert ep.complete is True
        # crossing = first frame on or past the marking (q reaches 0.5 at T/2)
        expected_crossing = next(i for i, y in enumerate(ys) if y >= 15.7)
        assert ep.crossing_frame == expected_crossing
        assert ep.start_frame < ep.crossing_frame < ep.end_frame

    def test_truncated_before_settle_incomplete(self, meta):
        ys, vys = lane_change_ys(meta, lead_out=0)
        # cut the tail: the maneuver never settles inside the window
        cut = 30
        track = track_from_y(ys[:-cut], vys[:-cut], meta)
        [ep] = detect_lane_changes(track, ManeuverConfig())
        assert ep.complete is False
        assert ep.end_frame == track.final_frame

    def test_bounce_is_discarded(self, meta):
        # crosses the marking, stays 10 frames (< 25 dwell), returns
        base = [13.85] * 60
        bounce = [15.8] * 10
        ys = base + bounce + [13.85] * 60
        vys = [0.0] * len(ys)
        track = track_from_y(ys, vys, meta)
        assert detect_lane_changes(track, ManeuverConfig()) == []

    def test_dwell_exactly_at_threshold_counts(self, meta):
        cfg = ManeuverConfig(lane_change_min_dwell=10)
        ys = [13.85] * 60 + [15.8] * 10 + [13.85] * 60
        track = track_from_y(ys, [0.0] * len(ys), meta)
        episodes = detect_lane_changes(track, cfg)
        # the 10-frame stay now counts, and the return is its own change
        assert len(episodes) == 2

    def test_double_lane_change_split_at_vy_minimum(self):
        meta3 = make_meta(
            lower_lane_boundaries=(12.0, 15.7, 19.4, 23.1),
            lower_speed_limits=(math.inf,) * 3,
        )
        ys1, vys1 = lane_change_ys(meta3, lead_in=80, lead_out=0)
        # second change continues from lane 2 to lane 3 after a short pause
        pause = 30  # > min dwell
        params2 = LaneChangeParams(
            d_start=1.85, d_end=1.85, v_start=25.0, v_end=25.0, duration=5.0,
            side=Side.TO_LEFT,
        )
        n2 = int(round(5.0 / DT)) + 1
        t2 = np.arange(n2) * DT
        _, y_rel2, _, vy2, _, _ = evaluate_model(params2, t2)
        ys = ys1 + [ys1[-1]] * pause + list(19.4 + y_rel2) + [19.4 + y_rel2[-1]] * 80
        vys = vys1 + [0.0] * pause + list(vy2) + [0.0] * 80
        track = track_from_y(ys, vys, meta3)
        episodes = detect_lane_changes(track, ManeuverConfig())
        assert len(episodes) == 2
        first, second = episodes
        assert (first.from_lane, first.to_lane) == (1, 2)
        assert (second.from_lane, second.to_lane) == (2, 3)
        assert first.end_frame < second.start_frame  # no overlap

    def test_episode_count_equals_dwell_confirmed_transitions(self, meta):
        rng = np.random.default_rng(5)
        cfg = ManeuverConfig()
        for _ in range(10):
            # random walk between two lane centers with long stays
            ys = []
            lane_y = {1: 13.85, 2: 17.55}
            current = 1
            for _ in range(rng.integers(3, 7)):
                stay = int(rng.integers(cfg.lane_change_min_dwell + 5, 90))
                ys += [lane_y[current]] * stay
                current = 3 - current
            track = track_from_y(ys, [0.0] * len(ys), meta)
            episodes = detect_lane_changes(track, cfg)
            transitions = lane_change_count(track.lane)
            # every stay exceeds the dwell, so all transitions are confirmed
            assert len(episodes) == transitions

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 40)), min_size=1, max_size=8),
           st.integers(1, 30), st.data())
    def test_matches_frame_scan_oracle(self, runs, min_dwell, data):
        # lane runs of any length, bounces and returns included
        lane = [lane for lane, length in runs for _ in range(length)]
        vy = data.draw(st.lists(st.sampled_from([0.0, 0.05, -0.3, 0.3]),
                                min_size=len(lane), max_size=len(lane)))
        zeros = [0.0] * len(lane)
        track = Track(track_id=3, vehicle_class=VehicleClass.CAR,
                      direction=DrivingDirection.LOWER, length=4.5, width=2.0,
                      mean_speed=25.0, initial_frame=7, x=zeros, y=zeros, vx=zeros,
                      vy=vy, ax=zeros, ay=zeros, lane=lane)
        cfg = ManeuverConfig(lane_change_min_dwell=min_dwell)
        got = [(e.track_id, e.start_frame, e.end_frame, e.from_lane, e.to_lane,
                e.crossing_frame, e.complete) for e in detect_lane_changes(track, cfg)]
        assert got == lane_change_oracle(track, cfg)


class TestLaneChangeExtents:
    # Few distinct values, exact zeros of both signs and values on the settle
    # thresholds: |vy| minima tie, rows settle on the first and last row,
    # and some series never settle.
    VY = st.sampled_from([0.0, -0.0, 0.05, -0.05, 0.1, -0.1, 0.3, -0.3, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_frame_scan_oracle(self, data):
        vy = data.draw(st.lists(self.VY, min_size=2, max_size=40))
        crossings = sorted(set(data.draw(
            st.lists(st.integers(1, len(vy) - 1), max_size=6))))
        settle = data.draw(st.sampled_from([0.05, 0.1, 0.3, 2.0]))
        got = lane_change_extents(np.array(vy), crossings, settle)
        assert got == settle_extents_oracle(vy, crossings, settle)

    def test_split_at_first_minimum_before_the_next_crossing(self):
        # never settled: both episodes would span the whole track, so they
        # split at the first of the tied minima between the crossings
        vy = [0.5, 0.5, 0.3, 0.2, 0.2, 0.4, 0.5, 0.5]
        assert lane_change_extents(np.array(vy), [2, 6], 0.1) == [
            (0, 3, False), (4, 7, False)]


class TestEpisodeType:
    def test_lane_change_requires_lanes(self):
        with pytest.raises(ValueError):
            ManeuverEpisode(track_id=1, kind=ManeuverKind.LANE_CHANGE,
                            start_frame=0, end_frame=10)

    def test_episode_ordering(self):
        with pytest.raises(ValueError):
            ManeuverEpisode(track_id=1, kind=ManeuverKind.CRITICAL,
                            start_frame=10, end_frame=5)
