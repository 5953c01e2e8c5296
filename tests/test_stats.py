import math
import random

import numpy as np
import pytest

from hwtracks import (
    CutInScenario,
    CutInSide,
    ManeuverEpisode,
    ManeuverKind,
    VehicleClass,
    build_decile_band,
    cut_in_thw_stats,
    maneuver_summary,
    mean_speed_histogram,
    truck_ratio_over_time,
)
from hwtracks.stats import write_truck_ratio_csv
from hwtracks.surround import UNDEFINED
from conftest import straight_track


def scenario(entry_thw, tail_speed, track_id=1):
    return CutInScenario(
        track_id=track_id, tailing_id=track_id + 100, preceding_id=0,
        crossing_frame=10, entry_thw=entry_thw, tail_speed_at_entry=tail_speed,
        min_dhw=UNDEFINED, min_thw=UNDEFINED, min_ttc=UNDEFINED,
        gap_size=UNDEFINED, side=CutInSide.FROM_RIGHT,
    )


class TestHistogram:
    def test_direct_binning(self):
        tracks = [
            straight_track(track_id=1, speed=22.2),
            straight_track(track_id=2, speed=33.3),
            straight_track(track_id=3, speed=33.4),
        ]
        hist = mean_speed_histogram([t.mean_speed for t in tracks], bin_width=5.0)
        by_bin = {
            (hist.bin_edges[i], hist.bin_edges[i + 1]): c
            for i, c in enumerate(hist.counts)
        }
        assert by_bin[(20.0, 25.0)] == 1
        assert by_bin[(30.0, 35.0)] == 2
        assert hist.total == 3

    def test_empty_tracks(self):
        hist = mean_speed_histogram([], bin_width=5.0)
        assert hist.bin_edges == ()
        assert hist.counts == ()
        assert hist.total == 0

    def test_count_conservation_large(self):
        rng = random.Random(0)
        tracks = [
            straight_track(track_id=i + 1, speed=rng.uniform(5, 50), n_frames=2)
            for i in range(10_000)
        ]
        hist = mean_speed_histogram([t.mean_speed for t in tracks], bin_width=2.0)
        assert hist.total == 10_000

    @pytest.mark.parametrize("histogram", [
        lambda values: mean_speed_histogram(values, bin_width=0.1),
        lambda values: cut_in_thw_stats([scenario(v, 20.0) for v in values],
                                        speed_bin=2.0, thw_bin=0.1).histogram,
    ], ids=["mean_speed", "cut_in_thw"])
    def test_width_not_a_power_of_two_keeps_every_sample(self, histogram):
        # k * 0.1 rounds: 31.2 once got edges (31.200000000000003, 31.3)
        values = [31.2, 35.4, 4.3]
        hist = histogram(values)
        assert sum(hist.counts) == len(values)
        for v in values:
            i = int(math.floor(v / 0.1)) - int(math.floor(4.3 / 0.1))
            assert hist.counts[i] == 1


class TestTruckRatio:
    def test_all_cars_zero(self):
        tracks = [straight_track(track_id=i + 1, n_frames=10,
                                 first_frame=100 * i) for i in range(5)]
        series = truck_ratio_over_time(tracks, window=2.0, frame_rate=25.0)
        defined = [r for r in series.ratios if not math.isnan(r)]
        assert all(r == 0.0 for r in defined)

    def test_alternating_in_one_window(self):
        tracks = [
            straight_track(track_id=i + 1, n_frames=5, first_frame=i,
                           vehicle_class=(VehicleClass.TRUCK if i % 2 else
                                          VehicleClass.CAR))
            for i in range(4)
        ]
        series = truck_ratio_over_time(tracks, window=60.0, frame_rate=25.0)
        assert series.ratios == (0.5,)
        assert series.entries == (4,)

    def test_scripted_composition_recovered(self):
        # window k gets k trucks and 4-k cars, for k = 0..4
        tracks = []
        tid = 1
        fps = 25.0
        for k in range(5):
            for j in range(4):
                cls = VehicleClass.TRUCK if j < k else VehicleClass.CAR
                first = int((k * 10.0 + j * 0.2) * fps)
                tracks.append(
                    straight_track(track_id=tid, n_frames=3, first_frame=first,
                                   vehicle_class=cls)
                )
                tid += 1
        series = truck_ratio_over_time(tracks, window=10.0, frame_rate=fps)
        assert series.ratios == (0.0, 0.25, 0.5, 0.75, 1.0)
        assert series.entries == (4, 4, 4, 4, 4)

    def test_vehicle_counted_once_at_entry(self):
        # spans 3 windows but belongs to the first
        track = straight_track(track_id=1, n_frames=2000)
        series = truck_ratio_over_time([track], window=10.0, frame_rate=25.0)
        assert series.entries == (1,)

    def test_empty_window_undefined(self):
        tracks = [
            straight_track(track_id=1, n_frames=3, first_frame=0),
            straight_track(track_id=2, n_frames=3, first_frame=30 * 25),
        ]
        series = truck_ratio_over_time(tracks, window=10.0, frame_rate=25.0)
        assert len(series.ratios) == 4
        assert math.isnan(series.ratios[1])
        assert math.isnan(series.ratios[2])

    def test_empty_window_is_an_empty_cell(self, tmp_path):
        tracks = [
            straight_track(track_id=1, n_frames=3, first_frame=0,
                           vehicle_class=VehicleClass.TRUCK),
            straight_track(track_id=2, n_frames=3, first_frame=45 * 25),
        ]
        path = tmp_path / "01_truckRatio.csv"
        write_truck_ratio_csv(truck_ratio_over_time(tracks, window=20.0, frame_rate=25.0),
                              path)
        assert path.read_text() == "windowStart,entries,truckRatio\n0,1,1\n20,0,\n40,1,0\n"

    def test_permutation_invariance(self):
        rng = random.Random(1)
        tracks = [
            straight_track(
                track_id=i + 1, n_frames=5, first_frame=rng.randint(0, 1000),
                vehicle_class=rng.choice([VehicleClass.CAR, VehicleClass.TRUCK]),
            )
            for i in range(50)
        ]
        a = truck_ratio_over_time(tracks, window=7.0, frame_rate=25.0)
        shuffled = tracks[:]
        rng.shuffle(shuffled)
        b = truck_ratio_over_time(shuffled, window=7.0, frame_rate=25.0)
        assert a.entries == b.entries
        assert all(
            (math.isnan(x) and math.isnan(y)) or x == y
            for x, y in zip(a.ratios, b.ratios)
        )


class TestManeuverSummary:
    def lane_change(self, track_id, complete):
        return ManeuverEpisode(
            track_id=track_id, kind=ManeuverKind.LANE_CHANGE, start_frame=0,
            end_frame=10, from_lane=1, to_lane=2, crossing_frame=5,
            complete=complete,
        )

    def test_paper_anchor_rate(self):
        # 100 vehicles, 10 complete lane changes -> rate 0.10 per vehicle
        tracks = [straight_track(track_id=i + 1, n_frames=2) for i in range(100)]
        episodes = [self.lane_change(i + 1, True) for i in range(10)]
        summary = maneuver_summary(episodes, len(tracks))
        assert summary.lane_change_rate == pytest.approx(0.10)
        assert summary.lane_changes_complete == 10

    def test_no_episodes_all_zero(self):
        tracks = [straight_track(track_id=1, n_frames=2)]
        summary = maneuver_summary([], len(tracks))
        assert all(v == 0 for v in summary.episode_counts.values())
        assert summary.lane_changes_complete == 0
        assert summary.lane_change_rate == 0.0

    def test_scripted_counts(self):
        tracks = [straight_track(track_id=i + 1, n_frames=2) for i in range(4)]
        episodes = [
            self.lane_change(1, True),
            self.lane_change(2, False),
            ManeuverEpisode(track_id=3, kind=ManeuverKind.CRITICAL,
                            start_frame=0, end_frame=5),
            ManeuverEpisode(track_id=4, kind=ManeuverKind.FREE_DRIVING,
                            start_frame=0, end_frame=5),
        ]
        summary = maneuver_summary(episodes, len(tracks))
        assert summary.episode_counts[ManeuverKind.LANE_CHANGE.value] == 2
        assert summary.episode_counts[ManeuverKind.CRITICAL.value] == 1
        assert summary.lane_changes_complete == 1
        assert summary.lane_changes_partial == 1
        assert summary.lane_change_rate == pytest.approx(0.25)


class TestDecileBand:
    def test_degenerate_distribution(self):
        scenarios = [scenario(1.5, 20.0 + i * 0.01) for i in range(30)]
        stats = cut_in_thw_stats(scenarios, speed_bin=5.0)
        for deciles in stats.band.deciles:
            assert all(d == pytest.approx(1.5) for d in deciles)

    def test_deciles_non_decreasing_and_median(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(10, 40, 500)
        y = rng.normal(2.0, 0.5, 500)
        band = build_decile_band(x, y, bin_width=5.0)
        for center, deciles, count in zip(band.x_bin_centers, band.deciles,
                                          band.counts):
            assert all(b >= a for a, b in zip(deciles, deciles[1:]))
            values = y[(np.floor(x / 5.0) * 5.0 + 2.5) == center]
            assert deciles[4] == pytest.approx(np.median(values))
            assert count == len(values)

    def test_sparse_flag(self):
        x = [1.0] * 5 + [11.0] * 50
        y = list(range(5)) + list(range(50))
        band = build_decile_band(x, y, bin_width=10.0)
        assert band.sparse == (True, False)

    def test_linear_trend_recovered(self):
        # entry_thw = a + b * speed + noise; per-bin medians near a + b*center
        rng = np.random.default_rng(3)
        a, b = 0.4, 0.05
        scenarios = []
        for i in range(4000):
            speed = float(rng.uniform(10, 40))
            thw = a + b * speed + float(rng.normal(0, 0.1))
            scenarios.append(scenario(max(thw, 0.01), speed, track_id=i + 1))
        stats = cut_in_thw_stats(scenarios, speed_bin=3.0)
        band = stats.band
        for center, deciles, count in zip(band.x_bin_centers, band.deciles,
                                          band.counts):
            if count < 50:
                continue
            # median of noise is 0; allow a few noise sigmas over sqrt(n)
            assert deciles[4] == pytest.approx(a + b * center, abs=0.1)

    def test_undefined_entry_thw_excluded(self):
        scenarios = [scenario(UNDEFINED, 20.0), scenario(1.0, 20.0)]
        stats = cut_in_thw_stats(scenarios, speed_bin=5.0)
        assert stats.histogram.total == 1

    def test_empty_scenarios(self):
        stats = cut_in_thw_stats([], speed_bin=5.0)
        assert stats.histogram.total == 0
        assert stats.band.x_bin_centers == ()
