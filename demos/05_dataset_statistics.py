"""Corpus statistics: speed histogram, truck ratio, maneuvers, cut-in THW.

Builds a small corpus of scripted recordings with a known composition (truck
share drifting over time, lane changes with tailing vehicles) and prints the
aggregated statistics a validation campaign would look at.
"""

import math

from hwtracks import (
    DrivingDirection,
    ManeuverConfig,
    ScenarioScript,
    ScriptedLaneChange,
    VehicleClass,
    VehicleSpec,
    compute_surround,
    cut_in_thw_stats,
    detect_all,
    extract_cut_ins,
    generate_truth,
    maneuver_summary,
    mean_speed_histogram,
    truck_ratio_over_time,
)


def corpus_script():
    """One long recording with two non-interacting populations.

    A car/truck platoon runs in lane 1 on its own stretch (entry headways
    sized so faster vehicles never catch slower ones), while each cut-in
    scene gets a private 600 m stretch: one lane changer plus a slightly
    slower tailing vehicle already on the target lane.
    """
    duration = 400.0
    lifetime = 25.0
    vehicles = []

    # platoon with a truck share that grows over time
    t = 0.0
    prev_speed = None
    k = 0
    while t + lifetime < duration:
        is_truck = (k % 6) < (k // 8)
        speed = 21.0 + (k % 3) if is_truck else 25.0 + (k % 4)
        if prev_speed is not None:
            # headway large enough that any speed surplus cannot close the
            # gap within the 25 s lifetime
            catch = max(speed - prev_speed, 0.0) * lifetime
            t += max(10.0, (catch + 25.0) / prev_speed)
        vehicles.append(
            VehicleSpec(
                vehicle_class=VehicleClass.TRUCK if is_truck else VehicleClass.CAR,
                direction=DrivingDirection.LOWER,
                entry_lane=1,
                entry_time=round(t, 2),
                exit_time=round(t + lifetime, 2),
                entry_x=-20_000.0,
                initial_speed=float(speed),
                length=14.0 if is_truck else 4.5,
            )
        )
        prev_speed = speed
        k += 1

    # isolated cut-in scenes, one per 600 m stretch
    k = 0
    t = 0.0
    while t + lifetime < duration:
        v_changer = 26.0 + (k % 8)
        v_tail = v_changer - 1.0 - (k % 3)
        t_cross = t + 8.0 + 4.5 / 2  # maneuver starts at +8, crosses mid-way
        x_cross = v_changer * (t_cross - t)
        behind = 50.0 + 8.0 * (k % 8)
        vehicles.append(
            VehicleSpec(
                vehicle_class=VehicleClass.CAR,
                direction=DrivingDirection.LOWER,
                entry_lane=1,
                entry_time=round(t, 2),
                exit_time=round(t + lifetime, 2),
                entry_x=600.0 * k,
                initial_speed=v_changer,
                lane_changes=(
                    ScriptedLaneChange(start_time=round(t + 8.0, 2),
                                       duration=4.5, to_lane=2),
                ),
            )
        )
        vehicles.append(
            VehicleSpec(
                vehicle_class=VehicleClass.CAR,
                direction=DrivingDirection.LOWER,
                entry_lane=2,
                entry_time=round(t, 2),
                exit_time=round(t + lifetime, 2),
                entry_x=600.0 * k + x_cross - behind - v_tail * (t_cross - t),
                initial_speed=v_tail,
            )
        )
        t += 12.0
        k += 1
    return ScenarioScript(seed=1, duration=duration, vehicles=tuple(vehicles))


truth = generate_truth(corpus_script())
surround = compute_surround(truth.tracks, truth.meta)
cfg = ManeuverConfig()
episodes = []
for track in truth.tracks:
    episodes.extend(detect_all(track, surround[track.track_id], cfg))
cut_ins = extract_cut_ins(episodes, truth.tracks, surround)

print(f"corpus: {len(truth.tracks)} vehicles, {len(episodes)} episodes, "
      f"{len(cut_ins)} cut-ins\n")

hist = mean_speed_histogram([t.mean_speed for t in truth.tracks], bin_width=2.0)
print("mean track speed histogram (m/s):")
peak = max(hist.counts)
for i, count in enumerate(hist.counts):
    if count:
        bar = "#" * max(1, round(30 * count / peak))
        print(f"  [{hist.bin_edges[i]:4.0f}, {hist.bin_edges[i + 1]:4.0f})  "
              f"{count:>4}  {bar}")

series = truck_ratio_over_time(truth.tracks, window=60.0,
                               frame_rate=truth.meta.frame_rate)
print("\ntruck ratio per 60 s window (share of entering vehicles):")
for start, entries, ratio in zip(series.window_starts, series.entries,
                                 series.ratios):
    shown = "n/a" if math.isnan(ratio) else f"{100 * ratio:4.0f} %"
    print(f"  t = {start:5.0f} s: {shown}  ({entries} vehicles)")

summary = maneuver_summary(episodes, len(truth.tracks))
print("\nmaneuver summary:")
for kind, count in summary.episode_counts.items():
    print(f"  {kind:<17} {count:>5}")
print(f"  complete lane changes: {summary.lane_changes_complete}, "
      f"partial: {summary.lane_changes_partial}, "
      f"rate {summary.lane_change_rate:.2f} per vehicle")

stats = cut_in_thw_stats(cut_ins, speed_bin=2.0)
print("\nentry THW of the tailing vehicle at cut-in, deciles by tail speed:")
print("  speed bin   n    d1     median   d9")
for center, deciles, count, sparse in zip(
    stats.band.x_bin_centers, stats.band.deciles, stats.band.counts,
    stats.band.sparse,
):
    tag = " (sparse)" if sparse else ""
    print(f"  {center:6.1f}  {count:>4}  {deciles[0]:5.2f}   "
          f"{deciles[4]:6.2f}  {deciles[8]:5.2f}{tag}")
