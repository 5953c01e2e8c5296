"""Script a synthetic highway scene and inspect its exact ground truth.

A scenario script fully determines the scene: lane layout, per-vehicle entry,
speed profile and scripted lane changes. generate_truth() turns it into exact
per-frame tracks plus the analytically derived lane-change episodes and
cut-in scenarios, and write_recording() stores everything in the canonical
three-table CSV format.
"""

from pathlib import Path

from hwtracks import (
    DrivingDirection,
    ScenarioScript,
    ScriptedLaneChange,
    SpeedSegment,
    VehicleClass,
    VehicleSpec,
    compute_surround,
    generate_truth,
    write_recording,
)

script = ScenarioScript(
    seed=7,
    duration=30.0,
    vehicles=(
        VehicleSpec(
            vehicle_class=VehicleClass.CAR,
            direction=DrivingDirection.LOWER,
            entry_lane=1,
            entry_x=80.0,
            initial_speed=31.0,
            lane_changes=(
                ScriptedLaneChange(start_time=8.0, duration=5.0, to_lane=2),
            ),
        ),
        VehicleSpec(
            vehicle_class=VehicleClass.TRUCK,
            direction=DrivingDirection.LOWER,
            entry_lane=2,
            entry_x=0.0,
            initial_speed=23.0,
            length=14.0,
            width=2.5,
        ),
        VehicleSpec(
            vehicle_class=VehicleClass.CAR,
            direction=DrivingDirection.UPPER,
            entry_lane=1,
            entry_x=420.0,
            initial_speed=36.0,
            speed_segments=(SpeedSegment(duration=30.0, acceleration=-0.3),),
        ),
    ),
)

truth = generate_truth(script)

print(f"scene: {len(truth.tracks)} vehicles over {script.duration:.0f} s "
      f"at {script.frame_rate:.0f} Hz")
for track in truth.tracks:
    s0, s1 = track.states[0], track.states[-1]
    print(f"  track {track.track_id}: {track.vehicle_class.value:<5} "
          f"{track.direction.name.lower():<5} lanes {s0.lane_id}->{s1.lane_id}  "
          f"mean speed {track.mean_speed:5.1f} m/s  "
          f"x {s0.x:7.1f} -> {s1.x:7.1f} m")

print("\nscripted lane changes (analytic ground truth):")
for lc in truth.lane_changes:
    p, ep = lc.params, lc.episode
    print(f"  track {ep.track_id}: lane {ep.from_lane}->{ep.to_lane} "
          f"crossing frame {ep.crossing_frame}, episode frames "
          f"[{ep.start_frame}, {ep.end_frame}], complete={ep.complete}")
    print(f"    d_start={p.d_start:.2f} m d_end={p.d_end:.2f} m "
          f"v_start={p.v_start:.1f} m/s v_end={p.v_end:.1f} m/s "
          f"T={p.duration:.1f} s side={p.side.value}")

print("\ncut-in scenarios seen by the new-lane tailing vehicle:")
for cut in truth.cut_ins:
    print(f"  track {cut.track_id} cuts in front of track {cut.tailing_id} "
          f"from the {cut.side.value.removeprefix('from').lower()}: "
          f"entry THW {cut.entry_thw:.2f} s, min DHW {cut.min_dhw:.1f} m")

out = Path("demo_output/scene")
surround = compute_surround(truth.tracks, truth.meta)
paths = write_recording(truth.meta, truth.tracks, surround, out)
print(f"\nrecording written to {out}/ "
      f"({paths.tracks_path.stat().st_size} bytes of track rows)")
