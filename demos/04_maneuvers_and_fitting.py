"""Maneuver mining and the five-parameter lane-change model fit.

Runs the maneuver detectors (free driving / vehicle following with
hysteresis, critical TTC/THW frames, dwell-confirmed lane changes) on a
scene with a cut-in, then fits the lane-change trajectory model to the
detected episode and compares the recovered parameters against the script.
"""

from hwtracks import (
    DrivingDirection,
    ManeuverConfig,
    ManeuverKind,
    NoiseSpec,
    ScenarioScript,
    ScriptedLaneChange,
    SmootherConfig,
    TrackerConfig,
    VehicleClass,
    VehicleSpec,
    build_tracks,
    compute_surround,
    corrupt,
    detect_all,
    extract_cut_ins,
    fit_episode,
    generate_truth,
    smooth_track,
)

script = ScenarioScript(
    seed=11,
    duration=24.0,
    vehicles=(
        VehicleSpec(vehicle_class=VehicleClass.CAR,
                    direction=DrivingDirection.LOWER, entry_lane=1,
                    entry_x=110.0, initial_speed=29.0,
                    lane_changes=(ScriptedLaneChange(start_time=7.0,
                                                     duration=5.5,
                                                     to_lane=2),)),
        VehicleSpec(vehicle_class=VehicleClass.CAR,
                    direction=DrivingDirection.LOWER, entry_lane=2,
                    entry_x=0.0, initial_speed=27.0),
    ),
)
truth = generate_truth(script)

# realistic input: pixel noise, then the full tracker + smoother pipeline
detections = corrupt(truth.tracks, NoiseSpec(position_sigma=0.10),
                     seed=script.seed, meta=truth.meta)
raw_tracks = build_tracks(detections, TrackerConfig())
smoother = SmootherConfig()
tracks = [smooth_track(raw, smoother, truth.meta) for raw in raw_tracks]
surround = compute_surround(tracks, truth.meta)

cfg = ManeuverConfig()
episodes = []
for track in tracks:
    episodes.extend(detect_all(track, surround[track.track_id], cfg))

print("detected maneuver episodes:")
for ep in episodes:
    span = f"frames [{ep.start_frame:>3}, {ep.end_frame:>3}]"
    if ep.kind is ManeuverKind.LANE_CHANGE:
        extra = (f" lanes {ep.from_lane}->{ep.to_lane}, crossing "
                 f"{ep.crossing_frame}, complete={ep.complete}")
    else:
        extra = ""
    print(f"  track {ep.track_id}: {ep.kind.value:<16} {span}{extra}")

lane_change = next(e for e in episodes if e.kind is ManeuverKind.LANE_CHANGE)
changer = next(t for t in tracks if t.track_id == lane_change.track_id)
fit = fit_episode(changer, lane_change, truth.meta)
scripted = truth.lane_changes[0].params

print("\nlane-change model fit vs scripted truth:")
print(f"  {'parameter':<12} {'fitted':>9} {'scripted':>9}")
rows = [
    ("d_start", fit.params.d_start, scripted.d_start),
    ("d_end", fit.params.d_end, scripted.d_end),
    ("v_start", fit.params.v_start, scripted.v_start),
    ("v_end", fit.params.v_end, scripted.v_end),
    ("duration", fit.params.duration, scripted.duration),
    ("t0", fit.t0, truth.lane_changes[0].t0),
]
for name, got, want in rows:
    print(f"  {name:<12} {got:>9.3f} {want:>9.3f}")
print(f"  lateral rmse {fit.lateral_rmse * 100:.1f} cm, "
      f"converged={fit.converged} after {fit.iterations} refinement steps")

cut_ins = extract_cut_ins(episodes, tracks, surround)
for cut in cut_ins:
    print(f"\ncut-in: track {cut.track_id} enters in front of "
          f"track {cut.tailing_id} ({cut.side.value}), entry THW "
          f"{cut.entry_thw:.2f} s, min THW over the episode {cut.min_thw:.2f} s")
