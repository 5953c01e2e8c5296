"""From noisy per-frame detections back to smooth tracks.

Corrupts an exact scene with pixel-level position noise, detection dropouts
and single-frame false positives, rebuilds tracks with the gated
nearest-neighbor tracker, and smooths them with the forward Kalman filter
plus the backward RTS pass. Each track is scored against the vehicle
nearest its first detection, at that frame: the printout compares the raw
detection error on measured frames against the smoothed error on every
frame, per track.
"""

import math

import numpy as np

from hwtracks import (
    DrivingDirection,
    NoiseSpec,
    ScenarioScript,
    SmootherConfig,
    TrackerConfig,
    VehicleClass,
    VehicleSpec,
    build_tracks,
    corrupt,
    generate_truth,
    smooth_track,
)

script = ScenarioScript(
    seed=21,
    duration=20.0,
    vehicles=tuple(
        VehicleSpec(
            vehicle_class=VehicleClass.CAR,
            direction=DrivingDirection.LOWER,
            entry_lane=1 + i % 2,
            entry_x=60.0 * i,
            initial_speed=24.0 + 2.5 * i,
        )
        for i in range(4)
    ),
)
truth = generate_truth(script)

noise = NoiseSpec(
    position_sigma=0.10,        # one pixel worth of center jitter
    dropout_probability=0.01,   # occasional missed detections ...
    dropout_burst_length=5,     # ... lasting a few frames (occlusion)
    false_positive_rate=0.3,    # spurious single-frame detections
)
detections = corrupt(truth.tracks, noise, seed=script.seed, meta=truth.meta)
n_frames = max(t.final_frame for t in truth.tracks) + 1
n_det = len(detections)
print(f"{n_frames} frames, {n_det} detections "
      f"(~{n_det / n_frames:.2f} per frame, four real vehicles)")

raw_tracks = build_tracks(detections, TrackerConfig())
print(f"tracker produced {len(raw_tracks)} confirmed tracks "
      f"(false positives never reach the confirmation threshold)")


def nearest_vehicle(raw):
    """The truth track nearest the raw track's first detection, at its frame."""
    frame = raw.first_frame
    alive = [t for t in truth.tracks if t.initial_frame <= frame <= t.final_frame]
    return min(alive, key=lambda t: math.hypot(t.x[frame - t.initial_frame] - raw.x[0],
                                               t.y[frame - t.initial_frame] - raw.y[0]))


cfg = SmootherConfig()
print("\n track  vehicle  frames  coasted   raw RMSE   smoothed RMSE")
for raw in raw_tracks:
    want = nearest_vehicle(raw)
    track = smooth_track(raw, cfg, truth.meta)
    # Track rows are consecutive frames, so the truth rows of the same
    # frames are one slice of its columns.
    rows = slice(track.initial_frame - want.initial_frame,
                 track.final_frame - want.initial_frame + 1)
    exp_x, exp_y = want.x[rows], want.y[rows]
    coasted = len(raw.x) - raw.measured_count
    m = raw.measured  # a coasted frame has no raw position (NaN)
    raw_rmse = math.sqrt(np.mean((raw.x[m] - exp_x[m]) ** 2 + (raw.y[m] - exp_y[m]) ** 2))
    smooth_rmse = math.sqrt(np.mean((track.x - exp_x) ** 2 + (track.y - exp_y) ** 2))
    print(f"  {track.track_id:>4}  {want.track_id:>7}  {track.num_frames:>6}  {coasted:>7}"
          f"  {raw_rmse:>8.3f} m  {smooth_rmse:>10.3f} m")
print("\nsmoothing cuts the positioning error well below the pixel size")
