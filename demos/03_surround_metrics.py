"""Neighbor assignment and DHW/THW/TTC on a closing two-vehicle scene.

A faster car approaches a slower truck in the same lane while a third car
cruises alongside on the left. The per-frame surround data shows how the
neighbor slots fill and how the headway metrics evolve as the gap closes.
"""

import numpy as np

from hwtracks import (
    DrivingDirection,
    ScenarioScript,
    VehicleClass,
    VehicleSpec,
    compute_surround,
    generate_truth,
)

script = ScenarioScript(
    seed=3,
    duration=12.0,  # the gap closes at ~11 m/s; stop before contact
    vehicles=(
        VehicleSpec(vehicle_class=VehicleClass.CAR,
                    direction=DrivingDirection.LOWER, entry_lane=1,
                    entry_x=0.0, initial_speed=33.0),            # ego, closing
        VehicleSpec(vehicle_class=VehicleClass.TRUCK,
                    direction=DrivingDirection.LOWER, entry_lane=1,
                    entry_x=150.0, initial_speed=22.0, length=14.0),
        VehicleSpec(vehicle_class=VehicleClass.CAR,
                    direction=DrivingDirection.LOWER, entry_lane=2,
                    entry_x=2.0, initial_speed=33.0),            # left neighbor
    ),
)
truth = generate_truth(script)
surround = compute_surround(truth.tracks, truth.meta)

ego = truth.tracks[0]
columns = surround[ego.track_id]  # one row per frame of the ego track
times = ego.frames / truth.meta.frame_rate
print("ego car (track 1) closing on the truck (track 2), "
      "car 3 running alongside on the left\n")
print(" time   preceding  leftAlongside      DHW       THW       TTC")


def fmt(value, unit):
    return f"{value:7.2f} {unit}" if value >= 0 else "      n/a"


for i in range(0, ego.num_frames, 2 * int(truth.meta.frame_rate)):  # every 2 s
    print(f"{times[i]:5.1f}s  {columns.preceding_id[i]:>9}  "
          f"{columns.left_alongside_id[i]:>13}  {fmt(columns.dhw[i], 'm')}  "
          f"{fmt(columns.thw[i], 's')}  {fmt(columns.ttc[i], 's')}")

closing = np.flatnonzero(columns.ttc > 0)
if closing.size:
    worst = closing[np.argmin(columns.ttc[closing])]
    print(f"\nminimum TTC {columns.ttc[worst]:.2f} s at t={times[worst]:.1f} s "
          f"(DHW {columns.dhw[worst]:.1f} m)")
print("THW = bumper gap / ego speed; TTC = bumper gap / closing speed; "
      "-1 marks undefined values")
