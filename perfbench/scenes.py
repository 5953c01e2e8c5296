"""Seeded scenario scripts for the benchmark workloads.

Each function returns JSON-ready script dicts in the format ``hwtracks synth
--script`` reads. The scene layout is fixed per workload, so every seed gives
the same amount of work; the seed drives only the detection noise, and the
same seed gives the same inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List

UPPER = [0.0, 3.7, 7.4, 11.1]
LOWER = [16.0, 19.7, 23.4, 27.1]
ROAD_LENGTH = 420.0
LANECHANGE_DURATION = 93.0


def _vehicle(direction: str, lane: int, entry_time: float, lifetime: float,
             speed: float, vehicle_class: str = "Car",
             lane_changes: List[Dict] = ()) -> Dict:
    return {
        "class": vehicle_class,
        "direction": direction,
        "entry_lane": lane,
        "entry_time": round(entry_time, 2),
        "exit_time": round(entry_time + lifetime, 2),
        "entry_x": 0.0 if direction == "lower" else ROAD_LENGTH,
        "initial_speed": speed,
        "lane_changes": list(lane_changes),
    }


def lanechange_script(seed: int) -> Dict:
    """Short-lived vehicles at one speed: a platoon in lane 3 and, half a
    headway behind each of its members, a lane-2 vehicle that changes into
    the gap. Every lane change therefore has a lane-3 vehicle behind it at
    the crossing, which makes it a cut-in, and no gap ever closes."""
    vehicles: List[Dict] = []
    headway, lifetime, speed = 2.4, 8.0, 28.0
    for direction in ("lower", "upper"):
        t = 0.0
        while t + headway / 2 + lifetime < LANECHANGE_DURATION:
            vehicles.append(_vehicle(direction, 3, t, lifetime, speed))
            entry = t + headway / 2
            vehicles.append(_vehicle(
                direction, 2, entry, lifetime, speed,
                lane_changes=[{"start_time": round(entry + 2.0, 2),
                               "duration": 3.5, "to_lane": 3}]))
            t += headway
    return {
        "seed": seed, "duration": LANECHANGE_DURATION, "road_length": ROAD_LENGTH,
        "recording_id": 1,
        "upper_lane_boundaries": UPPER, "lower_lane_boundaries": LOWER,
        "noise": {"position_sigma": 0.05},
        "vehicles": vehicles,
    }


def fleet_scripts(seed: int, n_recordings: int = 8,
                  duration: float = 60.0) -> List[Dict]:
    """Independent 60 s recordings of sparse traffic: short-lived vehicles in
    lanes 1-2 of both carriageways and a few changes into the free lane 3.
    Noise level, false-positive rate and entry phase vary with the recording
    id, so the amount of work is the same for every seed; the seed picks the
    per-recording corruption seeds."""
    rng = random.Random(seed)
    scripts = []
    for rid in range(1, n_recordings + 1):
        vehicles: List[Dict] = []
        lifetime = 10.0
        for direction in ("lower", "upper"):
            for lane, speed, headway in ((1, 25.0, 9.0), (2, 30.0, 9.5)):
                t, k = 0.1 * rid, 0
                while t + lifetime < duration:
                    lane_changes = []
                    if lane == 2 and k % 4 == 1:
                        lane_changes = [{"start_time": round(t + 3.0, 2),
                                         "duration": 4.0, "to_lane": 3}]
                    vehicles.append(_vehicle(
                        direction, lane, t, lifetime, speed,
                        "Truck" if lane == 1 and k % 5 == 0 else "Car",
                        lane_changes))
                    t += headway
                    k += 1
        scripts.append({
            "seed": rng.randrange(1, 2**31), "duration": duration,
            "road_length": ROAD_LENGTH, "recording_id": rid,
            "upper_lane_boundaries": UPPER, "lower_lane_boundaries": LOWER,
            "noise": {"position_sigma": (0.05, 0.1)[rid % 2],
                      "dropout_probability": 0.005,
                      "dropout_burst_length": 2,
                      "false_positive_rate": (0.1, 0.2)[rid // 2 % 2]},
            "vehicles": vehicles,
        })
    return scripts
