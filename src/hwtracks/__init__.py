"""Highway trajectory post-processing toolkit.

Turns per-frame vehicle detections from a stabilized top-down view into
identity-stable tracks, smooths their kinematics, derives surrounding-vehicle
metrics (DHW/THW/TTC), mines maneuvers, fits the five-parameter lane-change
model and computes dataset statistics. A synthetic scene generator with
exact ground truth backs every stage's tests.

Importing the package loads none of its modules, nor numpy: each public name
below is served from its module on first use (PEP 562), so a command-line run
loads only the modules its subcommand runs.
"""

import importlib

#: Every public name of the package, by the module that defines it.
_EXPORTS = {
    "core": (
        "ContractViolation", "DetectionTable", "DrivingDirection", "KinematicState",
        "RecordingMeta", "Track", "UNLIMITED_SPEED", "VehicleClass",
        "compute_mean_speed", "lane_change_count", "nearest_lane_id",
    ),
    "dataset_io": (
        "DatasetError", "Recording", "RecordingFileSet", "ValidationIssue",
        "ValidationReport", "read_detections", "read_recording", "read_recording_meta",
        "validate", "write_detections", "write_recording",
    ),
    "lane_change": (
        "CutInScenario", "CutInSide", "DegenerateEpisode", "FitConfig",
        "InsufficientData", "LaneChangeFitResult", "LaneChangeParams", "Side",
        "episode_samples", "evaluate_model", "extract_cut_ins", "fit_episode",
        "fit_episodes", "fit_lane_change",
    ),
    "maneuvers": (
        "ManeuverConfig", "ManeuverEpisode", "ManeuverKind", "detect_all",
        "detect_critical", "detect_lane_changes", "lane_change_episodes",
        "longitudinal_episodes",
    ),
    "pipeline": ("PipelineConfig", "StatsConfig", "extract_stage", "track_stage"),
    "smoothing": (
        "NumericalFailure", "SmootherConfig", "SmoothedSeries", "SmoothingDiagnostics",
        "smooth_series", "smooth_track", "smooth_track_with_diagnostics",
    ),
    "stats": (
        "DecileBand", "Histogram", "build_decile_band", "cut_in_thw_stats",
        "maneuver_summary", "mean_speed_histogram", "truck_ratio_over_time",
    ),
    "surround": ("NO_VEHICLE", "Surround", "UNDEFINED", "compute_surround"),
    "synth": (
        "GroundTruth", "NoiseSpec", "ScenarioScript", "ScriptError",
        "ScriptedLaneChange", "SpeedSegment", "VehicleSpec", "corrupt",
        "generate_truth", "load_script",
    ),
    "tracking": ("RawTrack", "TrackerConfig", "associate_frame", "build_tracks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or a module of the package, loaded on first use."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
