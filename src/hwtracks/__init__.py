"""Highway trajectory post-processing toolkit.

Turns per-frame vehicle detections from a stabilized top-down view into
identity-stable tracks, smooths their kinematics, derives surrounding-vehicle
metrics (DHW/THW/TTC), mines maneuvers, fits the five-parameter lane-change
model and computes dataset statistics. A synthetic scene generator with
exact ground truth backs every stage's tests.
"""

from .core import (
    ContractViolation,
    DetectionTable,
    DrivingDirection,
    KinematicState,
    RecordingMeta,
    Track,
    UNLIMITED_SPEED,
    VehicleClass,
    compute_mean_speed,
    lane_change_count,
    nearest_lane_id,
)
from .dataset_io import (
    DatasetError,
    Recording,
    RecordingFileSet,
    ValidationIssue,
    ValidationReport,
    read_detections,
    read_recording,
    read_recording_meta,
    validate,
    write_detections,
    write_recording,
)
from .lane_change import (
    CutInScenario,
    CutInSide,
    DegenerateEpisode,
    FitConfig,
    InsufficientData,
    LaneChangeFitResult,
    LaneChangeParams,
    Side,
    episode_samples,
    evaluate_model,
    extract_cut_ins,
    fit_episode,
    fit_episodes,
    fit_lane_change,
)
from .maneuvers import (
    ManeuverConfig,
    ManeuverEpisode,
    ManeuverKind,
    detect_all,
    detect_critical,
    detect_lane_changes,
    label_longitudinal,
    longitudinal_episodes,
)
from .pipeline import PipelineConfig, StatsConfig, extract_stage, track_stage
from .smoothing import (
    NumericalFailure,
    SmootherConfig,
    SmoothedSeries,
    SmoothingDiagnostics,
    smooth_series,
    smooth_track,
    smooth_track_with_diagnostics,
)
from .stats import (
    DecileBand,
    Histogram,
    build_decile_band,
    cut_in_thw_stats,
    maneuver_summary,
    mean_speed_histogram,
    truck_ratio_over_time,
)
from .surround import (
    NO_VEHICLE,
    Surround,
    UNDEFINED,
    compute_surround,
)
from .synth import (
    GroundTruth,
    NoiseSpec,
    ScenarioScript,
    ScriptError,
    ScriptedLaneChange,
    SpeedSegment,
    VehicleSpec,
    corrupt,
    generate_truth,
    load_script,
)
from .tracking import (
    RawTrack,
    TrackerConfig,
    associate_frame,
    build_tracks,
)

__version__ = "0.1.0"
