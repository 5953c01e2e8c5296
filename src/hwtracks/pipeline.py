"""Pipeline configuration and per-recording stage drivers.

The CLI chains these stages over one or many recordings; recordings are
independent, so they parallelize freely while every per-recording output
stays a pure function of (inputs, config).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from . import stats as statsmod
from .core import write_json
from .dataset_io import (
    Recording,
    RecordingFileSet,
    read_recording,
    read_recording_meta,
    write_recording,
)
from .lane_change import (
    CutInScenario,
    DegenerateEpisode,
    FitConfig,
    InsufficientData,
    LaneChangeFitResult,
    extract_cut_ins,
    fit_episode,
)
from .maneuvers import ManeuverConfig, ManeuverEpisode, ManeuverKind, detect_all
from .smoothing import SmootherConfig, smooth_series, smooth_track_with_diagnostics
from .surround import compute_surround
from .tracking import TrackerConfig, build_tracks, read_detections


@dataclass(frozen=True)
class StatsConfig:
    mean_speed_bin: float = 1.0     # m/s
    speed_bin: float = 2.0          # m/s, decile band over tailing speed
    thw_bin: float = 0.25           # s
    truck_ratio_window: float = 60.0  # s

    def __post_init__(self) -> None:
        for name in ("mean_speed_bin", "speed_bin", "thw_bin", "truck_ratio_window"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class PipelineConfig:
    """Union of all stage configs; a fully defaulted instance is valid."""

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    maneuvers: ManeuverConfig = field(default_factory=ManeuverConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    stats: StatsConfig = field(default_factory=StatsConfig)
    jobs: int = 1
    seed_override: Optional[int] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _merge(defaults, data, prefix: str = ""):
    """``defaults`` with the keys of the JSON object ``data`` replaced. A key
    that holds a section merges key by key, an ``int`` field takes an int
    only, not a bool or a float, and a ``float`` field takes an int or a
    float, not a bool, whose float value is finite, and stores that float.
    Errors name the key as ``section.key``."""
    where = f"config section {prefix[:-1]!r}" if prefix else "config root"
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(defaults)}
    unknown = set(data) - types.keys()
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {sorted(unknown)}")
    changes = {}
    for key, value in data.items():
        if dataclasses.is_dataclass(getattr(defaults, key)):
            value = _merge(getattr(defaults, key), value, f"{prefix}{key}.")
        elif types[key] in ("int", "Optional[int]") and value is not None \
                and type(value) is not int:
            raise ValueError(f"{prefix}{key} must be an integer, got {value!r}")
        elif types[key] == "float":
            if type(value) is bool or not isinstance(value, (int, float)):
                raise ValueError(f"{prefix}{key} must be a number, got {value!r}")
            try:
                number = float(value)
            except OverflowError:  # an int beyond the float range
                number = math.inf
            if not math.isfinite(number):
                raise ValueError(f"{prefix}{key} must be finite, got {value!r}")
            value = number
        changes[key] = value
    return dataclasses.replace(defaults, **changes)


def load_pipeline_config(path: Optional[Path] = None, **overrides) -> PipelineConfig:
    """PipelineConfig from an optional JSON file plus keyword overrides.

    The file may set any subset of the sections ``tracker``, ``smoother``,
    ``maneuvers``, ``fit``, ``stats`` and the scalars ``jobs`` and
    ``seed_override``; overrides that are not None win over the file.
    """
    cfg = PipelineConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = _merge(cfg, json.load(fh))
    return _merge(cfg, {k: v for k, v in overrides.items() if v is not None})


# ---------------------------------------------------------------------------
# Stages


def track_stage(
    detections_path: Path, meta_path: Path, cfg: PipelineConfig, output_dir: Path
) -> RecordingFileSet:
    """detections + site meta -> tracked, smoothed, annotated recording files.

    Also writes ``NN_smoothingReport.json`` with per-track diagnostics (RMS
    deviation of the smoothed positions from the measurements, covariance
    health).
    """
    meta = read_recording_meta(meta_path)
    detections = read_detections(detections_path, meta.max_frame)
    raw_tracks = build_tracks(detections, cfg.tracker)
    # The smoothed series, covariances included, are dropped with the
    # comprehension, before surround and writing.
    assembled = [smooth_track_with_diagnostics(raw, smoothed, meta)
                 for raw, smoothed in zip(raw_tracks, smooth_series(
                     raw_tracks, cfg.smoother, 1.0 / meta.frame_rate))]
    tracks = [track for track, _ in assembled]
    report = [
        {
            "trackId": diag.track_id,
            "frames": diag.frames,
            "measured": diag.measured,
            "rmsDeviation": round(diag.rms_deviation, 6),
            "usedPinv": diag.used_pinv,
        }
        for _, diag in assembled
    ]
    surround = compute_surround(tracks, meta)
    paths = write_recording(meta, tracks, surround, output_dir)
    write_json(output_dir / f"{meta.recording_id:02d}_smoothingReport.json",
               {"recordingId": meta.recording_id, "tracks": report})
    return paths


@dataclass(frozen=True)
class ExtractResult:
    """What the corpus statistics need of one recording; no per-row data, so
    it stays small when it crosses a process boundary."""

    recording_id: int
    mean_speeds: Tuple[float, ...]  # one per track, in track order
    truck_ratio: statsmod.TruckRatioSeries
    episodes: Tuple[ManeuverEpisode, ...]
    fits: Tuple[Tuple[ManeuverEpisode, LaneChangeFitResult], ...]
    cut_ins: Tuple[CutInScenario, ...]
    fit_failures: int


def events_stage(recording: Recording, cfg: PipelineConfig) -> ExtractResult:
    """Episodes, cut-ins and the per-recording statistics for one loaded
    recording, without lane-change fits."""
    episodes = [e for track in recording.tracks
                for e in detect_all(track, recording.surround[track.track_id], cfg.maneuvers)]
    episodes.sort(key=lambda e: (e.track_id, e.kind.value, e.start_frame))
    cut_ins = extract_cut_ins(episodes, recording.tracks, recording.surround,
                              recording.meta)
    return ExtractResult(
        recording_id=recording.meta.recording_id,
        mean_speeds=tuple(float(t.mean_speed) for t in recording.tracks),
        truck_ratio=statsmod.truck_ratio_over_time(
            recording.tracks, cfg.stats.truck_ratio_window, recording.meta.frame_rate),
        episodes=tuple(episodes),
        fits=(),
        cut_ins=tuple(cut_ins),
        fit_failures=0,
    )


def extract_stage(recording: Recording, cfg: PipelineConfig) -> ExtractResult:
    """Episodes, lane-change fits and cut-ins for one loaded recording."""
    result = events_stage(recording, cfg)
    by_id = {t.track_id: t for t in recording.tracks}
    fits = []
    failures = 0
    for episode in result.episodes:
        if episode.kind is not ManeuverKind.LANE_CHANGE:
            continue
        try:
            fits.append(
                (episode, fit_episode(by_id[episode.track_id], episode,
                                      recording.meta, cfg.fit))
            )
        except (InsufficientData, DegenerateEpisode):
            failures += 1
    return dataclasses.replace(result, fits=tuple(fits), fit_failures=failures)


def extract_recording_files(
    paths: RecordingFileSet, cfg: PipelineConfig
) -> ExtractResult:
    return extract_stage(read_recording(paths), cfg)


def events_recording_files(
    paths: RecordingFileSet, cfg: PipelineConfig
) -> ExtractResult:
    return events_stage(read_recording(paths), cfg)
