"""Pipeline configuration and per-recording stage drivers.

The CLI chains these stages over one or many recordings; recordings are
independent, so they parallelize freely while every per-recording output
stays a pure function of (inputs, config).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from . import stats as statsmod
from .core import JsonObject, write_json
from .dataset_io import (
    Recording,
    RecordingFileSet,
    read_detections,
    read_recording,
    read_recording_meta,
    write_recording,
)
from .lane_change import (
    CutInScenario,
    FitConfig,
    LaneChangeFitResult,
    episode_samples,
    extract_cut_ins,
    fit_episode,  # not called here; perfbench/tracing.py wraps it by this name
    fit_episodes,
)
from .maneuvers import ManeuverConfig, ManeuverEpisode, ManeuverKind, detect_all
from .smoothing import SmootherConfig, smooth_series, smooth_track_with_diagnostics
from .surround import compute_surround
from .tracking import TrackerConfig, build_tracks


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

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")


def _merge(defaults, data, path: str = ""):
    """``defaults`` with the keys of the JSON object ``data`` replaced: a key
    that holds a section merges key by key, and ``JsonObject`` reads an
    ``int`` field as an integer and a ``float`` field as a number."""
    types = {f.name: f.type for f in dataclasses.fields(defaults)}
    fields = JsonObject(data, types, path, "config root")
    changes = {}
    for key in data:
        if dataclasses.is_dataclass(getattr(defaults, key)):
            changes[key] = _merge(getattr(defaults, key), data[key], fields.prefix + key)
        else:
            changes[key] = fields.integer(key) if types[key] == "int" else fields.number(key)
    return dataclasses.replace(defaults, **changes)


def load_pipeline_config(path: Optional[Path] = None, **overrides) -> PipelineConfig:
    """PipelineConfig from an optional JSON file plus keyword overrides.

    The file may set any subset of the sections ``tracker``, ``smoother``,
    ``maneuvers``, ``fit``, ``stats`` and the scalar ``jobs``; overrides
    that are not None win over the file. A file that ``json`` cannot read
    is a ValueError that names it.
    """
    cfg = PipelineConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
                raise ValueError(f"{path}: invalid JSON ({exc})") from exc
        cfg = _merge(cfg, data)
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
    # No name holds the detections: they are freed when build_tracks returns.
    raw_tracks = build_tracks(read_detections(detections_path, meta.max_frame),
                              cfg.tracker)
    # The smoothed series, covariances included, are dropped with the
    # comprehension, and the raw tracks right after it: neither is alive
    # during surround and writing.
    assembled = [smooth_track_with_diagnostics(raw, smoothed, meta)
                 for raw, smoothed in zip(raw_tracks, smooth_series(
                     raw_tracks, cfg.smoother, 1.0 / meta.frame_rate))]
    del raw_tracks
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
    cut_ins = extract_cut_ins(episodes, recording.tracks, recording.surround)
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
    lane_changes = [e for e in result.episodes if e.kind is ManeuverKind.LANE_CHANGE]
    outcomes = fit_episodes([episode_samples(by_id[e.track_id], e, recording.meta)
                             for e in lane_changes], cfg.fit)
    fits = tuple((episode, outcome) for episode, outcome in zip(lane_changes, outcomes)
                 if isinstance(outcome, LaneChangeFitResult))
    return dataclasses.replace(result, fits=fits, fit_failures=len(lane_changes) - len(fits))


def extract_recording_files(
    paths: RecordingFileSet, cfg: PipelineConfig
) -> ExtractResult:
    return extract_stage(read_recording(paths), cfg)


def events_recording_files(
    paths: RecordingFileSet, cfg: PipelineConfig
) -> ExtractResult:
    return events_stage(read_recording(paths), cfg)
