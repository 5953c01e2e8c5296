"""Dataset statistics: histograms, truck ratio, maneuver tallies, THW bands.

All aggregations are order-independent and conserve their sample counts.
Quantiles interpolate linearly between order statistics; a "decile band"
holds the ten quantile levels 0.1 .. 1.0 per bin, so its 5th entry is the
median and the last is the bin maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import Track, VehicleClass, write_json, write_rows
from .lane_change import CutInScenario
from .maneuvers import ManeuverEpisode, ManeuverKind
from .surround import UNDEFINED

DECILE_LEVELS = tuple((k + 1) / 10.0 for k in range(10))
#: Bins with fewer samples than this are flagged sparse in decile bands.
SPARSE_BIN_THRESHOLD = 10


@dataclass(frozen=True)
class Histogram:
    bin_edges: Tuple[float, ...]   # len = bins + 1, strictly increasing
    counts: Tuple[int, ...]        # per half-open bin [edge[i], edge[i+1])

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __post_init__(self) -> None:
        if self.bin_edges and len(self.bin_edges) != len(self.counts) + 1:
            raise ValueError("need one more edge than bins")
        for a, b in zip(self.bin_edges, self.bin_edges[1:]):
            if not b > a:
                raise ValueError("bin edges must be strictly increasing")


def _width_histogram(values: Sequence[float], bin_width: float) -> Histogram:
    """Histogram of values in bins [k*w, (k+1)*w) spanning them all.

    A value counts in bin ``floor(v / w)``, the key that also chose its
    edges, so no value falls out of range when ``k * w`` rounds."""
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    keys = np.floor(np.asarray(values, dtype=float) / bin_width).astype(np.int64)
    if keys.size == 0:
        return Histogram(bin_edges=(), counts=())
    k_min = int(keys.min())
    counts = np.bincount(keys - k_min)
    return Histogram(
        bin_edges=tuple(k * bin_width for k in range(k_min, k_min + counts.size + 1)),
        counts=tuple(int(c) for c in counts),
    )


def mean_speed_histogram(mean_speeds: Sequence[float], bin_width: float) -> Histogram:
    """Histogram of per-track mean speeds in bins [k*w, (k+1)*w)."""
    return _width_histogram(mean_speeds, bin_width)


@dataclass(frozen=True)
class TruckRatioSeries:
    """Per-window truck share; NaN marks windows no vehicle entered."""

    window_starts: Tuple[float, ...]  # seconds
    ratios: Tuple[float, ...]
    entries: Tuple[int, ...]          # vehicles entering each window


def truck_ratio_over_time(
    tracks: Sequence[Track], window: float, frame_rate: float
) -> TruckRatioSeries:
    """Truck ratio per time window, counting each vehicle once at its entry.

    A vehicle belongs to the window containing its first frame, so the
    per-window entry counts partition the vehicles. ``frame_rate`` is the
    recording's, which turns entry frames into seconds.
    """
    if not window > 0:
        raise ValueError("window must be positive")
    keys = np.array([int(t.initial_frame / frame_rate // window) for t in tracks],
                    dtype=np.int64)
    vehicles = np.bincount(keys)
    trucks = np.bincount(keys, [t.vehicle_class is VehicleClass.TRUCK for t in tracks],
                         minlength=vehicles.size)
    ratios = np.divide(trucks, vehicles, out=np.full(vehicles.size, math.nan),
                       where=vehicles > 0)
    return TruckRatioSeries(
        window_starts=tuple(k * window for k in range(vehicles.size)),
        ratios=tuple(ratios.tolist()),
        entries=tuple(vehicles.tolist()),
    )


@dataclass(frozen=True)
class ManeuverSummary:
    episode_counts: Dict[str, int]
    lane_changes_complete: int
    lane_changes_partial: int
    vehicle_count: int
    lane_change_rate: Optional[float]  # complete lane changes per vehicle


def maneuver_summary(
    episodes: Sequence[ManeuverEpisode], vehicle_count: int
) -> ManeuverSummary:
    counts = {kind.value: 0 for kind in ManeuverKind}
    complete = partial = 0
    for ep in episodes:
        counts[ep.kind.value] += 1
        if ep.kind is ManeuverKind.LANE_CHANGE:
            if ep.complete:
                complete += 1
            else:
                partial += 1
    return ManeuverSummary(
        episode_counts=counts,
        lane_changes_complete=complete,
        lane_changes_partial=partial,
        vehicle_count=vehicle_count,
        lane_change_rate=complete / vehicle_count if vehicle_count else None,
    )


@dataclass(frozen=True)
class DecileBand:
    """Per-bin deciles of a y variable over bins of an x variable."""

    x_bin_centers: Tuple[float, ...]
    deciles: Tuple[Tuple[float, ...], ...]  # per bin, levels 0.1 .. 1.0
    counts: Tuple[int, ...]
    sparse: Tuple[bool, ...]                # fewer than SPARSE_BIN_THRESHOLD samples


def build_decile_band(
    x: Sequence[float], y: Sequence[float], bin_width: float
) -> DecileBand:
    """Decile band of y binned by x (empty bins are dropped)."""
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("x and y must have the same length")
    if xa.size == 0:
        return DecileBand((), (), (), ())
    keys = np.floor(xa / bin_width).astype(int)
    centers = []
    deciles = []
    counts = []
    sparse = []
    for k in sorted(set(int(v) for v in keys)):
        values = ya[keys == k]
        centers.append((k + 0.5) * bin_width)
        deciles.append(tuple(float(q) for q in np.quantile(values, DECILE_LEVELS)))
        counts.append(int(values.size))
        sparse.append(values.size < SPARSE_BIN_THRESHOLD)
    return DecileBand(
        x_bin_centers=tuple(centers),
        deciles=tuple(deciles),
        counts=tuple(counts),
        sparse=tuple(sparse),
    )


@dataclass(frozen=True)
class CutInThwStats:
    histogram: Histogram
    band: DecileBand


def cut_in_thw_stats(
    scenarios: Sequence[CutInScenario],
    speed_bin: float,
    thw_bin: float = 0.25,
) -> CutInThwStats:
    """Entry-THW distribution and its decile band versus tailing speed.

    Only scenarios with a defined entry THW contribute.
    """
    defined = [s for s in scenarios if s.entry_thw != UNDEFINED]
    thw = [s.entry_thw for s in defined]
    speed = [s.tail_speed_at_entry for s in defined]
    return CutInThwStats(
        histogram=_width_histogram(thw, thw_bin),
        band=build_decile_band(speed, thw, speed_bin),
    )


# ---------------------------------------------------------------------------
# Plot-ready exports


def write_histogram_csv(histogram: Histogram, path: Path) -> None:
    edges = histogram.bin_edges
    write_rows(path, ["binStart", "binEnd", "count"],
               zip(edges[:-1], edges[1:], histogram.counts))


def write_truck_ratio_csv(series: TruckRatioSeries, path: Path) -> None:
    write_rows(path, ["windowStart", "entries", "truckRatio"], zip(
        series.window_starts, series.entries,
        [None if math.isnan(ratio) else ratio for ratio in series.ratios]))


def write_decile_band_csv(band: DecileBand, path: Path) -> None:
    columns = ["binCenter", "count", "sparse"] + [f"d{k + 1}" for k in range(10)]
    write_rows(path, columns, (
        (center, count, is_sparse, *deciles)
        for center, count, is_sparse, deciles in zip(
            band.x_bin_centers, band.counts, band.sparse, band.deciles)))


def write_summary_json(
    summary: ManeuverSummary, cut_in_count: int, path: Path
) -> None:
    write_json(path, {
        "episodeCounts": summary.episode_counts,
        "laneChangesComplete": summary.lane_changes_complete,
        "laneChangesPartial": summary.lane_changes_partial,
        "vehicleCount": summary.vehicle_count,
        "laneChangeRate": summary.lane_change_rate,
        "cutInCount": cut_in_count,
    })
