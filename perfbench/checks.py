"""Output checks against the synthetic ground truth that ``synth`` writes.

Runs outside the timed region, on the first pass of a run (later passes must
reproduce its bytes). Every check is one attempted operation: the
exit status of each subcommand, the public ``read_recording`` of each truth
and output recording, the presence of the extract outputs, the agreement of
``stats`` with ``extract`` on the corpus statistics, and quality floors on
the tracks, lane changes and cut-ins scored against truth.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from chain import SRC, ChainRun, file_digests

# An output row this close to a truth vehicle's center at its frame matches it.
MATCH_GATE_M = 2.0
# An output track belongs to the truth vehicle most of its rows match.
MAJORITY = 0.5
# A detected lane change or cut-in recalls a truth one within this many frames.
CROSSING_TOLERANCE = 12
# Quality floors below which the outputs count as wrong.
FLOORS = {
    "pos_err_p95_m": ("max", 0.25),
    "tracks_per_vehicle": ("max", 1.25),
    "track_precision": ("min", 0.9),
    "vehicle_coverage": ("min", 1.0),
    "lc_recall": ("min", 0.9),
    "cutin_recall": ("min", 0.9),
}
PER_RECORDING_OUTPUTS = ("episodes.csv", "episodes.json", "laneChangeFits.csv",
                         "cutIns.csv", "cutIns.json", "truckRatio.csv")
CORPUS_OUTPUTS = ("meanSpeedHistogram.csv", "cutInThwHistogram.csv",
                  "cutInThwBand.csv", "summary.json")


@dataclass
class CheckReport:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    quality: Dict[str, float] = field(default_factory=dict)
    rows: int = 0
    tracks: int = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def _rows(recording) -> np.ndarray:
    """(id, frame, x, y) per row of a recording."""
    return np.array([(t.track_id, s.frame, s.x, s.y)
                     for t in recording.tracks for s in t.states], dtype=float)


def match_rows(truth: np.ndarray, out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each output row, the nearest truth id at the same frame (-1 beyond
    the gate) and the distance to it."""
    order = np.argsort(truth[:, 1], kind="stable")
    t_id, t_frame, t_x, t_y = (truth[order, k] for k in range(4))
    lo = np.searchsorted(t_frame, out[:, 1], "left")
    hi = np.searchsorted(t_frame, out[:, 1], "right")
    width = max(int((hi - lo).max(initial=0)), 1)
    idx = lo[:, None] + np.arange(width)[None, :]
    valid = idx < hi[:, None]
    idx = np.minimum(idx, len(t_id) - 1)
    d2 = (t_x[idx] - out[:, 2:3]) ** 2 + (t_y[idx] - out[:, 3:4]) ** 2
    d2[~valid] = np.inf
    best = np.argmin(d2, axis=1)
    rows = np.arange(len(out))
    dist = np.sqrt(d2[rows, best])
    nearest = np.where(dist <= MATCH_GATE_M, t_id[idx[rows, best]], -1)
    return nearest.astype(int), dist


@dataclass
class Matching:
    assigned: Dict[int, int]      # output track id -> truth vehicle id
    n_tracks: int
    n_vehicles: int
    errors: np.ndarray            # position error of each matched row, m


def match_recording(truth_rec, out_rec) -> Matching:
    truth, out = _rows(truth_rec), _rows(out_rec)
    nearest, dist = match_rows(truth, out)
    assigned = {}
    for track_id in np.unique(out[:, 0]):
        ids = nearest[out[:, 0] == track_id]
        hits = ids[ids >= 0]
        if hits.size == 0:
            continue
        values, counts = np.unique(hits, return_counts=True)
        if counts.max() >= MAJORITY * ids.size:
            assigned[int(track_id)] = int(values[np.argmax(counts)])
    # position error of the rows that match their track's vehicle; rows that
    # match another vehicle are identity errors, scored by the track counts
    owner = np.array([assigned.get(int(t), -1) for t in out[:, 0]])
    return Matching(assigned, int(np.unique(out[:, 0]).size),
                    int(np.unique(truth[:, 0]).size), dist[(owner >= 0) & (nearest == owner)])


def _read_csv(path: Path) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _lane_changes(path: Path, mapping: Optional[Dict[int, int]]) -> List[Tuple]:
    out = []
    for row in _read_csv(path):
        if row["kind"] != "LaneChange":
            continue
        tid = int(row["trackId"])
        if mapping is not None:
            tid = mapping.get(tid, -1)
        out.append((tid, int(row["fromLane"]), int(row["toLane"]),
                    int(row["crossingFrame"])))
    return out


def _cut_ins(path: Path, mapping: Optional[Dict[int, int]]) -> List[Tuple]:
    out = []
    for row in _read_csv(path):
        ids = [int(row["trackId"]), int(row["tailingId"])]
        if mapping is not None:
            ids = [mapping.get(i, -1) for i in ids]
        out.append((*ids, int(row["crossingFrame"])))
    return out


def _recalled(truth: Sequence[Tuple], found: Sequence[Tuple]) -> int:
    """Truth events with a found event of the same identity (all fields but
    the last) whose crossing frame (the last field) is within tolerance."""
    by_identity: Dict[Tuple, List[int]] = {}
    for event in found:
        by_identity.setdefault(event[:-1], []).append(event[-1])
    return sum(
        any(abs(f - event[-1]) <= CROSSING_TOLERANCE
            for f in by_identity.get(event[:-1], ()))
        for event in truth
    )


def _ratio(num: float, den: float) -> float:
    # An empty truth set is recalled in full.
    return num / den if den else 1.0


def check_runs(report: CheckReport, chain: ChainRun) -> None:
    """Exit status of every subcommand and the validate report."""
    for run in chain.all_runs():
        report.record(run.returncode == 0,
                      f"{' '.join(run.argv[3:5])} exited {run.returncode}: "
                      f"{run.stderr.strip()[-300:]}")
    validate_runs = chain.runs.get("validate", [])
    if validate_runs and validate_runs[0].returncode == 0:
        issues = json.loads(validate_runs[0].stdout)["issues"]
        report.record(issues == [], f"validate reported {issues[:3]}")


def check_chain(chain: ChainRun, recording_ids: Sequence[int]) -> CheckReport:
    """Score one chain pass against truth; every check counts as one op."""
    report = CheckReport()
    check_runs(report, chain)
    check_outputs(report, chain, recording_ids)
    return report


def check_outputs(report: CheckReport, chain: ChainRun,
                  recording_ids: Sequence[int]) -> None:
    """The output files of a chain pass against the truth files."""
    from hwtracks.dataset_io import RecordingFileSet, read_recording

    errors = []
    totals = {"assigned": 0, "tracks": 0, "vehicles": 0,
              "covered": 0, "lc": 0, "lc_hit": 0, "ci": 0, "ci_hit": 0}
    scored = 0
    for rid in recording_ids:
        prefix = f"{rid:02d}_"
        recordings = []
        for label, directory in (("truth", chain.truth_dir), ("output", chain.rec_dir)):
            try:
                recordings.append(read_recording(
                    RecordingFileSet.for_recording(directory, rid)))
                report.record(True, "")
            except Exception as exc:  # any unreadable file is a failed output
                report.record(False, f"read_recording({label} {rid}): {exc}")
        missing = [name for name in PER_RECORDING_OUTPUTS
                   if not (chain.ext_dir / (prefix + name)).is_file()]
        report.record(not missing, f"recording {rid}: missing extract outputs {missing}")
        if len(recordings) < 2 or missing:
            continue
        truth_rec, out_rec = recordings
        report.rows += sum(len(t.states) for t in out_rec.tracks)
        report.tracks += len(out_rec.tracks)
        m = match_recording(truth_rec, out_rec)
        errors.append(m.errors)
        totals["assigned"] += len(m.assigned)
        totals["tracks"] += m.n_tracks
        totals["vehicles"] += m.n_vehicles
        totals["covered"] += len(set(m.assigned.values()))
        truth_lc = _lane_changes(chain.truth_dir / f"{prefix}episodes.csv", None)
        found_lc = _lane_changes(chain.ext_dir / f"{prefix}episodes.csv", m.assigned)
        totals["lc"] += len(truth_lc)
        totals["lc_hit"] += _recalled(truth_lc, found_lc)
        truth_ci = _cut_ins(chain.truth_dir / f"{prefix}cutIns.csv", None)
        found_ci = _cut_ins(chain.ext_dir / f"{prefix}cutIns.csv", m.assigned)
        totals["ci"] += len(truth_ci)
        totals["ci_hit"] += _recalled(truth_ci, found_ci)
        scored += 1

    extract_stats = file_digests(chain.ext_dir)
    stats_only = file_digests(chain.stats_dir)
    corpus_files = [f"{name}" for name in CORPUS_OUTPUTS] + [
        f"{rid:02d}_truckRatio.csv" for rid in recording_ids]
    differing = [name for name in corpus_files
                 if extract_stats.get(f"ext/{name}") is None
                 or extract_stats.get(f"ext/{name}") != stats_only.get(f"st/{name}")]
    report.record(not differing, f"stats and extract disagree on {differing}")

    if scored:
        report.quality = {
            # a high quantile, not the RMS: a handful of rows near a false
            # positive would otherwise set the value
            "pos_err_p95_m": float(np.quantile(np.concatenate(errors), 0.95)),
            "tracks_per_vehicle": _ratio(totals["assigned"], totals["covered"]),
            "track_precision": _ratio(totals["assigned"], totals["tracks"]),
            "vehicle_coverage": _ratio(totals["covered"], totals["vehicles"]),
            "lc_recall": _ratio(totals["lc_hit"], totals["lc"]),
            "cutin_recall": _ratio(totals["ci_hit"], totals["ci"]),
        }
    for name, (kind, limit) in FLOORS.items():
        value = report.quality.get(name)
        ok = value is not None and (value <= limit if kind == "max" else value >= limit)
        report.record(ok, f"{name} = {value} breaks its floor ({kind} {limit})")
    report.quality["lane_changes"] = totals["lc"]
    report.quality["cut_ins"] = totals["ci"]
    report.quality["vehicles"] = totals["vehicles"]


def main(argv: Sequence[str]) -> int:
    """``checks.py WORKDIR RECORDING_ID...``: check one chain pass's output
    files in a process of its own, so that reading them does not raise the
    benchmark's RSS (which a spawned child's peak RSS inherits), and print
    the report as JSON."""
    sys.path.insert(0, str(SRC))
    report = CheckReport()
    check_outputs(report, ChainRun(Path(argv[0])), [int(r) for r in argv[1:]])
    print(json.dumps(dataclasses.asdict(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
