"""In-process traced run of the CLI chain, timed at the layer boundaries.

Public layer functions are replaced by ``setattr`` on the modules that import
them (``hwtracks.cli``, ``hwtracks.pipeline``, ``hwtracks.stats``) with
wrappers that record a span (name, start, end, parent span, run id) and a few
counts, and are restored afterwards. Spans stay in memory until the run ends.
A layer's self time is its span's duration minus that of its child spans.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import pickle
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


@dataclass
class Tracer:
    spans: List[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    run_id: str = ""
    _stack: List[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def as_records(self) -> List[Dict]:
        return [vars(s) for s in self.spans]


class _ByteCounter(io.RawIOBase):
    def __init__(self) -> None:
        self.n = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.n += len(b)
        return len(b)


def pickled_size(obj) -> int:
    sink = _ByteCounter()
    pickle.dump(obj, sink, protocol=pickle.HIGHEST_PROTOCOL)
    return sink.n


def _rows(tracks) -> int:
    return sum(len(t.states) for t in tracks)


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in
               (paths.recording_meta_path, paths.tracks_meta_path, paths.tracks_path))


# Counts taken from a wrapped call: (counter name, f(args, result) -> number).
Count = Tuple[str, Callable]
_OK: Count = ("ok", lambda a, r: 1)
_RESULT_BYTES: Count = ("result_bytes", lambda a, r: pickled_size(r))

STATS_AGGREGATE = ("mean_speed_histogram", "truck_ratio_over_time",
                   "cut_in_thw_stats", "maneuver_summary")
STATS_WRITERS = ("write_histogram_csv", "write_truck_ratio_csv",
                 "write_decile_band_csv", "write_summary_json")

# (module imported from, attribute, span name, counts). A function imported
# into several modules is wrapped at each site under one span name.
TARGETS: Tuple[Tuple[str, str, str, Tuple[Count, ...]], ...] = (
    ("hwtracks.cli", "generate_truth", "synth.generate_truth",
     (("truth_vehicles", lambda a, r: len(r.tracks)),)),
    ("hwtracks.cli", "corrupt", "synth.corrupt", ()),
    ("hwtracks.cli", "write_detections", "tracking.write_detections", ()),
    ("hwtracks.cli", "compute_surround", "surround.compute_surround",
     (("rows", lambda a, r: _rows(a[0])),)),
    ("hwtracks.cli", "write_recording", "dataset_io.write_recording",
     (("bytes", lambda a, r: _file_bytes(r)),)),
    ("hwtracks.cli", "validate", "dataset_io.validate", ()),
    ("hwtracks.cli", "track_stage", "pipeline.track_stage", ()),
    ("hwtracks.cli", "extract_recording_files", "pipeline.extract_recording_files", ()),
    ("hwtracks.cli", "_track_one", "cli.track_one", (_RESULT_BYTES,)),
    ("hwtracks.cli", "_extract_one", "cli.extract_one", (_RESULT_BYTES,)),
    ("hwtracks.cli", "_run_parallel", "cli.run_parallel", ()),
    ("hwtracks.cli", "_write_corpus_stats", "cli.corpus_stats", ()),
    ("hwtracks.pipeline", "read_detections", "tracking.read_detections", ()),
    ("hwtracks.pipeline", "build_tracks", "tracking.build_tracks",
     (("tracks", lambda a, r: len(r)),)),
    ("hwtracks.pipeline", "smooth_track_with_diagnostics",
     "smoothing.smooth_track_with_diagnostics",
     (("rows", lambda a, r: len(r[0].states)),
      ("pinv_tracks", lambda a, r: int(r[1].used_pinv)))),
    ("hwtracks.pipeline", "compute_surround", "surround.compute_surround",
     (("rows", lambda a, r: _rows(a[0])),)),
    ("hwtracks.pipeline", "write_recording", "dataset_io.write_recording",
     (("bytes", lambda a, r: _file_bytes(r)),)),
    ("hwtracks.pipeline", "read_recording", "dataset_io.read_recording",
     (("rows", lambda a, r: _rows(r.tracks)),)),
    ("hwtracks.pipeline", "extract_stage", "pipeline.extract_stage", ()),
    ("hwtracks.pipeline", "detect_all", "maneuvers.detect_all",
     (("episodes", lambda a, r: len(r)),)),
    ("hwtracks.pipeline", "fit_episode", "lane_change.fit_episode", (_OK,)),
    ("hwtracks.pipeline", "extract_cut_ins", "lane_change.extract_cut_ins",
     (("cut_ins", lambda a, r: len(r)),)),
    *(("hwtracks.stats", fn, f"stats.{fn}", ()) for fn in STATS_AGGREGATE + STATS_WRITERS),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, counts: Sequence[Count]) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if counts:
            # counting is harness work: its own span keeps it out of self times
            with tracer.span("trace.count"):
                for key, count in counts:
                    tracer.counts[f"{name}.{key}"] += count(args, result)
        return result
    return traced


@contextlib.contextmanager
def traced_layers(tracer: Tracer, only: Optional[Sequence[str]] = None) -> Iterator[None]:
    """Install the wrappers (those named in ``only``, or all) and restore
    the original functions on exit."""
    saved = []
    try:
        for module_name, attr, name, counts in TARGETS:
            if only is not None and name not in only:
                continue
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, counts))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def run_cli(tracer: Tracer, argv: Sequence[str], run_id: str) -> Tuple[int, float]:
    """``hwtracks.cli.main(argv)`` in-process under a root span; returns the
    exit code and wall time. Output the CLI prints is discarded."""
    from hwtracks.cli import main

    tracer.run_id = run_id
    sink = io.StringIO()
    start = time.perf_counter()
    with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        code = main(list(argv))
    return code, time.perf_counter() - start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return {s.span_id: (s.end - s.start) - child_time[s.span_id] for s in spans}


def descendants_by_root(spans: Sequence[Span]) -> Dict[str, List[Span]]:
    """Spans grouped by the root (subcommand) span they run under."""
    root_of: Dict[int, Span] = {}
    groups: Dict[str, List[Span]] = defaultdict(list)
    for s in spans:  # parents precede children
        root = s if s.parent is None else root_of[s.parent]
        root_of[s.span_id] = root
        if s.parent is not None:
            groups[root.name].append(s)
    return groups


def self_time_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per subcommand, the summed self time of each layer below it."""
    selfs = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for root, members in descendants_by_root(spans).items():
        row: Dict[str, float] = defaultdict(float)
        for s in members:
            if s.name != "trace.count":
                row[s.name] += selfs[s.span_id]
        table[root] = dict(row)
    return table


def layer_metrics(spans: Sequence[Span], counts: Counter, pool_wall: float,
                  pool_jobs: int, overhead: float) -> Dict[str, float]:
    """Per-layer metrics of one traced chain (spans at ``--jobs 1``).

    ``pool_wall`` is ``_run_parallel``'s wall time for ``extract`` with
    ``pool_jobs`` workers (1 where there is one recording, so no pool); pool
    efficiency is the per-recording worker time at ``--jobs 1`` over the
    worker time the pool had available."""
    total: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    self_total: Dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        total[s.name] += s.end - s.start
        calls[s.name] += 1
        self_total[s.name] += selfs[s.span_id]
    extract_workers = sum(s.end - s.start for s in spans
                          if s.name == "cli.extract_one" and "/extract/" in s.run_id)

    def rate(name: str) -> float:
        return counts[f"{name}.rows"] / total[name] if total[name] else 0.0

    fits = calls["lane_change.fit_episode"]
    return {
        "synth.generate_truth.s": total["synth.generate_truth"],
        "synth.corrupt.s": total["synth.corrupt"],
        "tracking.write_detections.s": total["tracking.write_detections"],
        "tracking.read_detections.s": total["tracking.read_detections"],
        "tracking.build_tracks.s": total["tracking.build_tracks"],
        "tracking.tracks_per_vehicle": counts["tracking.build_tracks.tracks"]
        / max(counts["synth.generate_truth.truth_vehicles"], 1),
        "smoothing.smooth_track_with_diagnostics.s":
            total["smoothing.smooth_track_with_diagnostics"],
        "smoothing.smooth_track_with_diagnostics.calls":
            calls["smoothing.smooth_track_with_diagnostics"],
        "smoothing.smooth_track_with_diagnostics.rows_per_s":
            rate("smoothing.smooth_track_with_diagnostics"),
        "smoothing.pinv_tracks":
            counts["smoothing.smooth_track_with_diagnostics.pinv_tracks"],
        "surround.compute_surround.s": total["surround.compute_surround"],
        "surround.compute_surround.rows_per_s": rate("surround.compute_surround"),
        "dataset_io.write_recording.s": total["dataset_io.write_recording"],
        "dataset_io.write_recording.bytes": counts["dataset_io.write_recording.bytes"],
        "dataset_io.read_recording.s": total["dataset_io.read_recording"],
        "dataset_io.read_recording.rows_per_s": rate("dataset_io.read_recording"),
        "dataset_io.validate.s": total["dataset_io.validate"],
        "maneuvers.detect_all.s": total["maneuvers.detect_all"],
        "maneuvers.detect_all.episodes": counts["maneuvers.detect_all.episodes"],
        "lane_change.fit_episode.s": total["lane_change.fit_episode"],
        "lane_change.fit_episode.calls": fits,
        "lane_change.fit_episode.ok_ratio":
            counts["lane_change.fit_episode.ok"] / fits if fits else 1.0,
        "lane_change.extract_cut_ins.s": total["lane_change.extract_cut_ins"],
        "lane_change.extract_cut_ins.cut_ins": counts["lane_change.extract_cut_ins.cut_ins"],
        "stats.aggregate.s": sum(total[f"stats.{fn}"] for fn in STATS_AGGREGATE),
        "stats.writers.s": sum(total[f"stats.{fn}"] for fn in STATS_WRITERS),
        "cli.corpus_stats.s": total["cli.corpus_stats"],
        "pipeline.track_stage.self_s": self_total["pipeline.track_stage"],
        "pipeline.extract_stage.self_s": self_total["pipeline.extract_stage"],
        "cli.run_parallel.s": pool_wall,
        "cli.pool_efficiency": extract_workers / (pool_jobs * pool_wall) if pool_wall else 0.0,
        "cli.result_bytes": counts["cli.track_one.result_bytes"]
        + counts["cli.extract_one.result_bytes"],
        "trace.overhead": overhead,
    }
