"""Command-line entry point chaining the pipeline over recordings.

Subcommands: synth (scenario script -> detections + truth files), track
(detections -> recording file sets), extract (recordings -> episodes, fits,
cut-ins, statistics), validate (recording file sets -> issue report) and
stats (recordings -> statistics only).

Exit codes: 0 success, 1 failure, 2 usage. Failures are reported as a JSON
object on stderr; the validate subcommand writes its report as JSON on
stdout. Recording-level parallelism (--jobs) never changes any output byte:
workers own disjoint files and merged statistics are reduced in input order.

Importing this module loads neither numpy nor any pipeline module. A
subcommand loads only the modules it runs (``_SUBCOMMAND_MODULES``) and binds
the names it calls from them (``_NAMES``) as attributes of this module, in
``main`` before any pool starts, so forked workers inherit them; the pool
workers bind them again, since a worker started by spawn or forkserver
imports this module afresh. The names stay module attributes, not imports
inside the functions, because perfbench/tracing.py wraps them by ``setattr``
on this module: binding never overwrites a name already bound, so a wrapper
set before ``main`` runs stays in place, and a name read from outside before
any subcommand bound it is loaded by the module's ``__getattr__``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .dataset_io import RecordingFileSet
    from .pipeline import ExtractResult, PipelineConfig

#: The names this module calls from the package's modules, by module.
_NAMES = {
    "core": ("dump_json",),
    "dataset_io": ("DatasetError", "discover_recordings", "recording_prefixes", "validate",
                   "write_detections", "write_recording", "write_recording_meta"),
    "lane_change": ("write_cut_ins_csv", "write_cut_ins_json", "write_fits_csv"),
    "maneuvers": ("write_episodes_csv", "write_episodes_json"),
    "pipeline": ("events_recording_files", "extract_recording_files",
                 "load_pipeline_config", "track_stage"),
    # not called here; perfbench/tracing.py wraps it by this name
    "surround": ("compute_surround",),
    "synth": ("corrupt", "generate_truth", "load_script"),
}
#: The modules each subcommand runs.
_SUBCOMMAND_MODULES = {
    "synth": ("core", "dataset_io", "lane_change", "maneuvers", "synth"),
    "track": ("core", "dataset_io", "pipeline"),
    "extract": ("core", "dataset_io", "lane_change", "maneuvers", "pipeline"),
    "stats": ("core", "dataset_io", "lane_change", "maneuvers", "pipeline"),
    "validate": ("core", "dataset_io"),
}


def _bind(command: str) -> None:
    """Load the modules ``command`` runs and bind the names it calls from
    them. A name already bound stays: it may be a wrapper set from outside."""
    namespace = globals()
    for module_name in _SUBCOMMAND_MODULES[command]:
        module = importlib.import_module(f".{module_name}", __package__)
        for name in _NAMES[module_name]:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    """A name of ``_NAMES`` read from outside before a subcommand bound it."""
    for module_name, names in _NAMES.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module_name}", __package__), name)
            return globals().setdefault(name, value)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _error_dict(kind: str, message: str, file: Optional[str] = None,
                row: Optional[int] = None, column: Optional[str] = None) -> Dict:
    out: Dict = {"kind": kind, "message": message}
    if file is not None:
        out["file"] = file
    if row is not None:
        out["row"] = row
    if column is not None:
        out["column"] = column
    return out


def _issue_dict(issue) -> Dict:
    return _error_dict(issue.kind, issue.message, issue.file, issue.row, issue.column)


def _report_errors(errors: List[Dict]) -> None:
    if errors:
        dump_json({"errors": errors}, sys.stderr)


def _exception_error(exc: Exception) -> Dict:
    if isinstance(exc, DatasetError):
        return _issue_dict(exc.issue)
    return _error_dict(type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Workers (module level so they pickle for process pools)


def _track_one(item: Tuple[Path, Path, PipelineConfig, Path]):
    _bind("track")  # a worker started by spawn or forkserver has bound nothing
    detections_path, meta_path, cfg, output_dir = item
    try:
        track_stage(detections_path, meta_path, cfg, output_dir)
        return None
    except Exception as exc:  # reported, never crashes the batch
        return _exception_error(exc)


def _extract_one(item: Tuple[RecordingFileSet, PipelineConfig, Path, bool]):
    """``extract`` fits lane changes and writes the per-recording files,
    ``stats`` (no ``write_files``) does neither; both return the summary."""
    _bind("extract")
    paths, cfg, output_dir, write_files = item
    try:
        if not write_files:
            return None, events_recording_files(paths, cfg)
        result = extract_recording_files(paths, cfg)
        rid = result.recording_id
        write_episodes_csv(result.episodes, rid, output_dir / f"{rid:02d}_episodes.csv")
        write_episodes_json(result.episodes, rid, output_dir / f"{rid:02d}_episodes.json")
        write_fits_csv(result.fits, rid, output_dir / f"{rid:02d}_laneChangeFits.csv")
        write_cut_ins_csv(result.cut_ins, rid, output_dir / f"{rid:02d}_cutIns.csv")
        write_cut_ins_json(result.cut_ins, rid, output_dir / f"{rid:02d}_cutIns.json")
        return None, result
    except Exception as exc:
        return _exception_error(exc), None


def _worker_count(jobs: int, n_items: int) -> int:
    """Processes worth starting: no more than the items or the CPUs this
    process may run on (its affinity mask where the platform has one; the
    host's CPU count counts CPUs the process cannot use)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, n_items, cpus)


def _run_parallel(worker, items: Sequence, jobs: int) -> List:
    """Map worker over items, preserving input order."""
    workers = _worker_count(jobs, len(items))
    if workers <= 1:
        return [worker(item) for item in items]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, items))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> int:
    errors: List[Dict] = []
    try:
        script = load_script(args.script, args.seed_override)
        truth = generate_truth(script)
        output = Path(args.output)
        detections_dir = output / "detections"
        truth_dir = output / "truth"
        detections_dir.mkdir(parents=True, exist_ok=True)
        truth_dir.mkdir(parents=True, exist_ok=True)

        rid = truth.meta.recording_id
        detections = corrupt(
            truth.tracks,
            script.noise,
            script.seed,
            meta=truth.meta,
            road_length=truth.road_length,
            scripted_dropouts=truth.scripted_dropouts,
        )
        write_detections(detections, detections_dir / f"{rid:02d}_detections.csv")
        write_recording_meta(truth.meta, detections_dir / f"{rid:02d}_recordingMeta.csv")

        write_recording(truth.meta, truth.tracks, truth.surround, truth_dir)
        write_episodes_csv(truth.episodes, rid, truth_dir / f"{rid:02d}_episodes.csv")
        write_episodes_json(truth.episodes, rid, truth_dir / f"{rid:02d}_episodes.json")
        write_cut_ins_csv(truth.cut_ins, rid, truth_dir / f"{rid:02d}_cutIns.csv")
        write_cut_ins_json(truth.cut_ins, rid, truth_dir / f"{rid:02d}_cutIns.json")
        print(f"recording {rid}: {len(truth.tracks)} vehicles, "
              f"{len(truth.episodes)} lane changes, {len(truth.cut_ins)} cut-ins")
        return 0
    except Exception as exc:
        errors.append(_exception_error(exc))
        _report_errors(errors)
        return 1


def cmd_track(args) -> int:
    errors: List[Dict] = []
    input_dir = Path(args.input)
    output_dir = Path(args.output)
    try:
        cfg = load_pipeline_config(args.config, jobs=args.jobs)
        prefixes = recording_prefixes(input_dir, "detections.csv")
    except Exception as exc:
        _report_errors([_exception_error(exc)])
        return 1
    if not prefixes:
        _report_errors([_error_dict("EmptyInput", f"no *_detections.csv in {input_dir}")])
        return 1
    output_dir.mkdir(parents=True, exist_ok=True)
    items = [(input_dir / f"{prefix}_detections.csv",
              input_dir / f"{prefix}_recordingMeta.csv", cfg, output_dir)
             for prefix in prefixes]
    for outcome in _run_parallel(_track_one, items, cfg.jobs):
        if outcome is not None:
            errors.append(outcome)
    _report_errors(errors)
    return 1 if errors else 0


def _write_corpus_stats(
    results: Sequence[ExtractResult], cfg: PipelineConfig, output_dir: Path
) -> None:
    from . import stats as statsmod

    all_episodes = [e for r in results for e in r.episodes]
    all_cut_ins = [c for r in results for c in r.cut_ins]
    mean_speeds = [v for r in results for v in r.mean_speeds]

    hist = statsmod.mean_speed_histogram(mean_speeds, cfg.stats.mean_speed_bin)
    statsmod.write_histogram_csv(hist, output_dir / "meanSpeedHistogram.csv")
    for result in results:
        statsmod.write_truck_ratio_csv(
            result.truck_ratio, output_dir / f"{result.recording_id:02d}_truckRatio.csv"
        )
    thw_stats = statsmod.cut_in_thw_stats(all_cut_ins, cfg.stats.speed_bin,
                                          cfg.stats.thw_bin)
    statsmod.write_histogram_csv(thw_stats.histogram, output_dir / "cutInThwHistogram.csv")
    statsmod.write_decile_band_csv(thw_stats.band, output_dir / "cutInThwBand.csv")
    summary = statsmod.maneuver_summary(all_episodes, len(mean_speeds))
    statsmod.write_summary_json(summary, len(all_cut_ins), output_dir / "summary.json")


def _run_extract(args, write_per_recording: bool) -> int:
    errors: List[Dict] = []
    input_dir = Path(args.input)
    output_dir = Path(args.output)
    try:
        cfg = load_pipeline_config(args.config, jobs=args.jobs)
        filesets = discover_recordings(input_dir)
    except Exception as exc:
        _report_errors([_exception_error(exc)])
        return 1
    output_dir.mkdir(parents=True, exist_ok=True)
    if not filesets:
        _report_errors([_error_dict("EmptyInput", f"no recordings in {input_dir}")])
        return 1
    items = [(paths, cfg, output_dir, write_per_recording) for paths in filesets]
    results: List[ExtractResult] = []
    for outcome, result in _run_parallel(_extract_one, items, cfg.jobs):
        if outcome is not None:
            errors.append(outcome)
        else:
            results.append(result)
    if results:
        _write_corpus_stats(results, cfg, output_dir)
        fits = ""
        if write_per_recording:
            fits = (f"{sum(len(r.fits) for r in results)} lane-change fits "
                    f"({sum(r.fit_failures for r in results)} skipped), ")
        print(
            f"{len(results)} recording(s): "
            f"{sum(len(r.episodes) for r in results)} episodes, {fits}"
            f"{sum(len(r.cut_ins) for r in results)} cut-ins"
        )
    _report_errors(errors)
    return 1 if errors else 0


def cmd_extract(args) -> int:
    return _run_extract(args, write_per_recording=True)


def cmd_stats(args) -> int:
    return _run_extract(args, write_per_recording=False)


def cmd_validate(args) -> int:
    input_dir = Path(args.input)
    try:
        filesets = discover_recordings(input_dir)
    except DatasetError as exc:
        dump_json({"issues": [_issue_dict(exc.issue)]}, sys.stdout)
        return 1
    issues = []
    if not filesets:
        issues.append(_error_dict("EmptyInput", f"no recordings in {input_dir}"))
    for paths in filesets:
        report = validate(paths)
        issues.extend(_issue_dict(issue) for issue in report.issues)
    dump_json({"issues": issues}, sys.stdout)
    return 0 if not issues else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwtracks",
        description="Highway trajectory pipeline: tracking, smoothing, "
                    "surround metrics, maneuvers, lane-change fits, statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_output=True):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON pipeline configuration")
        p.add_argument("--input", type=Path, required=True)
        if needs_output:
            p.add_argument("--output", type=Path, required=True)
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel recordings (default from config, 1)")

    p_synth = sub.add_parser("synth", help="generate a synthetic scene from a script")
    p_synth.add_argument("--script", type=Path, required=True)
    p_synth.add_argument("--output", type=Path, required=True)
    p_synth.add_argument("--seed-override", type=int, default=None, dest="seed_override")
    p_synth.set_defaults(func=cmd_synth)

    p_track = sub.add_parser("track", help="turn detection streams into recordings")
    add_common(p_track)
    p_track.set_defaults(func=cmd_track)

    p_extract = sub.add_parser(
        "extract", help="mine maneuvers, lane-change fits, cut-ins and statistics"
    )
    add_common(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_stats = sub.add_parser("stats", help="recompute statistics only")
    add_common(p_stats)
    p_stats.set_defaults(func=cmd_stats)

    p_validate = sub.add_parser("validate", help="check recording files")
    p_validate.add_argument("--input", type=Path, required=True)
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _bind(args.command)
    try:
        return args.func(args)
    except Exception as exc:  # last-resort structured report, never a bare crash
        _report_errors([_exception_error(exc)])
        traceback.print_exc(file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
