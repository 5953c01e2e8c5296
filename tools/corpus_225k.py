"""The highD-sized corpus end to end: byte manifest, wall time and peak RSS.

Usage: ``python3 tools/corpus_225k.py OUT``

Writes ``OUT/script.json``: the 300-vehicle ``_corpus_script`` of
``tests/test_acceptance.py`` with the README noise block (position sigma
0.1 m, 1 % dropout in bursts of 3, 0.2 false positives per frame), which
``synth`` turns into 224,887 detection rows. Then runs ``synth -> track ->
extract -> stats -> validate`` on it, each as a child process at
``--jobs 1``, and prints a table of each subcommand's wall time, its peak
RSS (from ``os.wait4``) and that RSS over the size of its input files.
``OUT/MANIFEST.sha256`` lists every file below ``OUT`` as
``tools/output_digests.py`` does, so the manifests of two checkouts compare
with ``diff``.

Then it prints the step tables of ``track`` and ``extract``: the steps of
``pipeline.track_stage`` run on the corpus detections, and those of
``extract`` on the tracked recording, each in one fresh child process, with
the wall time of each step and, after it, the process's current RSS and
high-water mark (``VmRSS`` and ``VmHWM`` of ``/proc/self/status``). Their
outputs go to a directory that is removed at the end, so the manifest does
not see them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]

VEHICLES = 300
NOISE = {"position_sigma": 0.1, "dropout_probability": 0.01,
         "dropout_burst_length": 3, "false_positive_rate": 0.2}
#: Each subcommand, its arguments and the directory of its input files.
STEPS = (
    ("synth", ("--script", "script.json", "--output", "synth"), None),
    ("track", ("--input", "synth/detections", "--output", "rec", "--jobs", "1"),
     "synth/detections"),
    ("extract", ("--input", "rec", "--output", "ext", "--jobs", "1"), "rec"),
    ("stats", ("--input", "rec", "--output", "st", "--jobs", "1"), "rec"),
    ("validate", ("--input", "rec"), "rec"),
)


def script() -> dict:
    """The corpus as the JSON script ``hwtracks synth --script`` reads."""
    from test_acceptance import _corpus_script

    corpus = _corpus_script(VEHICLES)
    vehicles = [{
        "class": v.vehicle_class.value, "direction": v.direction.name.lower(),
        "entry_lane": v.entry_lane, "entry_time": v.entry_time, "exit_time": v.exit_time,
        "entry_x": v.entry_x, "initial_speed": v.initial_speed,
        "length": v.length, "width": v.width,
        "speed_segments": [dataclasses.asdict(s) for s in v.speed_segments],
        "lane_changes": [dataclasses.asdict(lc) for lc in v.lane_changes],
        "dropout_windows": [list(window) for window in v.dropout_windows],
    } for v in corpus.vehicles]
    return {
        "seed": corpus.seed, "duration": corpus.duration, "frame_rate": corpus.frame_rate,
        "road_length": corpus.road_length, "recording_id": corpus.recording_id,
        "location_id": corpus.location_id,
        "upper_lane_boundaries": list(corpus.upper_lane_boundaries),
        "lower_lane_boundaries": list(corpus.lower_lane_boundaries),
        "noise": NOISE, "vehicles": vehicles,
    }


def _stepper() -> Callable[[str], None]:
    """A ``step(name)`` that prints one table row: the wall time since the
    last step (the first since this call), then this process's current RSS
    and high-water mark."""
    clock = [time.perf_counter()]

    def step(name: str) -> None:
        with open("/proc/self/status", encoding="ascii") as fh:
            status = dict(line.split(":", 1) for line in fh)
        rss, hwm = (int(status[key].split()[0]) / 1024.0 for key in ("VmRSS", "VmHWM"))
        now = time.perf_counter()
        print(f"| `{name}` | {now - clock[0]:.2f} s | {rss:.1f} MB | {hwm:.1f} MB |",
              flush=True)
        clock[0] = now

    return step


def track_steps(detections: str, meta_path: str, output: str) -> None:
    """Run the steps of ``pipeline.track_stage`` with its default config and
    print one table row per step: its wall time, then this process's current
    RSS and high-water mark after it. The names that ``track_stage`` drops
    after a step are dropped here too. Meant for a fresh process, whose
    high-water mark is then this run's."""
    step = _stepper()
    from hwtracks.dataset_io import read_detections, read_recording_meta, write_recording
    from hwtracks.pipeline import PipelineConfig
    from hwtracks.smoothing import smooth_series, smooth_track_with_diagnostics
    from hwtracks.surround import compute_surround
    from hwtracks.tracking import build_tracks

    step("import")
    cfg = PipelineConfig()
    meta = read_recording_meta(Path(meta_path))
    table = read_detections(Path(detections), meta.max_frame)
    step("read_detections")
    raw_tracks = build_tracks(table, cfg.tracker)
    del table
    step("build_tracks")
    smoothed = smooth_series(raw_tracks, cfg.smoother, 1.0 / meta.frame_rate)
    step("smooth_series")
    assembled = [smooth_track_with_diagnostics(raw, series, meta)
                 for raw, series in zip(raw_tracks, smoothed)]
    del raw_tracks, smoothed
    tracks = [track for track, _ in assembled]
    step("assembly")
    surround = compute_surround(tracks, meta)
    step("compute_surround")
    write_recording(meta, tracks, surround, Path(output))
    step("write_recording")


def extract_steps(recording: str, output: str) -> None:
    """Run what ``hwtracks extract`` does for the one recording in the
    directory ``recording``, with the default config, and print a table row
    per step as ``track_steps`` does: reading it, ``extract_stage`` and the
    per-recording files written to ``output``."""
    step = _stepper()
    from hwtracks.dataset_io import discover_recordings, read_recording
    from hwtracks.lane_change import write_events
    from hwtracks.pipeline import PipelineConfig, extract_stage

    step("import")
    paths, = discover_recordings(Path(recording))
    loaded = read_recording(paths)
    step("read_recording")
    result = extract_stage(loaded, PipelineConfig())
    step("extract_stage")
    write_events(Path(output), result.recording_id, result.episodes, result.cut_ins,
                 result.fits)
    step("writes")


def _run(out: Path, command: str, args, env: dict) -> tuple:
    """One CLI call in ``out`` under ``env``, its stdout kept as
    ``<command>.stdout``: its wall time in seconds and its peak RSS in MB."""
    with open(out / f"{command}.stdout", "w", encoding="utf-8") as stdout:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "hwtracks", command, *args],
                                 cwd=out, env=env, stdout=stdout)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise SystemExit(f"hwtracks {command} exited {child.returncode}")
    return wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    from tools.output_digests import child_env, write_manifest

    env = child_env()
    (out / "script.json").write_text(json.dumps(script()), encoding="utf-8")
    print("| subcommand | wall | peak RSS | RSS ÷ input |\n|---|---|---|---|")
    for command, args, inputs in STEPS:
        wall, rss = _run(out, command, args, env)
        ratio = "—"
        if inputs is not None:
            size = sum(p.stat().st_size for p in (out / inputs).glob("*.csv"))
            ratio = f"{rss * 2**20 / size:.1f}×"
        print(f"| `{command}` | {wall:.2f} s | {rss:.0f} MB | {ratio} |", flush=True)
    manifest = write_manifest(out)
    print(f"{sum(1 for _ in manifest.open(encoding='utf-8'))} files in {manifest}")
    detections, = (out / "synth" / "detections").glob("*_detections.csv")
    meta_path = detections.with_name(detections.name.replace("detections", "recordingMeta"))
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        for name, args in (("track", (detections, meta_path, scratch)),
                           ("extract", (out / "rec", scratch))):
            print(f"\n| step of `{name}` | time | RSS after the step | peak so far |\n"
                  "|---|---|---|---|", flush=True)
            subprocess.run([sys.executable, "-c",
                            f"import sys; from tools.corpus_225k import {name}_steps; "
                            f"{name}_steps(*sys.argv[1:])", *map(str, args)],
                           cwd=ROOT, env={**env, "PYTHONPATH": f"{ROOT}:{ROOT / 'src'}"},
                           check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
