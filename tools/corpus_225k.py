"""The highD-sized corpus end to end: byte manifest, wall time and peak RSS.

Usage: ``python3 tools/corpus_225k.py OUT``

Writes ``OUT/script.json``: the 300-vehicle ``_corpus_script`` of
``tests/test_acceptance.py`` with the README noise block (position sigma
0.1 m, 1 % dropout in bursts of 3, 0.2 false positives per frame), which
``synth`` turns into 224,887 detection rows. Then runs the benchmark's chain
on it (``perfbench.chain.run_chain``: ``synth -> track -> extract -> stats
-> validate``, each a child process at ``--jobs 1``, its stdout and stderr
kept in ``OUT/logs``) and prints a table of each subcommand's wall time,
its peak RSS (from ``os.wait4``) and that RSS over the size of its input
files. ``OUT/MANIFEST.sha256`` lists every file below ``OUT`` as
``tools/output_digests.py`` does, so the manifests of two checkouts compare
with ``diff``.

Then it prints the step tables of ``track`` (on the corpus detections) and
``extract`` (on the tracked recording), each from ``steps`` in one fresh
child process: the CLI runs in-process under perfbench's tracer
(``perfbench.tracing``), with one more span around
``pipeline.smooth_series``, and each row is a span name with its summed
self time, then the process's current RSS and high-water mark after its
last call. ``trace.count`` is the tracer's own counting. The tracer imports
every module it wraps, so the rows start from a larger process than a
plain ``track`` child. Its wrappers hold a layer's arguments until the
span has closed, so a row's RSS can still include an input that the
caller drops as soon as the layer returns: after
``tracking.build_tracks`` it includes the detections table. The
high-water marks are not raised by this, but they move with heap
placement, so compare them only between runs on one host. The step
tables' outputs go to a directory that is removed at the end, so the
manifest does not see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src"), str(ROOT / "tests")]

from perfbench.tracing import Tracer  # noqa: E402

VEHICLES = 300
NOISE = {"position_sigma": 0.1, "dropout_probability": 0.01,
         "dropout_burst_length": 3, "false_positive_rate": 0.2}


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


@dataclasses.dataclass
class _MemoryTracer(Tracer):
    """A ``Tracer`` that also reads this process's current RSS and
    high-water mark (``VmRSS`` and ``VmHWM`` of ``/proc/self/status``, in MB)
    as each span ends, keeping the last reading per span name."""

    memory: Dict[str, Tuple[float, float]] = dataclasses.field(default_factory=dict)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        try:
            with super().span(name):
                yield
        finally:
            with open("/proc/self/status", encoding="ascii") as fh:
                status = dict(line.split(":", 1) for line in fh)
            self.memory[name] = tuple(int(status[key].split()[0]) / 1024.0
                                      for key in ("VmRSS", "VmHWM"))


def steps(command: str, *argv: str) -> None:
    """Run ``hwtracks command *argv`` in this process under perfbench's
    tracer, with one more span around ``pipeline.smooth_series``, and print
    its step table: one row per span name, in the order of first call, with
    the summed self time, then this process's RSS and high-water mark after
    the last call. Meant for a fresh process, whose high-water mark is then
    this run's. If the CLI fails, it runs once more untraced, so that its
    error object reaches stderr, and the process exits with a message."""
    from hwtracks import pipeline
    from perfbench.tracing import run_cli, self_times, traced_layers

    tracer = _MemoryTracer()
    smooth_series = pipeline.smooth_series

    def traced_smooth_series(*args, **kwargs):
        with tracer.span("smoothing.smooth_series"):
            return smooth_series(*args, **kwargs)

    pipeline.smooth_series = traced_smooth_series
    try:
        with traced_layers(tracer):
            code, _ = run_cli(tracer, [command, *argv], command)
    finally:
        pipeline.smooth_series = smooth_series
    if code != 0:  # run_cli discarded the error object: run again to print it
        from hwtracks.cli import main

        main([command, *argv])
        raise SystemExit(f"hwtracks {command} exited {code}")
    seconds: Dict[str, float] = {}
    for span_id, self_s in self_times(tracer.spans).items():
        name = tracer.spans[span_id].name
        seconds[name] = seconds.get(name, 0.0) + self_s
    print(f"\n| step of `{command}` | self time | RSS after the last call | peak so far |\n"
          "|---|---|---|---|")
    for name, self_s in seconds.items():
        rss, hwm = tracer.memory[name]
        print(f"| `{name}` | {self_s:.3f} s | {rss:.1f} MB | {hwm:.1f} MB |", flush=True)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    from perfbench.chain import SUBCOMMANDS, run_child
    from tools.output_digests import DEADLINE_S, run_checked, write_manifest

    (out / "script.json").write_text(json.dumps(script()), encoding="utf-8")
    chain = run_checked([out / "script.json"], out, 1)
    detections = chain.synth_dir / "detections"
    inputs = {"track": detections, "extract": chain.rec_dir, "stats": chain.rec_dir,
              "validate": chain.rec_dir}
    print("| subcommand | wall | peak RSS | RSS ÷ input |\n|---|---|---|---|")
    for command in SUBCOMMANDS:
        rss = chain.max_rss_mb(command)
        ratio = "—"
        if command in inputs:
            size = sum(p.stat().st_size for p in inputs[command].glob("*.csv"))
            ratio = f"{rss * 2**20 / size:.1f}×"
        print(f"| `{command}` | {chain.seconds(command):.2f} s | {rss:.0f} MB | {ratio} |")
    manifest = write_manifest(out)
    print(f"{sum(1 for _ in manifest.open(encoding='utf-8'))} files in {manifest}", flush=True)
    with tempfile.TemporaryDirectory(dir=out) as scratch:
        for command, source in (("track", detections), ("extract", chain.rec_dir)):
            run = run_child([sys.executable, "-c", "import sys; from tools.corpus_225k "
                             "import steps; steps(*sys.argv[1:])", command, "--input",
                             str(source), "--output", scratch, "--jobs", "1"],
                            Path(scratch) / command, time.perf_counter() + DEADLINE_S)
            if run.returncode != 0:
                raise SystemExit(f"steps of {command} exited {run.returncode}:\n{run.stderr}")
            print(run.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
