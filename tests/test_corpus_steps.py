"""The step tables of ``tools/corpus_225k.py``: the CLI itself, traced."""

import json
import subprocess
import sys
from pathlib import Path

from hwtracks.cli import main
from tools.bench_record import parse_corpus

ROOT = Path(__file__).resolve().parent.parent
DEMO_SCENE = ROOT / "demos" / "demo_scene.json"

TRACK_SPANS = ("tracking.read_detections", "tracking.build_tracks",
               "smoothing.smooth_series", "smoothing.smooth_track_with_diagnostics",
               "surround.compute_surround", "dataset_io.write_recording")
EXTRACT_SPANS = ("dataset_io.read_recording", "pipeline.extract_stage")


def files(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_steps_trace_track_and_extract_and_write_their_bytes(tmp_path):
    synth, plain, traced = tmp_path / "synth", tmp_path / "plain", tmp_path / "traced"
    assert main(["synth", "--script", str(DEMO_SCENE), "--output", str(synth)]) == 0
    assert main(["track", "--input", str(synth / "detections"),
                 "--output", str(plain / "rec"), "--jobs", "1"]) == 0
    assert main(["extract", "--input", str(plain / "rec"),
                 "--output", str(plain / "ext"), "--jobs", "1"]) == 0

    result = subprocess.run(
        [sys.executable, "-c", "import sys; from tools.corpus_225k import steps; "
         "steps('track', '--input', sys.argv[1], '--output', sys.argv[2], '--jobs', '1'); "
         "steps('extract', '--input', sys.argv[2], '--output', sys.argv[3], '--jobs', '1')",
         str(synth / "detections"), str(traced / "rec"), str(traced / "ext")],
        cwd=ROOT, capture_output=True, text=True, check=True)

    # bench_record reads the step tables after the manifest line of a tool run
    tables = parse_corpus("0 files in MANIFEST.sha256\n" + result.stdout)
    assert set(TRACK_SPANS) <= set(tables["track_steps"])
    assert set(EXTRACT_SPANS) <= set(tables["extract_steps"])
    assert files(traced) == files(plain)


def test_steps_show_the_cli_error(tmp_path):
    missing = tmp_path / "missing"
    result = subprocess.run(
        [sys.executable, "-c", "import sys; from tools.corpus_225k import steps; "
         "steps('track', '--input', sys.argv[1], '--output', sys.argv[2], '--jobs', '1')",
         str(missing), str(tmp_path / "rec")],
        cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 1
    error, end = json.JSONDecoder().raw_decode(result.stderr)
    assert error == {"errors": [{"kind": "EmptyInput",
                                 "message": f"no *_detections.csv in {missing}"}]}
    assert result.stderr[end:].strip() == "hwtracks track exited 1"
