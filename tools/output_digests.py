"""Byte check of every CLI output: one sorted ``sha256  path`` manifest.

Usage: ``python3 tools/output_digests.py OUT``

Runs ``synth -> track -> extract / stats / validate`` of the checkout this
file belongs to on three inputs, each at seed 1: ``demos/demo_scene.json``
and the ``perfbench.scenes`` lanechange-dense and fleet-8x60 scripts. Synth
runs once per input; track, extract, stats and validate run at ``--jobs 1``
and at ``--jobs 2``. Every subcommand's stdout is kept next to its outputs.
The manifest ``OUT/MANIFEST.sha256`` lists every file below ``OUT`` by its
path relative to ``OUT``, so the manifests of two checkouts compare with
``diff``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.scenes import fleet_scripts, lanechange_script  # noqa: E402

SEED = 1
JOBS = (1, 2)
MANIFEST = "MANIFEST.sha256"


def _inputs():
    demo = json.loads((ROOT / "demos" / "demo_scene.json").read_text(encoding="utf-8"))
    demo["seed"] = SEED
    return {
        "demo": [demo],
        "lanechange-dense": [lanechange_script(SEED)],
        "fleet-8x60": fleet_scripts(SEED),
    }


def child_env() -> dict:
    """The environment of a CLI child: this checkout's ``src`` on the path and
    one BLAS thread."""
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"),
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run(out: Path, stdout_name: str, *args: str) -> None:
    """One CLI call with ``out`` as working directory, so every path it
    prints is relative; its stdout goes to ``stdout_name``."""
    result = subprocess.run([sys.executable, "-m", "hwtracks", *args], cwd=out,
                            env=child_env(), capture_output=True, text=True)
    (out / stdout_name).write_text(result.stdout, encoding="utf-8")
    if result.returncode != 0:
        raise SystemExit(f"hwtracks {' '.join(args)} exited {result.returncode}:\n"
                         f"{result.stderr}")


def run_all(out: Path) -> None:
    for name, scripts in _inputs().items():
        work = Path(name)
        (out / work / "scripts").mkdir(parents=True, exist_ok=True)
        for script in scripts:
            path = work / "scripts" / f"{script['recording_id']:02d}_script.json"
            (out / path).write_text(json.dumps(script), encoding="utf-8")
            _run(out, f"{path.parent.parent}/synth-{script['recording_id']:02d}.stdout",
                 "synth", "--script", str(path), "--output", str(work / "synth"))
        for jobs in JOBS:
            run = work / f"jobs{jobs}"
            (out / run).mkdir(parents=True, exist_ok=True)
            flag = ("--jobs", str(jobs))
            _run(out, f"{run}/track.stdout", "track", "--input",
                 str(work / "synth" / "detections"), "--output", str(run / "rec"), *flag)
            for command, target in (("extract", "ext"), ("stats", "st")):
                _run(out, f"{run}/{command}.stdout", command, "--input",
                     str(run / "rec"), "--output", str(run / target), *flag)
            _run(out, f"{run}/validate.stdout", "validate", "--input", str(run / "rec"))


def write_manifest(out: Path) -> Path:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != MANIFEST):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out).as_posix()}\n")
    manifest = out / MANIFEST
    manifest.write_text("".join(lines), encoding="utf-8")
    return manifest


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    run_all(out)
    manifest = write_manifest(out)
    print(f"{sum(1 for _ in manifest.open(encoding='utf-8'))} files in {manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
