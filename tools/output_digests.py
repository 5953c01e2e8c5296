"""Byte check of every CLI output: one sorted ``sha256  path`` manifest.

Usage: ``python3 tools/output_digests.py OUT``

Runs the benchmark's chain (``perfbench.chain.run_chain``: ``synth -> track
-> extract / stats / validate``, each a child process) of the checkout this
file belongs to on three inputs, each at seed 1: ``demos/demo_scene.json``
and the ``perfbench.scenes`` lanechange-dense and fleet-8x60 scripts. Each
input's scripts go to ``OUT/<input>/scripts``, and the chain runs once at
``--jobs 1`` and once at ``--jobs 2``, in ``OUT/<input>/jobs<N>``, with every
child's stdout and stderr kept in its ``logs``. The manifest
``OUT/MANIFEST.sha256`` lists every file below ``OUT`` by its path relative
to ``OUT``, so the manifests of two checkouts compare with ``diff``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.chain import ChainRun, run_chain, write_scripts  # noqa: E402
from perfbench.scenes import fleet_scripts, lanechange_script  # noqa: E402

SEED = 1
JOBS = (1, 2)
MANIFEST = "MANIFEST.sha256"
#: A chain still running this long after it started is killed and fails.
DEADLINE_S = 1800.0


def _inputs():
    demo = json.loads((ROOT / "demos" / "demo_scene.json").read_text(encoding="utf-8"))
    demo["seed"] = SEED
    return {
        "demo": [demo],
        "lanechange-dense": [lanechange_script(SEED)],
        "fleet-8x60": fleet_scripts(SEED),
    }


def run_checked(script_paths: Sequence[Path], workdir: Path, jobs: int) -> ChainRun:
    """``run_chain`` in ``workdir``; SystemExit if any child exited nonzero."""
    chain = run_chain(script_paths, workdir, jobs, time.perf_counter() + DEADLINE_S)
    for run in chain.all_runs():
        if run.returncode != 0:
            raise SystemExit(f"{' '.join(run.argv)} exited {run.returncode}:\n{run.stderr}")
    return chain


def run_all(out: Path) -> None:
    for name, scripts in _inputs().items():
        paths = write_scripts(scripts, out / name / "scripts")
        for jobs in JOBS:
            run_checked(paths, out / name / f"jobs{jobs}", jobs)


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
