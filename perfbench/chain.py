"""The CLI chain the benchmark times: synth -> track -> extract -> stats -> validate.

Every subcommand runs as its own child process with the checkout's ``src/``
on ``PYTHONPATH`` and BLAS/OpenMP limited to one thread, so the load comes
from one process at a time plus the CLI's own ``--jobs`` pool. Wall time
comes from ``time.perf_counter`` around spawn and reap, and peak RSS from
``os.wait4`` on that child alone. Linux starts a child's peak RSS at its
parent's peak at the time of the spawn, so the process that spawns the
timed children never loads a recording itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_DEADLINE_S = 170.0  # a run must end within 180 s; children are killed first
SUBCOMMANDS = ("synth", "track", "extract", "stats", "validate")
# Set-up time is sampled before these subcommands, spread over the run.
SETUP_BEFORE = ("synth", "extract")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@dataclass(frozen=True)
class ChildRun:
    argv: Sequence[str]
    seconds: float
    max_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: Sequence[str], log_stem: Path, deadline: float) -> ChildRun:
    """Run one child to completion; kill it if it is still running at
    ``deadline`` (a ``time.perf_counter`` value)."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    reaped = threading.Event()

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)

        def kill() -> None:
            if not reaped.is_set():
                proc.kill()

        timer = threading.Timer(max(deadline - start, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        argv=tuple(argv),
        seconds=elapsed,
        max_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def hwtracks_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "hwtracks", *args]


@dataclass
class ChainRun:
    """One pass of the chain in ``workdir``: per-subcommand children."""

    workdir: Path
    runs: Dict[str, List[ChildRun]] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)

    @property
    def synth_dir(self) -> Path:
        return self.workdir / "synth"

    @property
    def truth_dir(self) -> Path:
        return self.synth_dir / "truth"

    @property
    def rec_dir(self) -> Path:
        return self.workdir / "rec"

    @property
    def ext_dir(self) -> Path:
        return self.workdir / "ext"

    @property
    def stats_dir(self) -> Path:
        return self.workdir / "st"

    def seconds(self, command: str) -> float:
        return sum(r.seconds for r in self.runs[command])

    def total_s(self) -> float:
        return sum(r.seconds for r in self.all_runs())

    def max_rss_mb(self, command: str) -> float:
        return max(r.max_rss_mb for r in self.runs[command])

    def all_runs(self) -> List[ChildRun]:
        return [r for command in SUBCOMMANDS for r in self.runs.get(command, [])]


def file_digests(*directories: Path) -> Dict[str, str]:
    """SHA-256 of every file below the directories, keyed by the path below
    each directory's parent."""
    out = {}
    for directory in directories:
        if not directory.is_dir():
            continue
        for path in sorted(p for p in directory.rglob("*") if p.is_file()):
            key = f"{directory.name}/{path.relative_to(directory).as_posix()}"
            out[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def write_scripts(scripts: Sequence[Dict], directory: Path) -> List[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for script in scripts:
        path = directory / f"{script['recording_id']:02d}_script.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        paths.append(path)
    return paths


def chain_steps(script_paths: Sequence[Path], chain: ChainRun,
                jobs: int) -> List[Tuple[str, List[Tuple[str, ...]]]]:
    """Each subcommand of the chain with the argument lists of its runs."""
    jobs_args = ("--jobs", str(jobs))
    return [
        ("synth", [("--script", str(p), "--output", str(chain.synth_dir))
                   for p in script_paths]),
        ("track", [("--input", str(chain.synth_dir / "detections"),
                    "--output", str(chain.rec_dir), *jobs_args)]),
        ("extract", [("--input", str(chain.rec_dir),
                      "--output", str(chain.ext_dir), *jobs_args)]),
        ("stats", [("--input", str(chain.rec_dir),
                    "--output", str(chain.stats_dir), *jobs_args)]),
        ("validate", [("--input", str(chain.rec_dir))]),
    ]


def run_chain(script_paths: Sequence[Path], workdir: Path, jobs: int,
              deadline: float) -> ChainRun:
    """Run the whole chain once; later subcommands run even if one fails,
    so every failure is counted. Before the ``SETUP_BEFORE`` subcommands a
    fresh interpreter that only imports ``hwtracks.cli`` is timed."""
    chain = ChainRun(workdir)
    logs = workdir / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for command, arg_lists in chain_steps(script_paths, chain, jobs):
        if command in SETUP_BEFORE:
            probe = run_child([sys.executable, "-c", "import hwtracks.cli"],
                              logs / f"setup-{command}", deadline)
            if probe.returncode != 0:
                raise RuntimeError(f"import hwtracks.cli failed: {probe.stderr.strip()}")
            chain.setup_s.append(probe.seconds)
        chain.runs[command] = [run_child(hwtracks_argv(command, *args),
                                         logs / f"{command}{i}", deadline)
                               for i, args in enumerate(arg_lists)]
    return chain
