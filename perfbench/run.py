"""hwtracks benchmark: times the CLI chain on seeded synthetic workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The scene scripts are built from
``--seed`` (see ``scenes.py``); the CLI receives only those script files.

``--trace 0`` runs ``synth -> track -> extract -> stats -> validate`` as child
processes, repeating the chain until ``--seconds`` of chain time have been
measured, and reports the end-to-end metrics: per-subcommand wall time
(mean over passes), throughput, peak child RSS, set-up time and the
output quality against the synthetic truth. ``--trace 1`` runs the same chain
in-process through ``hwtracks.cli.main`` at ``--jobs 1``, each call plain, with
the layers wrapped (``tracing.py``) and plain again; on workloads of several
recordings it then times ``extract --jobs 2`` through the process pool. It
reports the per-layer metrics.

Every output is checked against truth outside the timed region
(``checks.py``). The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed. Lines before it give the environment, the
SHA-256 of every output file and a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import scenes  # noqa: E402
from chain import (ROOT, RUN_DEADLINE_S, SRC, SUBCOMMANDS, THREAD_VARS,  # noqa: E402
                   ChainRun, chain_steps, file_digests, run_chain, run_child,
                   write_scripts)

OUT_DIR = ROOT / ".perfbench_out"
POOL_JOBS = 2


@dataclass(frozen=True)
class Workload:
    scripts: Callable[[int], List[Dict]]
    jobs: int


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    "lanechange-dense": Workload(lambda seed: [scenes.lanechange_script(seed)], jobs=1),
    "fleet-8x60": Workload(scenes.fleet_scripts, jobs=POOL_JOBS),
}

END_TO_END = {
    "setup_s": "s", "synth_s": "s", "track_s": "s", "extract_s": "s",
    "stats_s": "s", "validate_s": "s", "chain_s": "s",
    "rows_per_s": "rows/s", "peak_rss_mb": "MB", "rss_input_ratio": "ratio",
    "ops_ok_share": "ratio", "pos_err_p95_m": "m", "tracks_per_vehicle": "ratio",
    "track_precision": "ratio", "lc_recall": "ratio", "cutin_recall": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("rows_per_s"):
        return "rows/s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("ratio", "efficiency", "overhead", "per_vehicle")):
        return "ratio"
    return "count"


def bootstrap() -> None:
    """Point this process and its children at the checkout's ``src/`` and
    pin BLAS/OpenMP to one thread before numpy loads."""
    if not (SRC / "hwtracks" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no hwtracks sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _git_sha() -> str:
    # only the checkout's own repository: a checkout that is not one must not
    # report the sha of a repository that happens to enclose it
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:  # no git program
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> Dict:
    import hashlib
    from importlib.metadata import version

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    # src_sha256 identifies the sources where git_sha cannot: in a checkout
    # that is not a git repository, or in a tree with uncommitted changes
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
    }


def _input_bytes(chain: ChainRun) -> int:
    return sum(p.stat().st_size for pattern in
               ("*_tracks.csv", "*_tracksMeta.csv", "*_recordingMeta.csv")
               for p in chain.rec_dir.glob(pattern))


def _metric_block(values: Dict[str, float], units: Callable[[str], str]) -> Dict:
    return {name: {"value": float(v), "unit": units(name)} for name, v in values.items()}


def untraced(workload: Workload, script_paths: Sequence[Path], recording_ids: Sequence[int],
             work: Path, seconds: float, deadline: float):
    """Chain passes until ``seconds`` of chain time are measured; the first
    pass is checked against truth, later ones must reproduce its bytes.
    Per-pass times are reduced to their mean over the passes, sizes and
    set-up time to their median."""
    from checks import CheckReport, check_runs

    passes = []
    setup: List[float] = []
    measured = 0.0
    while True:
        chain = run_chain(script_paths, work / f"pass{len(passes)}", workload.jobs, deadline)
        measured += chain.total_s()
        setup += chain.setup_s
        digests = file_digests(chain.rec_dir, chain.ext_dir, chain.stats_dir)
        if not passes:
            report, first_digests = CheckReport(), digests
            check_runs(report, chain)
            checked = run_child([sys.executable, str(HERE / "checks.py"), str(chain.workdir),
                                 *map(str, recording_ids)], chain.workdir / "logs" / "checks",
                                deadline)
            if report.record(checked.returncode == 0,
                             f"output checks crashed: {checked.stderr.strip()[-500:]}"):
                data = json.loads(checked.stdout)
                report.attempted += data["attempted"]
                report.failed += data["failed"]
                report.problems += data["problems"]
                report.quality, report.rows, report.tracks = (
                    data["quality"], data["rows"], data["tracks"])
        else:
            report.record(all(r.returncode == 0 for r in chain.all_runs())
                          and digests == first_digests,
                          f"pass {len(passes)} did not reproduce the first pass's outputs")
        passes.append({
            **{f"{c}_s": chain.seconds(c) for c in SUBCOMMANDS},
            "peak_rss_mb": max(r.max_rss_mb for r in chain.all_runs()),
            "extract_rss_b": chain.max_rss_mb("extract") * 1024 * 1024,
            "input_b": _input_bytes(chain),
        })
        shutil.rmtree(chain.workdir)
        if measured >= seconds:
            break
    for problem in report.problems:
        print(f"FAILED: {problem}")

    # The host's speed drifts by tens of per cent within seconds; the mean
    # over the passes averages all of the measured time, which on recorded
    # passes spread less across runs than the fastest or the median pass.
    # Sizes take the median pass.
    med = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    mean = {f"{c}_s": statistics.fmean(p[f"{c}_s"] for p in passes) for c in SUBCOMMANDS}
    metrics = {"setup_s": statistics.median(setup), **mean}
    metrics["chain_s"] = sum(mean.values())
    metrics["rows_per_s"] = report.rows / (mean["track_s"] + mean["extract_s"])
    metrics["peak_rss_mb"] = med["peak_rss_mb"]
    metrics["rss_input_ratio"] = med["extract_rss_b"] / max(med["input_b"], 1)
    metrics["ops_ok_share"] = 1.0 - report.failed / report.attempted
    for name in ("pos_err_p95_m", "tracks_per_vehicle", "track_precision",
                 "lc_recall", "cutin_recall"):
        metrics[name] = report.quality.get(name, 0.0)
    info = {"passes": [{k: round(v, 4) for k, v in p.items() if k.endswith("_s")}
                       for p in passes],
            "rows": report.rows, "tracks": report.tracks,
            **{k: report.quality.get(k, 0) for k in ("vehicles", "lane_changes", "cut_ins")}}
    return metrics, report.attempted, report.failed, first_digests, info


def _bracketed_chains(tracer, script_paths: Sequence[Path], work: Path, report):
    """Three chains through ``hwtracks.cli.main`` at ``--jobs 1``, run in
    lockstep: each CLI call runs plain, then with the layers wrapped, then
    plain again, so that drift of the host's speed cancels out of the ratio
    of the traced time to the mean plain time. Records each exit status in
    ``report``; returns the traced chain, a plain one and that ratio."""
    from tracing import Tracer, run_cli, traced_layers

    tags = ("plain0", "traced", "plain1")
    chains = {tag: ChainRun(work / tag) for tag in tags}
    steps = {tag: chain_steps(script_paths, chains[tag], jobs=1) for tag in tags}
    seconds = dict.fromkeys(tags, 0.0)
    for index, (command, arg_lists) in enumerate(steps["traced"]):
        for i in range(len(arg_lists)):
            for tag in tags:
                argv = [command, *steps[tag][index][1][i]]
                if tag == "traced":
                    with traced_layers(tracer):
                        code, elapsed = run_cli(tracer, argv, f"{tag}/{command}/{i}")
                else:
                    code, elapsed = run_cli(Tracer(), argv, f"{tag}/{command}/{i}")
                seconds[tag] += elapsed
                report.record(code == 0, f"in-process {command} ({tag}) exited {code}")
    plain_s = (seconds["plain0"] + seconds["plain1"]) / 2
    return chains["traced"], chains["plain1"], seconds["traced"] / plain_s


def traced(script_paths: Sequence[Path], recording_ids: Sequence[int], work: Path,
           spans_path: Path):
    """The chain in-process with the layers wrapped, bracketed by two plain
    chains; then, on workloads of more than one recording, ``extract
    --jobs 2`` with only the pool wrapped."""
    import hwtracks
    from checks import CheckReport, check_outputs
    from tracing import Tracer, layer_metrics, run_cli, self_time_table, traced_layers

    if Path(hwtracks.__file__).resolve().parent != (SRC / "hwtracks").resolve():
        raise SystemExit(f"perfbench: hwtracks imported from {hwtracks.__file__}")

    report = CheckReport()
    tracer = Tracer()
    chain, plain, overhead = _bracketed_chains(tracer, script_paths, work, report)
    check_outputs(report, chain, recording_ids)
    digests = file_digests(chain.rec_dir, chain.ext_dir, chain.stats_dir)
    report.record(file_digests(plain.rec_dir, plain.ext_dir, plain.stats_dir) == digests,
                  "traced outputs differ from untraced ones")

    pool_tracer = Tracer()
    workers = min(POOL_JOBS, len(recording_ids))
    if workers > 1:
        pool_dir = work / "pool"
        with traced_layers(pool_tracer, only=("cli.run_parallel",)):
            code, _ = run_cli(pool_tracer, ["extract", "--input", str(chain.rec_dir),
                                            "--output", str(pool_dir), "--jobs", str(workers)],
                              "pool/extract")
        pooled = {k.replace(pool_dir.name, chain.ext_dir.name, 1): v
                  for k, v in file_digests(pool_dir).items()}
        report.record(code == 0 and pooled == file_digests(chain.ext_dir),
                      f"extract --jobs {workers} differs from --jobs 1 (exit {code})")
        pool_spans = pool_tracer.spans
    else:
        # _run_parallel starts no pool for one recording: report its serial path
        print("pool: one recording, so extract runs serially at any --jobs")
        pool_spans = [s for s in tracer.spans if s.run_id.startswith("traced/extract/")]
    pool_wall = sum(s.end - s.start for s in pool_spans if s.name == "cli.run_parallel")

    for problem in report.problems:
        print(f"FAILED: {problem}")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"spans": tracer.as_records() + pool_tracer.as_records(),
                                      "counts": dict(tracer.counts)}), encoding="utf-8")
    for root, row in self_time_table(tracer.spans).items():
        top = sorted(row.items(), key=lambda kv: -kv[1])[:4]
        print(f"self time under {root}: " + ", ".join(f"{n} {v:.3f}s" for n, v in top))
    metrics = layer_metrics(tracer.spans, tracer.counts, pool_wall, workers,
                            overhead=overhead)
    return metrics, report.attempted, report.failed, digests


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()

    workload = WORKLOADS[args.workload]
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    try:
        scripts = workload.scripts(args.seed)
        script_paths = write_scripts(scripts, work / "scripts")
        recording_ids = [s["recording_id"] for s in scripts]
        if args.trace:
            metrics, attempted, failed, digests = traced(
                script_paths, recording_ids, work,
                OUT_DIR / f"spans-{args.workload}-s{args.seed}.json")
            block = _metric_block(metrics, per_layer_unit)
        else:
            metrics, attempted, failed, digests, info = untraced(
                workload, script_paths, recording_ids, work, args.seconds,
                started + RUN_DEADLINE_S)
            print("workload " + json.dumps({"name": args.workload, "jobs": workload.jobs,
                                            **info}, sort_keys=True))
            block = _metric_block(metrics, END_TO_END.__getitem__)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, digest in digests.items():
        print(f"sha256 {digest} {name}")
    for name, m in block.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"wall {time.perf_counter() - started:.1f}s")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": block}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
