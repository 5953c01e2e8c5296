"""Record the benchmark of this checkout as ``BENCH_<N>.json``.

Usage: ``python3 tools/bench_record.py N [--pair PARENT]``

Refuses to run while ``src/``, ``perfbench/`` or ``tools/`` differ from the
last commit, so that the ``git_sha`` recorded names the code measured.
Then runs, each as a child process of this checkout:

- ``perfbench/run.py --seed 1 --seconds 12`` on every workload of
  ``BENCHMARK.json``, ``RUNS`` times with ``--trace 0`` (end-to-end metrics)
  and ``RUNS`` times with ``--trace 1`` (per-layer metrics), alternating the
  workloads;
- ``tools/corpus_225k.py`` ``CORPUS_RUNS`` times, each in a fresh temporary
  directory (wall time and peak RSS of each subcommand on the 225k-row
  corpus, and the step tables of ``track`` and of ``extract``: per tracer
  span, its self time and the RSS and high-water mark after its last
  call);
- ``wc -l src/hwtracks/*.py``.

Then writes ``BENCH_<N>.json`` at the root of the checkout: the environment
that ``perfbench/run.py`` reports, the median and quartiles of every metric
per workload and trace mode, every raw run, every corpus run with the
median of each subcommand's figures over them, and the line counts. Its ``settings`` also record whether ``PYTHONDONTWRITEBYTECODE`` was
set and whether ``src/hwtracks/__pycache__`` existed at start: a checkout
without compiled bytecode starts every child process slower. A run that fails its checks stays in the raw runs and is counted in
``failed_runs``; its metrics still enter the summary.

With ``--pair PARENT`` it then compares HEAD with the commit ``PARENT``:
both are exported (``git archive``) into fresh scratch directories, and
``perfbench/run.py --seed 1 --seconds 12 --trace 0`` runs on each workload
``PAIRS`` times per side, the sides alternating within each pair and
leading in turn. Every such run has ``PYTHONDONTWRITEBYTECODE=1``, so no
``__pycache__`` is ever written into the fresh exports and cache state
cannot favour a side. The
``pairs`` section of ``BENCH_<N>.json`` gives, per workload and end-to-end
metric, the parent's and the change's median and quartiles and the number
of pairs in which the change is better (in the metric's direction in
``BENCHMARK.json``) and whether a gain in it may be claimed (``resolved``:
better in at least nine tenths of the pairs, by more in the median than
the parent's interquartile distance), with every raw run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SOURCES = "src/hwtracks/*.py"
#: What must match the last commit for its ``git_sha`` to name the code run.
CODE = ("src", "perfbench", "tools")
#: Runs per workload and trace mode, and the ``perfbench/run.py`` settings;
#: fixed, so that the BENCH_<N>.json of different commits compare.
RUNS = 5
SEED = 1
SECONDS = 12.0
#: Parent/change pairs per workload with ``--pair``.
PAIRS = 10
#: Runs of ``tools/corpus_225k.py``: one run's wall times on a shared host
#: cannot decide the corpus time target.
CORPUS_RUNS = 3


def parse_run(stdout: str) -> Dict:
    """One ``perfbench/run.py`` run: its environment line and its last line
    (``correct``, ``attempted``, ``failed`` and the metric values)."""
    lines = stdout.strip().splitlines()
    environment = next((json.loads(line[len("environment "):]) for line in lines
                        if line.startswith("environment ")), {})
    result = json.loads(lines[-1])
    return {
        "environment": environment,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def parse_corpus(stdout: str) -> Dict:
    """The subcommand table of ``tools/corpus_225k.py``, its manifest size and
    the ``track`` and ``extract`` step tables that follow the manifest line,
    each under the name its header gives. A step row is a tracer span:
    ``wall_s`` is its self time, ``rss_mb`` and ``peak_rss_mb`` the RSS and
    high-water mark after its last call."""
    table: Dict = {}
    steps: Dict[str, Dict] = {"track_steps": {}, "extract_steps": {}}
    files = rows = None
    for line in stdout.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`") and files is None:
            command, wall, rss, ratio = cells
            table[command.strip("`")] = {
                "wall_s": float(wall.split()[0]),
                "peak_rss_mb": float(rss.split()[0]),
                "rss_input_ratio": float(ratio.rstrip("×")) if ratio != "—" else None,
            }
        elif len(cells) == 4 and cells[0].startswith("step of `"):
            rows = steps.setdefault(f"{cells[0][len('step of `'):-1]}_steps", {})
        elif len(cells) == 4 and cells[0].startswith("`") and rows is not None:
            name, wall, rss, peak = cells
            rows[name.strip("`")] = {"wall_s": float(wall.split()[0]),
                                     "rss_mb": float(rss.split()[0]),
                                     "peak_rss_mb": float(peak.split()[0])}
        elif line.split(" files in ")[0].isdigit():
            files = int(line.split()[0])
    return {"subcommands": table, "manifest_files": files, **steps}


def corpus_section(runs: Sequence[Dict]) -> Dict:
    """The ``corpus_225k`` section: every ``parse_corpus`` run and, per
    subcommand, the median of each figure over the runs (None where a run
    has none, as ``synth``'s input ratio)."""
    median = {}
    for command, figures in runs[0]["subcommands"].items():
        values = {name: [run["subcommands"][command][name] for run in runs]
                  for name in figures}
        median[command] = {name: None if None in v else statistics.median(v)
                           for name, v in values.items()}
    return {"runs": list(runs), "median": median}


def parse_wc(stdout: str) -> Dict[str, int]:
    """``wc -l`` output as {path: lines}, with the ``total`` line."""
    counts = {}
    for line in stdout.strip().splitlines():
        number, name = line.split(None, 1)
        counts[Path(name).name if name != "total" else "total"] = int(number)
    return counts


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method) of ``values``."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else list(values) * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: Sequence[Dict]) -> Dict[str, Dict]:
    """Median, quartiles (inclusive method), min, max and count of every
    metric over ``runs``."""
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name] for run in runs if name in run["metrics"]]
        summary[name] = {**quartiles(values), "min": min(values), "max": max(values),
                         "n": len(values)}
    return summary


def pair_summary(parent: Sequence[Dict], change: Sequence[Dict],
                 better: Mapping[str, str]) -> Dict[str, Dict]:
    """Per metric of ``better`` (name -> ``"lower"`` or ``"higher"``): the
    median and quartiles of the parent's and of the change's runs, in how
    many pairs (``parent[i]``, ``change[i]``) the change is strictly better,
    and whether that clears the rule for claiming a gain (``resolved``): the
    change wins at least nine tenths of the pairs, and its median is better
    than the parent's by more than the parent's interquartile distance.
    Metrics that a run of a pair lacks skip that pair."""
    summary = {}
    for name, direction in better.items():
        pairs = [(p["metrics"][name], c["metrics"][name]) for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        sign = 1 if direction == "lower" else -1
        before, after = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        summary[name] = {
            "better": direction,
            "parent": before,
            "change": after,
            "change_wins": wins,
            "pairs": len(pairs),
            "resolved": (10 * wins >= 9 * len(pairs)
                         and sign * (before["median"] - after["median"])
                         > before["q3"] - before["q1"]),
        }
    return summary


def pairs_section(parent_sha: str, change_sha: str, runs: Dict[str, Dict[str, List[Dict]]],
                  better: Mapping[str, str]) -> Dict:
    """The ``pairs`` section: ``runs`` maps each workload to its ``parent``
    and ``change`` lists of parsed runs, pair i being the i-th of each."""
    return {
        "parent": parent_sha, "change": change_sha,
        "settings": {"pairs": PAIRS, "seed": SEED, "seconds": SECONDS, "trace": 0,
                     "dont_write_bytecode": True, "pycache": False},
        "failed_runs": sum(not run["correct"] for sides in runs.values()
                           for side in sides.values() for run in side),
        "workloads": {workload: {"summary": pair_summary(sides["parent"], sides["change"],
                                                         better),
                                 "runs": sides}
                      for workload, sides in runs.items()},
    }


def bytecode_state(environ: Mapping[str, str], root: Path) -> Dict[str, bool]:
    """Whether ``PYTHONDONTWRITEBYTECODE`` is set (to a non-empty string, as
    Python reads it) and whether the checkout at ``root`` has a compiled
    ``src/hwtracks/__pycache__``."""
    return {"dont_write_bytecode": bool(environ.get("PYTHONDONTWRITEBYTECODE")),
            "pycache_at_start": (root / "src" / "hwtracks" / "__pycache__").is_dir()}


def bench_document(number: int, runs: Dict[str, Dict[str, List[Dict]]],
                   corpus: Dict, lines: Dict[str, int], bytecode: Dict[str, bool],
                   pairs: Optional[Dict] = None) -> Dict:
    """The ``BENCH_<N>.json`` content. ``runs`` maps each workload to its
    ``trace0`` and ``trace1`` lists of parsed runs; ``corpus`` is the
    ``corpus_section``; ``bytecode`` is the ``bytecode_state`` at start;
    ``pairs`` is the ``pairs_section``, if any."""
    every_run = [run for modes in runs.values() for mode in modes.values() for run in mode]
    return {
        "bench": number,
        "settings": {"runs": RUNS, "seed": SEED, "seconds": SECONDS,
                     "corpus_runs": CORPUS_RUNS, **bytecode},
        "environment": every_run[0]["environment"] if every_run else {},
        "failed_runs": sum(not run["correct"] for run in every_run),
        "workloads": {
            workload: {mode: {"summary": summarize(mode_runs) if mode_runs else {},
                              "runs": mode_runs}
                       for mode, mode_runs in modes.items()}
            for workload, modes in runs.items()
        },
        "corpus_225k": corpus,
        "src_lines": lines,
        **({"pairs": pairs} if pairs is not None else {}),
    }


def write_bench(path: Path, document: Dict) -> None:
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _perfbench(workload: str, trace: int, root: Path = ROOT,
               env: Optional[Mapping[str, str]] = None) -> Dict:
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, env=env, capture_output=True, text=True)
    if not result.stdout.strip():
        raise SystemExit(f"perfbench/run.py --workload {workload} printed nothing:\n"
                         f"{result.stderr}")
    return parse_run(result.stdout)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(sha: str, directory: Path) -> None:
    """The committed tree of ``sha`` in ``directory``, without a ``.git``."""
    directory.mkdir()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive, check=True)


def run_pairs(parent_sha: str, workloads: Sequence[str], better: Mapping[str, str]) -> Dict:
    """``PAIRS`` alternated runs of the commit ``parent_sha`` and of HEAD per
    workload (``--trace 0``), as the ``pairs_section``."""
    shas = {"parent": parent_sha, "change": _git("rev-parse", "HEAD")}
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as scratch:
        roots = {side: Path(scratch) / side for side in shas}
        for side, sha in shas.items():
            _export(sha, roots[side])
        for index in range(PAIRS):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    run = _perfbench(workload, 0, roots[side], env)
                    runs[workload][side].append(run)
                    print(f"pair {index + 1}/{PAIRS} {workload} {side}: "
                          f"correct={run['correct']}", flush=True)
    return pairs_section(shas["parent"], shas["change"], runs, better)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="the N of BENCH_<N>.json")
    parser.add_argument("--pair", metavar="PARENT",
                        help="also compare HEAD with this commit in alternated pairs")
    args = parser.parse_args(argv)
    bytecode = bytecode_state(os.environ, ROOT)
    changed = subprocess.run(["git", "status", "--porcelain", "--", *CODE],
                             cwd=ROOT, capture_output=True, text=True, check=True).stdout
    if changed.strip():
        raise SystemExit(f"commit {', '.join(CODE)} first; changed:\n{changed}")
    parent_sha = _git("rev-parse", "--verify", f"{args.pair}^{{commit}}") if args.pair else None

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    runs = {w: {"trace0": [], "trace1": []} for w in workloads}
    for trace in (0, 1):
        for index in range(RUNS):
            for workload in workloads:
                run = _perfbench(workload, trace)
                runs[workload][f"trace{trace}"].append(run)
                print(f"trace {trace} run {index + 1}/{RUNS} {workload}: "
                      f"correct={run['correct']}", flush=True)
    corpus_runs = []
    for index in range(CORPUS_RUNS):
        with tempfile.TemporaryDirectory() as out:
            result = subprocess.run([sys.executable, "tools/corpus_225k.py", out],
                                    cwd=ROOT, capture_output=True, text=True, check=True)
        corpus_runs.append(parse_corpus(result.stdout))
        print(f"corpus run {index + 1}/{CORPUS_RUNS}", flush=True)
    wc = subprocess.run(["wc", "-l", *sorted(glob.glob(str(ROOT / SOURCES)))],
                        capture_output=True, text=True, check=True)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    pairs = run_pairs(parent_sha, workloads, better) if parent_sha else None
    path = ROOT / f"BENCH_{args.number}.json"
    document = bench_document(args.number, runs, corpus_section(corpus_runs),
                              parse_wc(wc.stdout), bytecode, pairs)
    write_bench(path, document)
    print(f"wrote {path.name}: {document['failed_runs']} failed runs, "
          f"src {document['src_lines']['total']} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
