"""The BENCH_<N>.json writer on canned tool output, not on a live run."""

import json

import pytest

from tools.bench_record import (
    PAIRS,
    bench_document,
    bytecode_state,
    pair_summary,
    pairs_section,
    parse_corpus,
    parse_run,
    parse_wc,
    summarize,
    write_bench,
)

ENVIRONMENT = {"git_sha": "c0ffee", "nproc": 2, "numpy": "2.4.6", "python": "3.11.7",
               "src_lines": 4600, "src_sha256": "ab" * 32}


def run_stdout(extract_s, correct=True, chain_s=3.0):
    metrics = {"extract_s": {"value": extract_s, "unit": "s"},
               "chain_s": {"value": chain_s, "unit": "s"}}
    return "\n".join([
        "environment " + json.dumps(ENVIRONMENT, sort_keys=True),
        "workload " + json.dumps({"name": "lanechange-dense", "jobs": 1}),
        "sha256 " + "0" * 64 + " ext/01_laneChangeFits.csv",
        f"extract_s {extract_s:>16.6g} s",
        "wall 17.8s",
        json.dumps({"correct": correct, "attempted": 21, "failed": 0 if correct else 1,
                    "metrics": metrics}),
    ]) + "\n"


CORPUS_STDOUT = """\
| subcommand | wall | peak RSS | RSS ÷ input |
|---|---|---|---|
| `synth` | 2.40 s | 130 MB | — |
| `track` | 3.71 s | 134 MB | 20.2× |
| `extract` | 1.07 s | 123 MB | 5.4× |
34 files in /tmp/out/MANIFEST.sha256
"""

WC_STDOUT = """\
  109 /repo/src/hwtracks/__init__.py
  601 /repo/src/hwtracks/lane_change.py
  710 total
"""


def test_parse_run():
    run = parse_run(run_stdout(1.25))
    assert run == {"environment": ENVIRONMENT, "correct": True, "attempted": 21,
                   "failed": 0, "metrics": {"extract_s": 1.25, "chain_s": 3.0}}


def test_summary_median_and_quartiles():
    runs = [parse_run(run_stdout(value)) for value in (5.0, 1.0, 4.0, 2.0, 3.0)]
    summary = summarize(runs)
    assert summary["extract_s"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                    "min": 1.0, "max": 5.0, "n": 5}
    assert summary["chain_s"]["median"] == 3.0


def test_summary_of_one_run():
    summary = summarize([parse_run(run_stdout(1.5))])
    assert summary["extract_s"] == {"median": 1.5, "q1": 1.5, "q3": 1.5,
                                    "min": 1.5, "max": 1.5, "n": 1}


def test_parse_corpus():
    corpus = parse_corpus(CORPUS_STDOUT)
    assert corpus["manifest_files"] == 34
    assert corpus["subcommands"] == {
        "synth": {"wall_s": 2.4, "peak_rss_mb": 130.0, "rss_input_ratio": None},
        "track": {"wall_s": 3.71, "peak_rss_mb": 134.0, "rss_input_ratio": 20.2},
        "extract": {"wall_s": 1.07, "peak_rss_mb": 123.0, "rss_input_ratio": 5.4},
    }


def test_parse_corpus_track_steps():
    corpus = parse_corpus(CORPUS_STDOUT + (
        "\n| step of `track` | time | RSS after the step | peak so far |\n|---|---|---|---|\n"
        "| `import` | 0.22 s | 32.8 MB | 32.6 MB |\n"
        "| `compute_surround` | 0.25 s | 95.1 MB | 99.0 MB |\n"))
    assert set(corpus["subcommands"]) == {"synth", "track", "extract"}
    assert corpus["track_steps"] == {
        "import": {"wall_s": 0.22, "rss_mb": 32.8, "peak_rss_mb": 32.6},
        "compute_surround": {"wall_s": 0.25, "rss_mb": 95.1, "peak_rss_mb": 99.0},
    }


def test_parse_corpus_extract_steps():
    corpus = parse_corpus(CORPUS_STDOUT + (
        "\n| step of `track` | time | RSS after the step | peak so far |\n|---|---|---|---|\n"
        "| `import` | 0.22 s | 32.8 MB | 32.6 MB |\n"
        "\n| step of `extract` | time | RSS after the step | peak so far |\n|---|---|---|---|\n"
        "| `import` | 0.25 s | 33.1 MB | 33.1 MB |\n"
        "| `read_recording` | 0.70 s | 80.4 MB | 86.9 MB |\n"))
    assert corpus["track_steps"] == {
        "import": {"wall_s": 0.22, "rss_mb": 32.8, "peak_rss_mb": 32.6}}
    assert corpus["extract_steps"] == {
        "import": {"wall_s": 0.25, "rss_mb": 33.1, "peak_rss_mb": 33.1},
        "read_recording": {"wall_s": 0.7, "rss_mb": 80.4, "peak_rss_mb": 86.9},
    }


def test_parse_wc():
    assert parse_wc(WC_STDOUT) == {"__init__.py": 109, "lane_change.py": 601, "total": 710}


def test_written_document(tmp_path):
    runs = {
        "lanechange-dense": {
            "trace0": [parse_run(run_stdout(v)) for v in (1.0, 1.2, 1.1)],
            "trace1": [parse_run(run_stdout(0.9, correct=False))],
        },
        "fleet-8x60": {"trace0": [parse_run(run_stdout(0.7))], "trace1": []},
    }
    bytecode = {"dont_write_bytecode": True, "pycache_at_start": False}
    document = bench_document(16, runs, parse_corpus(CORPUS_STDOUT), parse_wc(WC_STDOUT),
                              bytecode)
    path = tmp_path / "BENCH_16.json"
    write_bench(path, document)
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written == json.loads(json.dumps(document))
    assert written["bench"] == 16
    assert written["settings"] == {"runs": 5, "seed": 1, "seconds": 12.0,
                                   "dont_write_bytecode": True, "pycache_at_start": False}
    assert written["environment"] == ENVIRONMENT
    assert written["failed_runs"] == 1
    dense = written["workloads"]["lanechange-dense"]
    assert dense["trace0"]["summary"]["extract_s"]["median"] == pytest.approx(1.1)
    assert [r["metrics"]["extract_s"] for r in dense["trace0"]["runs"]] == [1.0, 1.2, 1.1]
    assert written["workloads"]["fleet-8x60"]["trace1"] == {"summary": {}, "runs": []}
    assert written["corpus_225k"]["manifest_files"] == 34
    assert written["src_lines"]["total"] == 710
    assert "pairs" not in written


@pytest.mark.parametrize("value, set_", [(None, False), ("", False), ("1", True), ("x", True)])
def test_bytecode_state(tmp_path, value, set_):
    # Python skips writing bytecode when the variable is a non-empty string;
    # the state of the cache moved the start-up of every child process
    environ = {} if value is None else {"PYTHONDONTWRITEBYTECODE": value}
    assert bytecode_state(environ, tmp_path) == {"dont_write_bytecode": set_,
                                                 "pycache_at_start": False}
    (tmp_path / "src" / "hwtracks" / "__pycache__").mkdir(parents=True)
    assert bytecode_state(environ, tmp_path)["pycache_at_start"] is True


def canned_pairs():
    """Four pairs: (parent, change) extract_s and chain_s per pair."""
    parent = [parse_run(run_stdout(v, chain_s=c))
              for v, c in ((1.0, 3.0), (1.2, 3.2), (1.1, 2.9), (1.3, 3.1))]
    change = [parse_run(run_stdout(v, chain_s=c, correct=v != 1.2))
              for v, c in ((0.9, 3.1), (1.0, 3.2), (1.2, 2.8), (1.0, 3.0))]
    return parent, change


def test_pair_summary():
    parent, change = canned_pairs()
    summary = pair_summary(parent, change, {"extract_s": "lower", "chain_s": "lower",
                                            "rows_per_s": "higher"})
    assert set(summary) == {"extract_s", "chain_s"}  # no run has rows_per_s
    extract = summary["extract_s"]
    assert extract["better"] == "lower"
    assert extract["parent"] == pytest.approx({"median": 1.15, "q1": 1.075, "q3": 1.225})
    assert extract["change"] == pytest.approx({"median": 1.0, "q1": 0.975, "q3": 1.05})
    assert (extract["change_wins"], extract["pairs"]) == (3, 4)
    # a tie is not a win
    assert summary["chain_s"]["change_wins"] == 2


@pytest.mark.parametrize("direction, shifts, resolved", [
    # the parent reads 1.0 .. 1.9: median 1.45, interquartile distance 0.45
    ("lower", [-0.5] * 9 + [0.1], True),  # 9 of 10 pairs, median 0.95
    ("lower", [-0.4] * 10, False),  # 10 of 10 pairs, but within the spread
    ("lower", [-0.5] * 8 + [0.1] * 2, False),  # 8 of 10 pairs
    ("higher", [0.6] * 9 + [-0.1], True),  # 9 of 10 pairs, median 1.95
    ("higher", [-0.5] * 9 + [0.1], False),
])
def test_pair_summary_resolved(direction, shifts, resolved):
    values = [1.0 + i / 10 for i in range(10)]
    parent = [parse_run(run_stdout(v)) for v in values]
    change = [parse_run(run_stdout(v + s)) for v, s in zip(values, shifts)]
    extract = pair_summary(parent, change, {"extract_s": direction})["extract_s"]
    assert extract["parent"]["q3"] - extract["parent"]["q1"] == pytest.approx(0.45)
    assert extract["resolved"] is resolved
    # the canned pairs win 3 of 4
    assert not pair_summary(*canned_pairs(), {"extract_s": "lower"})["extract_s"]["resolved"]


def test_pair_summary_higher_is_better():
    parent, change = canned_pairs()
    summary = pair_summary(parent, change, {"extract_s": "higher"})
    assert (summary["extract_s"]["change_wins"], summary["extract_s"]["pairs"]) == (1, 4)


def test_pair_summary_skips_pairs_without_the_metric():
    parent, change = canned_pairs()
    del change[0]["metrics"]["chain_s"]
    chain = pair_summary(parent, change, {"chain_s": "lower"})["chain_s"]
    assert (chain["change_wins"], chain["pairs"]) == (2, 3)


def test_written_pairs_section(tmp_path):
    parent, change = canned_pairs()
    section = pairs_section("p" * 40, "c" * 40,
                            {"lanechange-dense": {"parent": parent, "change": change}},
                            {"extract_s": "lower"})
    runs = {"lanechange-dense": {"trace0": parent, "trace1": []}}
    bytecode = {"dont_write_bytecode": False, "pycache_at_start": True}
    document = bench_document(22, runs, parse_corpus(CORPUS_STDOUT), parse_wc(WC_STDOUT),
                              bytecode, section)
    path = tmp_path / "BENCH_22.json"
    write_bench(path, document)
    pairs = json.loads(path.read_text(encoding="utf-8"))["pairs"]
    assert (pairs["parent"], pairs["change"]) == ("p" * 40, "c" * 40)
    assert pairs["settings"] == {"pairs": PAIRS, "seed": 1, "seconds": 12.0, "trace": 0,
                                 "dont_write_bytecode": True, "pycache": False}
    assert pairs["failed_runs"] == 1
    dense = pairs["workloads"]["lanechange-dense"]
    assert dense["summary"]["extract_s"]["change_wins"] == 3
    assert [r["metrics"]["extract_s"] for r in dense["runs"]["change"]] == [0.9, 1.0, 1.2, 1.0]
