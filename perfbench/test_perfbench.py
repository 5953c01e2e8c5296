"""Tests of the benchmark itself, on reduced workloads.

    python3 -m pytest perfbench
"""

import importlib
import json
import os
import shutil
import time

import pytest

import run
from chain import ROOT, file_digests, run_chain, write_scripts
from checks import check_chain
from scenes import fleet_scripts, lanechange_script
from tracing import TARGETS, Tracer, traced_layers

run.bootstrap()


@pytest.fixture(scope="module")
def workdir():
    path = run.OUT_DIR / f"tests-{os.getpid()}"
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def small_fleet(workdir):
    scripts = fleet_scripts(seed=3, n_recordings=3, duration=30.0)
    return scripts, write_scripts(scripts, workdir / "scripts")


@pytest.fixture(scope="module")
def fleet_jobs1(workdir, small_fleet):
    return run_chain(small_fleet[1], workdir / "jobs1", 1, time.perf_counter() + 120)


def test_reduced_fleet_passes_every_check(fleet_jobs1):
    report = check_chain(fleet_jobs1, [1, 2, 3])
    assert report.failed == 0, report.problems
    assert report.attempted >= 3 * 3 + 5 + 3 + 1 + 6
    assert report.quality["lane_changes"] > 0


def test_fleet_outputs_are_byte_identical_at_jobs_1_and_2(workdir, small_fleet, fleet_jobs1):
    jobs2 = run_chain(small_fleet[1], workdir / "jobs2", 2, time.perf_counter() + 120)
    assert all(r.returncode == 0 for r in jobs2.all_runs())
    one = file_digests(fleet_jobs1.rec_dir, fleet_jobs1.ext_dir, fleet_jobs1.stats_dir)
    two = file_digests(jobs2.rec_dir, jobs2.ext_dir, jobs2.stats_dir)
    assert len(one) > 30
    assert one == two


def test_truncated_tracks_file_counts_as_failed_op(workdir, fleet_jobs1):
    damaged = type(fleet_jobs1)(workdir / "damaged", fleet_jobs1.runs)
    shutil.copytree(fleet_jobs1.workdir, damaged.workdir)
    tracks = damaged.rec_dir / "01_tracks.csv"
    data = tracks.read_bytes()
    tracks.write_bytes(data[: len(data) // 2])
    report = check_chain(damaged, [1, 2, 3])
    assert report.failed >= 1
    assert any("read_recording(output 1)" in p for p in report.problems)


def test_scenes_depend_only_on_the_seed():
    assert lanechange_script(5) == lanechange_script(5)
    assert fleet_scripts(5) == fleet_scripts(5)
    a, b = fleet_scripts(5), fleet_scripts(6)
    assert [s["vehicles"] for s in a] == [s["vehicles"] for s in b]
    assert [s["seed"] for s in a] != [s["seed"] for s in b]


def test_traced_run_reports_every_layer_and_restores_functions(workdir):
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}
    paths = write_scripts(fleet_scripts(4, 2, 30.0), workdir / "traced-scripts")
    spans_path = workdir / "spans.json"
    metrics, attempted, failed, _ = run.traced(paths, [1, 2], workdir / "traced", spans_path)
    assert failed == 0
    assert attempted > 0
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert metrics["smoothing.smooth_track_with_diagnostics.calls"] > 0
    assert metrics["cli.result_bytes"] > 0
    assert 0 < metrics["cli.pool_efficiency"]
    spans = json.loads(spans_path.read_text())["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} >= {"cli.synth", "cli.track", "cli.extract"}
    assert all(s["end"] >= s["start"] and s["run_id"] for s in spans)


def test_tracer_self_time_excludes_children():
    from tracing import self_times

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    selfs = self_times(tracer.spans)
    assert inner.parent == outer.span_id
    assert selfs[outer.span_id] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start))


def test_traced_layers_restores_on_error():
    import hwtracks.pipeline as pipeline

    original = pipeline.build_tracks
    with pytest.raises(RuntimeError):
        with traced_layers(Tracer()):
            assert pipeline.build_tracks is not original
            raise RuntimeError
    assert pipeline.build_tracks is original


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.per_layer_unit(metric["name"])
