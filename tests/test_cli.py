import io
import json
import math
import pickle
import re
from pathlib import Path

import pytest

from hwtracks import Track, read_recording
from hwtracks.cli import _extract_one, main
from hwtracks.dataset_io import RecordingFileSet
from hwtracks.pipeline import PipelineConfig

DEMO_SCENE = Path(__file__).resolve().parent.parent / "demos" / "demo_scene.json"


def write_script(path, recording_id=1, duration=20.0, seed=5, noise=None,
                 with_lane_change=True, frame_rate=25.0):
    vehicles = [
        {
            "direction": "lower",
            "entry_lane": 1,
            "entry_x": 100.0,
            "initial_speed": 30.0,
            "lane_changes": (
                [{"start_time": 6.0, "duration": 5.0, "to_lane": 2}]
                if with_lane_change
                else []
            ),
        },
        {
            "direction": "lower",
            "entry_lane": 2,
            "entry_x": 0.0,
            "initial_speed": 25.0,
        },
        {
            "direction": "upper",
            "entry_lane": 1,
            "entry_x": 400.0,
            "initial_speed": 28.0,
        },
    ]
    data = {
        "seed": seed,
        "duration": duration,
        "frame_rate": frame_rate,
        "recording_id": recording_id,
        "vehicles": vehicles,
    }
    if noise:
        data["noise"] = noise
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2))
    return path


def run_synth(tmp_path, **kwargs):
    script = write_script(tmp_path / "scene.json", **kwargs)
    out = tmp_path / "synth"
    assert main(["synth", "--script", str(script), "--output", str(out)]) == 0
    return out


class TestSynthCommand:
    def test_outputs_exist(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        assert (out / "detections" / "01_detections.csv").is_file()
        assert (out / "detections" / "01_recordingMeta.csv").is_file()
        for name in ("01_recordingMeta.csv", "01_tracksMeta.csv", "01_tracks.csv",
                     "01_episodes.csv", "01_episodes.json", "01_cutIns.csv"):
            assert (out / "truth" / name).is_file()

    def test_deterministic_bytes(self, tmp_path):
        script = write_script(tmp_path / "scene.json",
                              noise={"position_sigma": 0.1,
                                     "false_positive_rate": 0.2})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--script", str(script), "--output", str(out1)]) == 0
        assert main(["synth", "--script", str(script), "--output", str(out2)]) == 0
        for rel in ("detections/01_detections.csv", "truth/01_tracks.csv",
                    "truth/01_episodes.json"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_seed_override_changes_noise(self, tmp_path):
        script = write_script(tmp_path / "scene.json",
                              noise={"position_sigma": 0.1})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--script", str(script), "--output", str(out1)]) == 0
        assert main(["synth", "--script", str(script), "--output", str(out2),
                     "--seed-override", "77"]) == 0
        assert (
            (out1 / "detections" / "01_detections.csv").read_bytes()
            != (out2 / "detections" / "01_detections.csv").read_bytes()
        )

    def test_config_is_not_a_synth_flag(self, tmp_path):
        # synth reads no pipeline config; --seed-override sets the seed
        script = write_script(tmp_path / "scene.json")
        (tmp_path / "x.json").write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--script", str(script), "--output", str(tmp_path / "o"),
                  "--config", str(tmp_path / "x.json")])
        assert exc.value.code == 2

    def test_invalid_script_exit_1(self, tmp_path, capsys):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({"seed": 1, "duration": 10.0,
                                      "vehicles": [{"direction": "lower"}]}))
        out = tmp_path / "out"
        assert main(["synth", "--script", str(script), "--output", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["errors"][0]["kind"] == "ScriptError"
        assert "entry_lane" in err["errors"][0]["message"]


class TestTrackCommand:
    def test_zero_noise_tracks_match_truth(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        tracked = tmp_path / "tracked"
        assert main(["track", "--input", str(out / "detections"),
                     "--output", str(tracked)]) == 0
        got = read_recording(RecordingFileSet.for_recording(tracked, 1))
        want = read_recording(RecordingFileSet.for_recording(out / "truth", 1))
        assert len(got.tracks) == len(want.tracks)
        for g, w in zip(got.tracks, want.tracks):
            assert g.num_frames == w.num_frames
            for a, b in zip(g.states[10:], w.states[10:]):
                # x is constant-velocity (model-exact, limited by 6-digit
                # file rounding); the quintic lateral motion is outside the
                # smoother's model class, so y only matches to smoothing
                # quality (about 1.4 cm peak around the maneuver)
                assert abs(a.x - b.x) < 1e-3
                assert abs(a.y - b.y) < 0.03

    @pytest.mark.parametrize("command", ["track", "extract", "stats"])
    def test_empty_input_exit_1(self, tmp_path, capsys, command):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([command, "--input", str(empty),
                     "--output", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["errors"][0]["kind"] == "EmptyInput"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, source", [
        ("track", "detections"), ("extract", "truth"), ("stats", "truth")])
    def test_output_that_is_a_file_is_one_reported_error(self, tmp_path, capsys, command,
                                                         source):
        out = run_synth(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        assert main([command, "--input", str(out / source), "--output", str(taken)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [entry] = json.loads(err)["errors"]  # the whole of stderr is one JSON object
        assert entry["kind"] == "FileExistsError" and str(taken) in entry["message"]

    def test_corrupt_detections_named_in_error(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        det = out / "detections" / "01_detections.csv"
        lines = det.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "bogus"
        lines[3] = ",".join(cells)
        det.write_text("\n".join(lines) + "\n")
        assert main(["track", "--input", str(out / "detections"),
                     "--output", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        entry = err["errors"][0]
        assert entry["kind"] == "TypeMismatch"
        assert entry["row"] == 3
        assert "01_detections.csv" in entry["file"]

    def test_frame_beyond_recording_named_in_error(self, tmp_path, capsys):
        out = run_synth(tmp_path, duration=20.0)  # 25 fps: last frame 500
        det = out / "detections" / "01_detections.csv"
        lines = det.read_text().splitlines()
        cells = lines[3].split(",")
        cells[0] = "900"
        lines[3] = ",".join(cells)
        det.write_text("\n".join(lines) + "\n")
        assert main(["track", "--input", str(out / "detections"),
                     "--output", str(tmp_path / "o")]) == 1
        entry = json.loads(capsys.readouterr().err)["errors"][0]
        assert entry["kind"] == "InvariantViolation"
        assert (entry["row"], entry["column"]) == (3, "frame")
        assert "01_detections.csv" in entry["file"]

    @pytest.mark.parametrize("command", ["track", "extract", "stats"])
    def test_seed_override_only_on_synth(self, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(tmp_path), "--output", str(tmp_path / "o"),
                  "--seed-override", "7"])
        assert exc.value.code == 2


class TestExtractCommand:
    def test_outputs(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        extracted = tmp_path / "extracted"
        assert main(["extract", "--input", str(out / "truth"),
                     "--output", str(extracted)]) == 0
        for name in ("01_episodes.csv", "01_episodes.json",
                     "01_laneChangeFits.csv", "01_cutIns.csv", "01_cutIns.json",
                     "meanSpeedHistogram.csv", "01_truckRatio.csv",
                     "cutInThwHistogram.csv", "cutInThwBand.csv", "summary.json"):
            assert (extracted / name).is_file(), name
        summary = json.loads((extracted / "summary.json").read_text())
        assert summary["episodeCounts"]["LaneChange"] == 1
        assert summary["cutInCount"] == 1
        fits = (extracted / "01_laneChangeFits.csv").read_text().splitlines()
        assert len(fits) == 2  # header + one fit

    def test_extract_equals_truth_on_clean_recordings(self, tmp_path):
        out = run_synth(tmp_path)
        extracted = tmp_path / "extracted"
        assert main(["extract", "--input", str(out / "truth"),
                     "--output", str(extracted)]) == 0
        got_eps = json.loads((extracted / "01_episodes.json").read_text())
        want_eps = json.loads((out / "truth" / "01_episodes.json").read_text())
        got_lc = [e for e in got_eps if e["kind"] == "LaneChange"]
        assert got_lc == want_eps
        got_cuts = json.loads((extracted / "01_cutIns.json").read_text())
        want_cuts = json.loads((out / "truth" / "01_cutIns.json").read_text())
        assert got_cuts == want_cuts

    def test_no_lane_changes_header_only(self, tmp_path):
        out = run_synth(tmp_path, with_lane_change=False)
        extracted = tmp_path / "extracted"
        assert main(["extract", "--input", str(out / "truth"),
                     "--output", str(extracted)]) == 0
        fits = (extracted / "01_laneChangeFits.csv").read_text().splitlines()
        assert len(fits) == 1  # header only

    def test_one_corrupt_recording_reported_other_processed(self, tmp_path, capsys):
        out1 = run_synth(tmp_path, recording_id=1)
        recordings = tmp_path / "recordings"
        recordings.mkdir()
        for f in (out1 / "truth").glob("01_*"):
            (recordings / f.name).write_bytes(f.read_bytes())
        # second recording: corrupt tracksMeta
        script2 = write_script(tmp_path / "scene2.json", recording_id=2, seed=9)
        out2 = tmp_path / "synth2"
        assert main(["synth", "--script", str(script2), "--output", str(out2)]) == 0
        for f in (out2 / "truth").glob("02_*"):
            (recordings / f.name).write_bytes(f.read_bytes())
        (recordings / "02_tracksMeta.csv").write_text("id,length\n")
        extracted = tmp_path / "extracted"
        assert main(["extract", "--input", str(recordings),
                     "--output", str(extracted)]) == 1
        assert (extracted / "01_episodes.csv").is_file()
        err = json.loads(capsys.readouterr().err)
        assert any(e["kind"] == "MissingColumn" for e in err["errors"])

    def test_jobs_do_not_change_bytes(self, tmp_path):
        recordings = tmp_path / "recordings"
        recordings.mkdir()
        for rid in (1, 2):
            out = run_synth(tmp_path / f"s{rid}", recording_id=rid,
                            seed=rid, duration=12.0)
            for f in (out / "truth").glob(f"{rid:02d}_*"):
                (recordings / f.name).write_bytes(f.read_bytes())
        a, b = tmp_path / "j1", tmp_path / "j2"
        assert main(["extract", "--input", str(recordings), "--output", str(a),
                     "--jobs", "1"]) == 0
        assert main(["extract", "--input", str(recordings), "--output", str(b),
                     "--jobs", "2"]) == 0
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestValidateCommand:
    def test_valid_dir_exit_0(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        capsys.readouterr()  # drop synth progress output
        assert main(["validate", "--input", str(out / "truth")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["issues"] == []

    def test_missing_tracks_meta(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        capsys.readouterr()
        (out / "truth" / "01_tracksMeta.csv").unlink()
        assert main(["validate", "--input", str(out / "truth")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(i["kind"] == "MissingFile" for i in report["issues"])

    def test_dangling_neighbor_has_row(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        tracks = out / "truth" / "01_tracks.csv"
        lines = tracks.read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("precedingId")
        cells = lines[5].split(",")
        cells[idx] = "4242"
        lines[5] = ",".join(cells)
        tracks.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["validate", "--input", str(out / "truth")]) == 1
        report = json.loads(capsys.readouterr().out)
        issue = next(i for i in report["issues"]
                     if i["kind"] == "DanglingReference")
        assert issue["row"] == 5
        assert issue["column"] == "precedingId"

    def test_empty_dir_reports(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["validate", "--input", str(empty)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["issues"][0]["kind"] == "EmptyInput"


class TestStatsCommand:
    def test_stats_only_outputs(self, tmp_path):
        out = run_synth(tmp_path)
        stats_dir = tmp_path / "stats"
        assert main(["stats", "--input", str(out / "truth"),
                     "--output", str(stats_dir)]) == 0
        assert (stats_dir / "meanSpeedHistogram.csv").is_file()
        assert (stats_dir / "summary.json").is_file()
        assert not (stats_dir / "01_episodes.csv").exists()

    def test_stats_does_not_fit_lane_changes(self, tmp_path, capsys, monkeypatch):
        import hwtracks.pipeline

        def no_fit(*args):
            raise AssertionError("stats must not fit lane changes")

        monkeypatch.setattr(hwtracks.pipeline, "fit_episodes", no_fit)
        out = run_synth(tmp_path)
        capsys.readouterr()
        assert main(["stats", "--input", str(out / "truth"),
                     "--output", str(tmp_path / "stats")]) == 0
        assert "lane-change fits" not in capsys.readouterr().out

    def test_truck_ratio_uses_recording_frame_rate(self, tmp_path):
        # 50 fps: the truck enters at frame 75, i.e. 1.5 s, inside the first
        # 2 s window (at an assumed 25 fps it would land in [2 s, 4 s))
        script = tmp_path / "scene.json"
        script.write_text(json.dumps({
            "seed": 3, "duration": 6.0, "frame_rate": 50.0, "recording_id": 1,
            "vehicles": [
                {"direction": "lower", "entry_lane": 1, "entry_x": 0.0,
                 "initial_speed": 25.0},
                {"class": "Truck", "direction": "lower", "entry_lane": 2,
                 "entry_x": 0.0, "entry_time": 1.5, "initial_speed": 22.0},
            ],
        }))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stats": {"truck_ratio_window": 2.0}}))
        out = tmp_path / "synth"
        assert main(["synth", "--script", str(script), "--output", str(out)]) == 0
        stats_dir = tmp_path / "stats"
        assert main(["stats", "--config", str(cfg), "--input", str(out / "truth"),
                     "--output", str(stats_dir)]) == 0
        rows = (stats_dir / "01_truckRatio.csv").read_text().splitlines()
        assert rows == ["windowStart,entries,truckRatio", "0,2,0.5"]


def copy_recording(src, dst, prefix):
    """The three tables of recording 01 in ``src`` under ``prefix`` in ``dst``."""
    dst.mkdir(parents=True, exist_ok=True)
    for f in src.glob("01_*"):
        if f.name.endswith(("_recordingMeta.csv", "_tracksMeta.csv", "_tracks.csv")):
            (dst / f.name.replace("01_", prefix, 1)).write_bytes(f.read_bytes())


class TestRecordingDiscovery:
    def test_unpadded_prefix_read_as_found(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        recordings = tmp_path / "recordings"
        copy_recording(out / "truth", recordings, "1_")
        for command in ("extract", "stats"):
            assert main([command, "--input", str(recordings),
                         "--output", str(tmp_path / command)]) == 0
            summary = json.loads((tmp_path / command / "summary.json").read_text())
            assert summary["vehicleCount"] == 3
        assert (tmp_path / "extract" / "01_episodes.csv").is_file()
        capsys.readouterr()
        assert main(["validate", "--input", str(recordings)]) == 0
        assert json.loads(capsys.readouterr().out) == {"issues": []}

    def test_two_prefixes_of_one_id_is_one_error(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        recordings = tmp_path / "recordings"
        copy_recording(out / "truth", recordings, "01_")
        copy_recording(out / "truth", recordings, "001_")
        capsys.readouterr()
        reported = []
        for command in ("extract", "stats"):
            assert main([command, "--input", str(recordings),
                         "--output", str(tmp_path / command)]) == 1
            reported.append(json.loads(capsys.readouterr().err)["errors"])
            assert not (tmp_path / command / "summary.json").exists()
        assert main(["validate", "--input", str(recordings)]) == 1
        reported.append(json.loads(capsys.readouterr().out)["issues"])
        for errors in reported:
            assert errors == [{
                "kind": "DuplicateId",
                "message": "recording id 1 has two files: "
                           "001_recordingMeta.csv and 01_recordingMeta.csv",
                "file": str(recordings / "01_recordingMeta.csv"),
            }]

    def test_prefix_is_the_whole_name_before_the_suffix(self, tmp_path, capsys):
        # ``01_v2_recordingMeta.csv`` has prefix ``01_v2``, not ``01``: the
        # set is skipped, and it is no second file set of recording 1.
        out = run_synth(tmp_path)
        alone = tmp_path / "alone"
        copy_recording(out / "truth", alone, "01_v2_")
        capsys.readouterr()
        assert main(["validate", "--input", str(alone)]) == 1
        assert [issue["kind"] for issue in json.loads(capsys.readouterr().out)["issues"]] \
            == ["EmptyInput"]
        beside = tmp_path / "beside"
        copy_recording(out / "truth", beside, "01_")
        copy_recording(out / "truth", beside, "01_v2_")
        assert main(["validate", "--input", str(beside)]) == 0
        assert json.loads(capsys.readouterr().out) == {"issues": []}
        assert main(["stats", "--input", str(beside),
                     "--output", str(tmp_path / "stats")]) == 0
        summary = json.loads((tmp_path / "stats" / "summary.json").read_text())
        assert summary["vehicleCount"] == 3

    def test_two_detection_prefixes_of_one_id_is_one_error(self, tmp_path, capsys):
        detections = run_synth(tmp_path) / "detections"
        for name in ("detections.csv", "recordingMeta.csv"):
            (detections / f"001_{name}").write_bytes((detections / f"01_{name}").read_bytes())
        capsys.readouterr()
        tracked = tmp_path / "tracked"
        assert main(["track", "--input", str(detections), "--output", str(tracked),
                     "--jobs", "2"]) == 1
        assert json.loads(capsys.readouterr().err)["errors"] == [{
            "kind": "DuplicateId",
            "message": "recording id 1 has two files: "
                       "001_detections.csv and 01_detections.csv",
            "file": str(detections / "01_detections.csv"),
        }]
        assert not tracked.exists()


class _TypeRecorder(pickle.Pickler):
    """Pickles into memory, noting the type of every object it reduces."""

    def __init__(self):
        self.sink = io.BytesIO()
        super().__init__(self.sink)
        self.types = set()

    def reducer_override(self, obj):
        self.types.add(type(obj))
        return NotImplemented


class TestWorkerResult:
    @pytest.mark.parametrize("write_files", [True, False], ids=["extract", "stats"])
    def test_result_is_a_summary_not_tracks(self, tmp_path, write_files):
        out = tmp_path / "synth"
        assert main(["synth", "--script", str(DEMO_SCENE), "--output", str(out)]) == 0
        paths = RecordingFileSet.for_recording(out / "truth", 1)
        error, result = _extract_one((paths, PipelineConfig(), tmp_path, write_files))
        assert error is None
        assert len(result.mean_speeds) == len(read_recording(paths).tracks)
        recorder = _TypeRecorder()
        recorder.dump(result)
        assert Track not in recorder.types
        tracks_bytes = len(pickle.dumps(read_recording(paths).tracks))
        assert len(recorder.sink.getvalue()) < tracks_bytes / 10


class TestWorkerCount:
    @pytest.mark.parametrize("jobs, items, cpus, want", [
        (1, 8, 2, 1),
        (8, 1, 2, 1),
        (8, 3, 16, 3),
        (64, 8, 2, 2),
        (2, 8, None, 1),
    ])
    def test_clamped_to_items_and_cpus(self, monkeypatch, jobs, items, cpus, want):
        import hwtracks.cli

        # Without an affinity call the host's CPU count is the bound.
        monkeypatch.delattr(hwtracks.cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(hwtracks.cli.os, "cpu_count", lambda: cpus)
        assert hwtracks.cli._worker_count(jobs, items) == want

    @pytest.mark.parametrize("jobs, items, allowed, want", [
        (1, 8, 2, 1),
        (8, 1, 2, 1),
        (8, 3, 16, 3),
        (64, 8, 2, 2),
        (2, 8, 1, 1),
    ])
    def test_clamped_to_the_cpus_this_process_may_use(self, monkeypatch, jobs, items,
                                                      allowed, want):
        import hwtracks.cli

        # A host of 64 CPUs of which the affinity mask allows ``allowed``.
        monkeypatch.setattr(hwtracks.cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(hwtracks.cli.os, "sched_getaffinity",
                            lambda pid: set(range(allowed)), raising=False)
        assert hwtracks.cli._worker_count(jobs, items) == want


class TestConfigFile:
    def test_config_sections_and_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "tracker": {"gate_radius": 3.0},
            "maneuvers": {"critical_ttc_max": 5.0},
            "jobs": 4,
        }))
        from hwtracks.pipeline import load_pipeline_config

        cfg = load_pipeline_config(cfg_path)
        assert cfg.tracker.gate_radius == 3.0
        assert cfg.maneuvers.critical_ttc_max == 5.0
        assert cfg.jobs == 4
        cfg = load_pipeline_config(cfg_path, jobs=2)
        assert cfg.jobs == 2  # flags win

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        from hwtracks.pipeline import load_pipeline_config

        # the tracker has no frame rate of its own: it steps frame by frame
        for section in ({"tracker": {"gait_radius": 3.0}},
                        {"tracker": {"frame_rate": 25.0}}):
            cfg_path.write_text(json.dumps(section))
            with pytest.raises(ValueError):
                load_pipeline_config(cfg_path)

    def test_smoother_time_step_is_not_a_key(self, tmp_path):
        # the smoother steps at each recording's frame interval
        from hwtracks.pipeline import load_pipeline_config

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"smoother": {"dt": 0.5}}))
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['dt'\]"):
            load_pipeline_config(cfg_path)

    def test_refinement_budget_is_not_a_key(self, tmp_path):
        # the budget of refinement rounds never binds at the default tolerance
        from hwtracks.pipeline import load_pipeline_config

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"fit": {"max_refine_iterations": 200}}))
        with pytest.raises(ValueError, match=r"^fit: unknown key\(s\) "
                                             r"\['max_refine_iterations'\]$"):
            load_pipeline_config(cfg_path)

    @pytest.mark.parametrize("data, key", [
        ({"jobs": 1.5}, "jobs"),
        ({"jobs": True}, "jobs"),
        ({"jobs": None}, "jobs"),
        ({"tracker": {"min_hits_to_confirm": True}}, "tracker.min_hits_to_confirm"),
        ({"tracker": {"max_coast": 2.5}}, "tracker.max_coast"),
        ({"maneuvers": {"lane_change_min_dwell": 25.0}},
         "maneuvers.lane_change_min_dwell"),
        ({"fit": {"min_samples": 10.5}}, "fit.min_samples"),
        ({"fit": {"min_samples": True}}, "fit.min_samples"),
        ({"tracker": {"max_coast": None}}, "tracker.max_coast"),
    ])
    def test_non_integer_rejected(self, tmp_path, data, key):
        from hwtracks.pipeline import load_pipeline_config

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
            load_pipeline_config(cfg_path)

    @pytest.mark.parametrize("data, key", [
        ({"stats": {"mean_speed_bin": True}}, "stats.mean_speed_bin"),
        ({"tracker": {"gate_radius": "2"}}, "tracker.gate_radius"),
        ({"tracker": {"gate_radius": None}}, "tracker.gate_radius"),
        ({"tracker": {"gate_radius": [1]}}, "tracker.gate_radius"),
    ])
    def test_non_number_rejected(self, tmp_path, data, key):
        from hwtracks.pipeline import load_pipeline_config

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{key} must be a number"):
            load_pipeline_config(cfg_path)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan,
                                       pytest.param(10**400, id="10**400"),
                                       pytest.param(-10**401, id="-10**401")])
    @pytest.mark.parametrize("section, key", [
        ("tracker", "gate_radius"),
        ("smoother", "jerk_sigma"),
        ("stats", "mean_speed_bin"),
        ("fit", "duration_max"),
        ("maneuvers", "lateral_settle_speed"),
    ])
    def test_non_finite_rejected(self, tmp_path, section, key, value):
        # json writes and reads Infinity, -Infinity and NaN, and integers
        # that have no float
        from hwtracks.pipeline import load_pipeline_config

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ValueError,
                           match=f"^{section}.{key} must be finite, got {value!r}$"):
            load_pipeline_config(cfg_path)

    def test_integer_beyond_the_digit_limit_names_the_file(self, tmp_path):
        # json cannot turn an integer literal of more than 4,300 digits into an int
        from hwtracks.pipeline import load_pipeline_config

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"jobs": ' + "9" * 5000 + '}')
        with pytest.raises(ValueError,
                           match=f"^{re.escape(str(cfg_path))}: invalid JSON .*4300"):
            load_pipeline_config(cfg_path)

    def test_integer_accepted_as_number(self, tmp_path):
        from hwtracks.pipeline import load_pipeline_config

        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tracker": {"gate_radius": 3},
                                        "fit": {"duration_max": 10**300}}))
        cfg = load_pipeline_config(cfg_path)
        assert (cfg.tracker.gate_radius, cfg.fit.duration_max) == (3.0, 1e300)
        assert type(cfg.tracker.gate_radius) is type(cfg.fit.duration_max) is float

    def test_non_integer_jobs_is_a_reported_error(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"jobs": 1.5}))
        capsys.readouterr()
        assert main(["track", "--config", str(cfg_path), "--input",
                     str(out / "detections"), "--output", str(tmp_path / "t")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [(e["kind"], e["message"]) for e in errors] == [
            ("ValueError", "jobs must be an integer, got 1.5")]

    def test_non_finite_config_is_one_reported_error(self, tmp_path, capsys):
        out = run_synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"smoother": {"jerk_sigma": Infinity}}')
        capsys.readouterr()
        assert main(["track", "--config", str(cfg_path), "--input",
                     str(out / "detections"), "--output", str(tmp_path / "t")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [(e["kind"], e["message"]) for e in errors] == [
            ("ValueError", "smoother.jerk_sigma must be finite, got inf")]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("smoother, kind, message", [
        # its square in the process noise overflows
        ({"jerk_sigma": 1e160}, "ValueError", "jerk_sigma squared overflows, got 1e+160"),
        # the smoothed covariances overflow, and eigvalsh does not converge
        # on them
        ({"initial_accel_sigma": 1e152}, "NumericalFailure",
         "track 1, frame 1: filtered covariance eigenvalue"),
    ])
    def test_overflowing_smoother_sigma_is_a_reported_error(
        self, tmp_path, capsys, smoother, kind, message
    ):
        out = run_synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"smoother": smoother}))
        capsys.readouterr()
        assert main(["track", "--config", str(cfg_path), "--input",
                     str(out / "detections"), "--output", str(tmp_path / "t")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [e["kind"] for e in errors] == [kind]
        assert errors[0]["message"].startswith(message)

    def test_negative_longitudinal_weight_is_a_reported_error(self, tmp_path, capsys):
        # the fit's grid bounds the objective by its lateral SSE, which needs
        # a weight >= 0; a weight of 0 stays valid
        from hwtracks.pipeline import load_pipeline_config

        out = run_synth(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"fit": {"longitudinal_weight": -1}}))
        capsys.readouterr()
        assert main(["extract", "--config", str(cfg_path), "--input", str(out / "truth"),
                     "--output", str(tmp_path / "e")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [(e["kind"], e["message"]) for e in errors] == [
            ("ValueError", "longitudinal_weight must be >= 0, got -1.0")]
        cfg_path.write_text(json.dumps({"fit": {"longitudinal_weight": 0}}))
        assert load_pipeline_config(cfg_path).fit.longitudinal_weight == 0.0

    def test_defaults_valid(self):
        from hwtracks.pipeline import PipelineConfig

        PipelineConfig()  # must not raise

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        # a README key that was removed or renamed fails here
        from hwtracks.pipeline import load_pipeline_config

        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme[readme.index("```json\n{\n  \"tracker\""):].split("\n", 1)[1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(block[:block.index("```")])
        assert load_pipeline_config(cfg_path) == PipelineConfig()

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-command"])
        assert exc.value.code == 2


class TestBundledDemoScript:
    GOLDEN_SHA256 = {
        "detections/01_detections.csv":
            "2d1fd29ed61f5640fd5639a65e02f2ae9f868a3c3fb6e1db5a1c0557b5cc4d82",
        "truth/01_tracks.csv":
            "a2002f41b312db3e7c63d61d1ae670690330e1913fd928ef4b098f6418c838fe",
        "truth/01_tracksMeta.csv":
            "626b4ac1c5012ab44e0cff504bb9aa2c423ee5f5d13df485f2a2f1788ed3e658",
        "truth/01_recordingMeta.csv":
            "3a73b7f2966c264c09a1b5b1912d90c675dfcabec8b3f5be35acee28e0c5747b",
        "truth/01_episodes.csv":
            "f6936882fe0ef8d9ddd88793d3677ce5e038c7fc9aefcec6ca96b661c70bf829",
        "truth/01_cutIns.csv":
            "9659d2accd9ccab1beb2494b9e304fec3fabf3adecefcdd6a1e40ecfa63fca10",
    }

    # track, extract and stats outputs of synth -> track -> extract / stats
    # on the same scene
    GOLDEN_DERIVED_SHA256 = {
        "rec/01_recordingMeta.csv":
            "3a73b7f2966c264c09a1b5b1912d90c675dfcabec8b3f5be35acee28e0c5747b",
        "rec/01_smoothingReport.json":
            "196785547d853778126553fe7176b32dc2bb630f795fd1c5957f5c0e5c0f66aa",
        "rec/01_tracks.csv":
            "66325ddf75c2c492723bdc05086d766c5f808ad7953d19519bbf914d531ecf3b",
        "rec/01_tracksMeta.csv":
            "a4211c21a67f48d892966441094c148173bbe6b75206c5c4c70c2c7a2b827061",
        "extract/01_cutIns.csv":
            "6b4bc98619642625972f6ff84b654a1b3262f30696d2c1c71249cdd3bf575f10",
        "extract/01_cutIns.json":
            "6268195d78a36010bfb4a829c71965eee61467f2a034351fd88b5b2a9645cf68",
        "extract/01_episodes.csv":
            "ca7a49aa45880e029db1ee2e51a1bb5d8d9c5d6b884ac5495017dda358ec33e6",
        "extract/01_episodes.json":
            "fed7e60b084c9e650a079238a1f79fbdfa85bc1263d3a6154ab07a1caf966f53",
        "extract/01_laneChangeFits.csv":
            "e7842a1f2576fc23861b4a7cd3f5920b7d1edd8414c8232335df7b1e359e7788",
        "extract/01_truckRatio.csv":
            "b52dd807cced2697078ce0034773ddb312030180fa1da00567bd25f021abb900",
        "extract/cutInThwBand.csv":
            "e6527646f553e7ac50f2dc482b35ce221d0a1cf9f866a84cbf12685af49aba97",
        "extract/cutInThwHistogram.csv":
            "22cb16dda11a4e80fbe2011f53e14fa06f40ce98bb836329a54fc5a18e6e87ee",
        "extract/meanSpeedHistogram.csv":
            "6af32c4ff91881fa4d5c091194ed03bfb46b1b36f5878501818623aa240b0202",
        "extract/summary.json":
            "8d5e3d022c741dc0749068dd163d7519e0fc63dc7c97fc04e9ce05f4b3f102ad",
        "stats/01_truckRatio.csv":
            "b52dd807cced2697078ce0034773ddb312030180fa1da00567bd25f021abb900",
        "stats/cutInThwBand.csv":
            "e6527646f553e7ac50f2dc482b35ce221d0a1cf9f866a84cbf12685af49aba97",
        "stats/cutInThwHistogram.csv":
            "22cb16dda11a4e80fbe2011f53e14fa06f40ce98bb836329a54fc5a18e6e87ee",
        "stats/meanSpeedHistogram.csv":
            "6af32c4ff91881fa4d5c091194ed03bfb46b1b36f5878501818623aa240b0202",
        "stats/summary.json":
            "8d5e3d022c741dc0749068dd163d7519e0fc63dc7c97fc04e9ce05f4b3f102ad",
    }

    def test_golden_output(self, tmp_path):
        # seed-pinned scene: the synthesized bytes are frozen from the first
        # verified run and must never drift
        import hashlib
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "demos" / "demo_scene.json"
        out = tmp_path / "golden"
        assert main(["synth", "--script", str(script), "--output", str(out)]) == 0
        for rel, want in self.GOLDEN_SHA256.items():
            got = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            assert got == want, f"{rel}: digest drifted"

    def test_golden_extract_and_stats_output(self, tmp_path):
        import hashlib
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "demos" / "demo_scene.json"
        out = tmp_path / "golden"
        assert main(["synth", "--script", str(script), "--output", str(out / "synth")]) == 0
        assert main(["track", "--input", str(out / "synth" / "detections"),
                     "--output", str(out / "rec")]) == 0
        for command in ("extract", "stats"):
            assert main([command, "--input", str(out / "rec"),
                         "--output", str(out / command)]) == 0
        written = sorted(p.relative_to(out).as_posix()
                         for command in ("rec", "extract", "stats")
                         for p in (out / command).iterdir())
        assert written == sorted(self.GOLDEN_DERIVED_SHA256)
        for rel, want in self.GOLDEN_DERIVED_SHA256.items():
            got = hashlib.sha256((out / rel).read_bytes()).hexdigest()
            assert got == want, f"{rel}: digest drifted"


class TestSmoothingReport:
    def test_report_written_with_diagnostics(self, tmp_path):
        out = run_synth(tmp_path, noise={"position_sigma": 0.1})
        tracked = tmp_path / "tracked"
        assert main(["track", "--input", str(out / "detections"),
                     "--output", str(tracked)]) == 0
        report = json.loads((tracked / "01_smoothingReport.json").read_text())
        assert report["recordingId"] == 1
        assert len(report["tracks"]) == 3
        for entry in report["tracks"]:
            assert entry["measured"] <= entry["frames"]
            assert 0.0 < entry["rmsDeviation"] < 0.2
            assert entry["usedPinv"] is False


    def test_numerical_failure_names_track_and_recording_frame(
        self, tmp_path, monkeypatch, capsys
    ):
        import hwtracks.smoothing
        from hwtracks.dataset_io import write_detections
        from conftest import det, detection_table

        out = run_synth(tmp_path)
        # A lone false positive takes track id 1; the vehicle that follows
        # is track 2 and starts at recording frame 30.
        table = detection_table([det(2, 50.0, 5.0)]
                                + [det(f, 100.0 + f, 13.85) for f in range(30, 90)])
        write_detections(table, out / "detections" / "01_detections.csv")
        monkeypatch.setattr(hwtracks.smoothing, "PSD_TOLERANCE", -1e12)
        capsys.readouterr()
        assert main(["track", "--input", str(out / "detections"),
                     "--output", str(tmp_path / "tracked")]) == 1
        errors = json.loads(capsys.readouterr().err)["errors"]
        assert [e["kind"] for e in errors] == ["NumericalFailure"]
        assert errors[0]["message"].startswith(
            "track 2, frame 30: filtered covariance eigenvalue"
        )

class TestTrackStageCalls:
    def test_one_smoothing_batch_per_recording_one_assembly_per_track(
        self, tmp_path, monkeypatch
    ):
        # perfbench traces the smoother through these two names in
        # ``hwtracks.pipeline`` and counts the second once per track.
        import hwtracks.pipeline as pipeline

        detections = run_synth(tmp_path / "a", noise={"position_sigma": 0.1}) / "detections"
        second = run_synth(tmp_path / "b", recording_id=2, with_lane_change=False)
        for name in ("02_detections.csv", "02_recordingMeta.csv"):
            (detections / name).write_bytes((second / "detections" / name).read_bytes())
        calls = {"smooth_series": [], "smooth_track_with_diagnostics": []}
        for name, log in calls.items():
            def counted(*args, _fn=getattr(pipeline, name), _log=log, **kwargs):
                _log.append(args)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(pipeline, name, counted)

        tracked = tmp_path / "tracked"
        assert main(["track", "--input", str(detections), "--output", str(tracked),
                     "--jobs", "1"]) == 0
        track_ids = [[entry["trackId"] for entry in json.loads(
            (tracked / f"{rid:02d}_smoothingReport.json").read_text())["tracks"]]
            for rid in (1, 2)]
        assert [[raw.track_id for raw in args[0]] for args in calls["smooth_series"]] \
            == track_ids
        assert [args[0].track_id for args in calls["smooth_track_with_diagnostics"]] \
            == track_ids[0] + track_ids[1]


class TestInvalidLaneLayout:
    def test_schema_error_exit_1(self, tmp_path, capsys):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({
            "seed": 1, "duration": 5.0,
            "upper_lane_boundaries": [7.4, 3.7, 0.0],
            "vehicles": [],
        }))
        assert main(["synth", "--script", str(script),
                     "--output", str(tmp_path / "o")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["errors"][0]["kind"] == "ScriptError"
        assert "increasing" in err["errors"][0]["message"]


def vehicle(**keys):
    return {"direction": "lower", "entry_lane": 1, "entry_x": 100.0, **keys}


class TestScriptValueErrors:
    """Bad script values exit 1 with one ScriptError that names the key."""

    @pytest.mark.parametrize("script, message", [
        ({"noise": 3}, "noise must be a JSON object"),
        ({"noise": []}, "noise must be a JSON object"),
        ({"vehicles": [vehicle(length=0)]},
         "vehicles[0].length must be positive, got 0"),
        ({"vehicles": [vehicle(length=float("nan"))]},
         "vehicles[0].length must be finite, got nan"),
        ({"vehicles": [vehicle(initial_speed=float("nan"))]},
         "vehicles[0].initial_speed must be finite, got nan"),
        ({"vehicles": [vehicle(entry_x=float("inf"))]},
         "vehicles[0].entry_x must be finite, got inf"),
        ({"vehicles": [vehicle(speed_segments=[{"duration": float("nan"),
                                                "acceleration": 0.0}])]},
         "vehicles[0].speed_segments[0].duration must be finite, got nan"),
        ({"road_length": -1}, "road_length must be positive, got -1"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"noise": {"dropout_burst_length": 2.7}},
         "noise.dropout_burst_length must be an integer, got 2.7"),
        ({"vehicles": [vehicle(entry_lane=1.0)]},
         "vehicles[0].entry_lane must be an integer, got 1.0"),
        ({"vehicles": [vehicle(dropout_windows=[[50, 10]])]},
         "vehicles[0].dropout_windows[0] must be a [first, last] pair of integer "
         "frames with first <= last, got [50, 10]"),
        ({"duration": 1e308, "vehicles": [vehicle()]},
         "duration must be at most 2**53 frames, got 1e+308 s at 25.0 fps"),
        ({"vehicles": [vehicle(entry_time=1e308)]},
         "vehicles[0].entry_time must be at most 2**53 frames, got 1e+308 s at 25.0 fps"),
        ({"vehicles": [vehicle(exit_time=-1e308)]},
         "vehicles[0].exit_time must be at most 2**53 frames, got -1e+308 s at 25.0 fps"),
        ({"vehicles": [vehicle(speed_segments=[{"duration": 1e308, "acceleration": 0.0}])]},
         "vehicles[0].speed_segments[0].duration must be at most 2**53 frames, "
         "got 1e+308 s at 25.0 fps"),
        ({"vehicles": [vehicle(lane_changes=[{"start_time": 1, "duration": 1e308,
                                              "to_lane": 2}])]},
         "vehicles[0].lane_changes[0].duration must be at most 2**53 frames, "
         "got 1e+308 s at 25.0 fps"),
        ({"nosie": {}}, "script root: unknown key(s) ['nosie']"),
        ({"noise": {"sigma": 0.1}}, "noise: unknown key(s) ['sigma']"),
        ({"vehicles": [vehicle(lane_change=[])]},
         "vehicles[0]: unknown key(s) ['lane_change']"),
        ({"vehicles": [vehicle(speed_segments=[{"duration": 1.0, "acceleration": 0.0,
                                                "accel": 1.0}])]},
         "vehicles[0].speed_segments[0]: unknown key(s) ['accel']"),
        ({"vehicles": [vehicle(lane_changes=[{"start_time": 1, "duration": 4,
                                              "to_lane": 2, "lane": 2}])]},
         "vehicles[0].lane_changes[0]: unknown key(s) ['lane']"),
        ({"duration": 10**350}, f"duration must be finite, got {10**350}"),
        ({"vehicles": [vehicle(dropout_windows=[[10, 20.0]])]},
         "vehicles[0].dropout_windows[0][1] must be an integer, got 20.0"),
        ({"seed": -1}, "seed must lie in [0, 2**63), got -1"),
        ({"recording_id": -3}, "recording_id must lie in [0, 2**63), got -3"),
        ({"recording_id": 2**63},
         f"recording_id must lie in [0, 2**63), got {2**63}"),
        ({"location_id": 2**63}, f"location_id must lie in [0, 2**63), got {2**63}"),
    ], ids=["noise-int", "noise-list", "length-zero", "length-nan", "speed-nan",
            "entry-x-inf", "segment-duration-nan", "road-length-negative", "seed-float",
            "seed-bool", "burst-float", "entry-lane-float", "window-reversed",
            "duration-huge", "entry-time-huge", "exit-time-huge", "segment-duration-huge",
            "lane-change-duration-huge", "unknown-root-key", "unknown-noise-key",
            "unknown-vehicle-key", "unknown-segment-key", "unknown-lane-change-key",
            "duration-350-digits", "window-float-frame", "seed-negative",
            "recording-id-negative", "recording-id-2**63", "location-id-2**63"])
    def test_exit_1_with_script_error(self, tmp_path, capsys, script, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1, "duration": 10.0, **script}))
        assert main(["synth", "--script", str(path), "--output", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "errors": [{"kind": "ScriptError", "message": message}]}
        assert not (tmp_path / "o").exists()

    def test_negative_seed_override(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"seed": 1, "duration": 10.0, "vehicles": [vehicle()]}))
        assert main(["synth", "--script", str(path), "--output", str(tmp_path / "o"),
                     "--seed-override", "-5"]) == 1
        assert json.loads(capsys.readouterr().err) == {"errors": [
            {"kind": "ScriptError", "message": "seed must lie in [0, 2**63), got -5"}]}
        assert not (tmp_path / "o").exists()
