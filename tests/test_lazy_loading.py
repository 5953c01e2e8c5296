"""What each entry point loads, and the tables that load the rest on use.

Module sets are read from ``sys.modules`` of a fresh interpreter; nothing
here depends on timing.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hwtracks
import hwtracks.cli as cli
from test_cli import run_synth

SRC = Path(__file__).resolve().parents[1] / "src"
#: Modules of the package that the CLI's own start-up may load.
ENTRY = {"hwtracks", "hwtracks.cli", "hwtracks.__main__"}


def fresh_run(tmp_path, code, timeout=120):
    """Run ``code`` in a fresh interpreter with ``src/`` on its path; its exit
    code and the modules it had loaded when it ended (on return or exit)."""
    listing = tmp_path / "modules.json"
    probe = ("import atexit, json, sys\n"
             "def _dump():\n"
             f"    with open({str(listing)!r}, 'w') as f:\n"
             "        json.dump(sorted(sys.modules), f)\n"
             "atexit.register(_dump)\n" + code)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=timeout)
    return done.returncode, set(json.loads(listing.read_text()))


def hwtracks_command(*argv):
    """``python -m hwtracks ARGV`` as code for ``fresh_run``."""
    return (f"import runpy\nsys.argv = ['hwtracks', *{list(argv)!r}]\n"
            "runpy.run_module('hwtracks', run_name='__main__', alter_sys=True)\n")


def package_modules(modules):
    return {m for m in modules if m == "hwtracks" or m.startswith("hwtracks.")}


def two_recordings(tmp_path):
    """A directory holding the truth file sets of two short synth scenes."""
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    for rid in (1, 2):
        out = run_synth(tmp_path / f"s{rid}", recording_id=rid, seed=rid, duration=8.0)
        for f in (out / "truth").glob(f"{rid:02d}_*"):
            (recordings / f.name).write_bytes(f.read_bytes())
    return recordings


@pytest.fixture(scope="module")
def synth_out(tmp_path_factory):
    return run_synth(tmp_path_factory.mktemp("synth"))


class TestWhatEntryPointsLoad:
    @pytest.mark.parametrize("code, exit_code", [
        ("import hwtracks\n", 0),
        ("import hwtracks.cli\n", 0),
        (hwtracks_command("--help"), 0),
        (hwtracks_command("synth"), 2),  # usage error: --script is missing
        (hwtracks_command("frobnicate"), 2),
    ], ids=["import-package", "import-cli", "help", "usage-error", "unknown-command"])
    def test_no_numpy_and_no_pipeline(self, tmp_path, code, exit_code):
        returncode, modules = fresh_run(tmp_path, code)
        assert returncode == exit_code
        assert "numpy" not in modules
        assert package_modules(modules) <= ENTRY

    def test_validate_loads_only_what_it_checks(self, tmp_path, synth_out):
        returncode, modules = fresh_run(
            tmp_path, hwtracks_command("validate", "--input", str(synth_out / "truth")))
        assert returncode == 0
        assert package_modules(modules) - ENTRY == {
            "hwtracks.core", "hwtracks.dataset_io", "hwtracks.surround"}

    def test_synth_skips_tracking_and_statistics(self, tmp_path, synth_out):
        script = synth_out.parent / "scene.json"
        returncode, modules = fresh_run(tmp_path, hwtracks_command(
            "synth", "--script", str(script), "--output", str(tmp_path / "out")))
        assert returncode == 0
        assert {"hwtracks.synth", "hwtracks.dataset_io"} <= modules
        assert not modules & {"hwtracks.pipeline", "hwtracks.tracking",
                              "hwtracks.smoothing", "hwtracks.stats"}


class TestLazyTables:
    def test_package_names_are_the_modules_own(self):
        for module_name, names in hwtracks._EXPORTS.items():
            module = importlib.import_module(f"hwtracks.{module_name}")
            for name in names:
                assert getattr(hwtracks, name) is getattr(module, name), name

    def test_cli_names_are_the_modules_own(self):
        for module_name, names in cli._NAMES.items():
            module = importlib.import_module(f"hwtracks.{module_name}")
            for name in names:
                assert getattr(cli, name) is getattr(module, name), name

    def test_unknown_names_raise_attribute_error(self):
        for module in (hwtracks, cli):
            with pytest.raises(AttributeError, match="no_such_name"):
                module.no_such_name  # noqa: B018

    def test_dir_and_star_import(self):
        assert set(hwtracks.__all__) == set(hwtracks._MODULE_OF)
        assert set(hwtracks.__all__) <= set(dir(hwtracks))
        namespace = {}
        exec("from hwtracks import *", namespace)
        assert {name: namespace[name] for name in hwtracks.__all__} \
            == {name: getattr(hwtracks, name) for name in hwtracks.__all__}

    def test_a_module_of_the_package_is_an_attribute(self):
        assert hwtracks.stats is importlib.import_module("hwtracks.stats")

    def test_a_wrapper_set_before_main_stays(self, tmp_path, monkeypatch, capsys):
        # perfbench/tracing.py wraps hwtracks.cli names before main runs
        recordings = two_recordings(tmp_path)
        calls = []

        def counting(paths, _validate=cli.validate):
            calls.append(paths.tracks_path.name)
            return _validate(paths)

        monkeypatch.setattr(cli, "validate", counting)
        capsys.readouterr()
        assert cli.main(["validate", "--input", str(recordings)]) == 0
        assert json.loads(capsys.readouterr().out) == {"issues": []}
        assert calls == ["01_tracks.csv", "02_tracks.csv"]
        assert cli.validate is counting


@pytest.mark.skipif(cli._worker_count(2, 2) < 2, reason="--jobs 2 starts no pool on one CPU")
def test_pool_workers_under_spawn_write_the_same_bytes(tmp_path):
    recordings = two_recordings(tmp_path)
    runs = []
    for command in ("extract", "stats"):
        serial, pooled = tmp_path / f"{command}1", tmp_path / f"{command}2"
        assert cli.main([command, "--input", str(recordings), "--output", str(serial),
                         "--jobs", "1"]) == 0
        runs.append((command, serial, pooled))
    code = ("import multiprocessing\n"
            "multiprocessing.set_start_method('spawn')\n"
            "from hwtracks.cli import main\n"
            + "".join(f"assert main([{command!r}, '--input', {str(recordings)!r}, "
                      f"'--output', {str(pooled)!r}, '--jobs', '2']) == 0\n"
                      for command, _, pooled in runs))
    returncode, modules = fresh_run(tmp_path, code, timeout=300)
    assert returncode == 0
    # spawn: the parent ran no fork, so its workers imported hwtracks.cli afresh
    assert "multiprocessing.popen_spawn_posix" in modules
    for command, serial, pooled in runs:
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in pooled.iterdir())
        for name in names:
            assert (serial / name).read_bytes() == (pooled / name).read_bytes(), \
                (command, name)
