"""Smoke test: every script in demos/ runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    # demo 01 writes demo_output/ into its working directory
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr


def test_tracking_demo_scores_each_track_against_its_own_vehicle(tmp_path):
    # Every raw and smoothed RMSE of demo 02's table lies below 1 m (the
    # noise is 0.1 m); a track scored against another vehicle reads tens of m.
    result = run_demo(ROOT / "demos" / "02_tracking_and_smoothing.py", tmp_path)
    assert result.returncode == 0, result.stderr
    rows = [line for line in result.stdout.splitlines() if re.match(r"\s+\d+\s", line)]
    rmses = [float(v) for line in rows for v in re.findall(r"([\d.]+) m\b", line)]
    assert len(rows) == 4 and len(rmses) == 8, result.stdout
    assert max(rmses) < 1.0, result.stdout
