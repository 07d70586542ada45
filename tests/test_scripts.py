"""Each experiment script runs to completion in a fresh directory."""

import subprocess
import sys
from pathlib import Path

from netsar.config import RunConfig, SceneConfig, ScheduleConfig, save_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(tmp_path, script, *args):
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_point_target_response(tmp_path):
    printed = _run(tmp_path, "point_target_response.py")
    assert "patch 1: range error" in printed
    for method in ("mean", "product"):
        assert (tmp_path / "out" / "psf" / f"fused_{method}.pgm").is_file()


def test_mse_sweep(tmp_path):
    printed = _run(tmp_path, "mse_sweep.py", "--trials", "5")
    assert "log-log slope" in printed
    assert (tmp_path / "out" / "mse" / "mse.csv").is_file()


def test_run_end_to_end(tmp_path):
    cfg = RunConfig(
        scene=SceneConfig(extent_m=200.0),
        schedule=ScheduleConfig(slot_count=30),
    )
    save_config(cfg, tmp_path / "small.cfg")
    printed = _run(tmp_path, "run_end_to_end.py", "--config", "small.cfg", "--out", "e2e")
    assert "reflectors within 5.0 m" in printed
    assert (tmp_path / "e2e" / "reconstruction" / "estimates.csv").is_file()
