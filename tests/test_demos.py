"""The narrative scripts in demos/ run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["deformation_check.py", "dgla_spot.py", "moduli_tour.py"])
def test_demo_runs(name, src_env):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, timeout=120, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
