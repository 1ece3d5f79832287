"""The README demo scripts run to completion on the package in ``src``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", ["analyze_counter_example.py", "doeblin_stability_demo.py"])
def test_demo_exits_zero(name):
    done = run_script(name)
    assert done.returncode == 0, done.stderr


def test_kalman_demo_smoothers_agree():
    done = run_script("kalman_duality_demo.py")
    assert done.returncode == 0, done.stderr
    gap = re.search(r"RTS vs two-filter max mean gap: (\S+)", done.stdout)
    assert gap is not None, done.stdout
    assert float(gap.group(1)) <= 1e-6
