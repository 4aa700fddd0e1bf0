"""The demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv", [["certificate_roundtrip.py"], ["ring_walkthrough.py", "3"]], ids=lambda a: a[0]
)
def test_demo_exits_cleanly(argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    script = ROOT / "demos" / argv[0]
    argv = [sys.executable, str(script), *argv[1:]]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
