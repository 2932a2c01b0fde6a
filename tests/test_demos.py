import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script):
    # The demos call the public API as a user would, so a changed signature
    # breaks them before it breaks any library test.
    env = os.environ | {"PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stdout + done.stderr
