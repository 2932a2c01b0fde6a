import subprocess
import sys

import pytest

from conftest import ROOT, src_env


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(script):
    # The demos call the public API as a user would, so a changed signature
    # breaks them before it breaks any library test.
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        capture_output=True, text=True, env=src_env(),
    )
    assert done.returncode == 0, done.stdout + done.stderr
