import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "selftest.py"


def test_benchmark_selftest_passes():
    # The benchmark's tracer patches presnov's module globals by name, so a
    # refactor of those modules can break it without breaking the library.
    done = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
