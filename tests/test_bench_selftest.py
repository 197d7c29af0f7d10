"""The benchmark's own self-tests pass against this checkout.

``bench/selftest.py`` runs the gated workloads' input generation, the
tracer and the correctness gate on the current sources; a change to the
package that breaks the benchmark fails here, not only when the benchmark
is run.
"""

import pathlib
import subprocess
import sys

SELFTEST = pathlib.Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].endswith(" passed")
