"""Every narrative script under demos/ runs to completion and prints
exactly its pinned output under tests/golden/demos/."""

import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
DEMOS = sorted((HERE.parent / "demos").glob("*.py"))
GOLDEN = HERE / "golden" / "demos"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, timeout=60
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()
