"""Self-tests of the benchmark (not of pcurv).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They check that inputs are a pure function of the seed, that the tracer
patches every binding and restores all of them, that tracing changes no
result, and that bad inputs and slow jobs are counted, not fatal.
"""

from __future__ import annotations

import json
import random
import re
import sys
import tempfile
from pathlib import Path

import inputs
import run
import tracing

sys.path.insert(0, str(run.SRC))
cli = run.import_pcurv()


def _tmp():
    """A scratch directory inside the checkout."""
    (run.BENCH / "work").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.BENCH / "work")


def _shape(text: str) -> str:
    """The text with every coefficient (an integer not after '^') blanked."""
    return re.sub(r"(?<![\^\d])\d+", "c", text)


def test_inputs_are_a_function_of_the_seed():
    for workload in ("line_sweep", "higgs_wide"):
        first = inputs.generate(workload, 7)
        assert first == inputs.generate(workload, 7)
        other = inputs.generate(workload, 8)
        assert first.keys() == other.keys()
        for name in first:
            assert first[name] != other[name]
            assert _shape(first[name]) == _shape(other[name])


def test_written_files_are_byte_identical():
    with _tmp() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        for work in (a, b):
            inputs.prepare("higgs_wide", 3, run.ROOT, work)
        assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
        for path in a.iterdir():
            assert path.read_bytes() == (b / path.name).read_bytes()


def test_higgs_fields_commute_and_expand():
    """The unexpanded products parse to A_{k+1} = A_k A_1 + x I."""
    doc = json.loads(inputs.higgs_scenario(random.Random(1), 5))
    ring = cli.PolyRing(cli.PrimeField(5), ("x",))
    mats = [[[cli.parse_poly(s, ring) for s in row] for row in m] for m in doc["module"]["matrices"]]
    x = ring.variable("x")
    r = len(mats[0])
    for k in range(1, len(mats)):
        for i in range(r):
            for j in range(r):
                total = x if i == j else ring.zero()
                for m in range(r):
                    total = total + mats[k - 1][i][m] * mats[0][m][j]
                assert mats[k][i][j] == total


def test_tracer_patches_every_binding_and_restores_them():
    before = tracing.snapshot()
    originals = {
        "p_curvature": cli.p_curvature,
        "det": sys.modules["pcurv.hitchin"].det,
        "mul": sys.modules["pcurv.poly"].Poly.__mul__,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        connection = sys.modules["pcurv.connection"]
        poly = sys.modules["pcurv.poly"]
        assert cli.p_curvature is connection.p_curvature is not originals["p_curvature"]
        assert sys.modules["pcurv.hitchin"].det is poly.det is sys.modules["pcurv.algebroid"].det
        assert poly.det is not originals["det"]
        assert poly.Poly.__rmul__ is poly.Poly.__mul__ is not originals["mul"]
        assert sys.modules["pcurv"].parse_poly is cli.parse_poly is poly.parse_poly
        assert cli.load_scenario.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert tracing.snapshot() == before


def test_tracing_changes_no_result_and_counts_work():
    path = str(run.ROOT / "scenarios" / "crystalline_2d.json")
    plain = cli.run_scenario(path, "descend")[0].to_json()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = cli.run_scenario(path, "descend")[0].to_json()
    finally:
        tracer.uninstall()
    assert traced == plain
    metrics = tracing.layer_metrics(tracer.stats)
    assert metrics["poly.mul.calls"] > 0 and metrics["poly.mul.term_pairs"] > 0
    assert metrics["connection.p_curvature.incl_s"] > 0
    assert metrics["hitchin.invariants.incl_s"] > 0
    assert tracer.spans and all(span.end >= span.start for span in tracer.spans)


def test_bad_input_and_timeout_are_counted():
    with _tmp() as tmp:
        doc = json.loads((run.ROOT / "scenarios" / "crystalline_1d.json").read_text())
        doc["module"]["matrices"] = [[["x^2000000"]]]
        bad = Path(tmp, "bad.json")
        bad.write_text(json.dumps(doc))
        jobs = [
            inputs.Job("bad.descend", "descend", path=str(bad)),
            inputs.Job("good.descend", "descend", path=str(run.ROOT / "scenarios" / "crystalline_1d.json")),
            inputs.Job("slow.identities", "identities", p=5, n=2),
        ]
        runner = run.Runner(cli, jobs, deadline=run.clock() + 60, cap=1)
        runner.run_pass()
    reasons = dict(runner.failures)
    assert runner.attempted == 3
    assert sorted(reasons) == ["bad.descend", "slow.identities"]
    assert reasons["bad.descend"].startswith("ResourceLimitError")
    assert reasons["slow.identities"].startswith("timeout")
    e2e = run.end_to_end([0.1], [1.0], runner.times, runner)
    assert e2e["failed_frac"][0] == 2 / 3


def test_wrong_report_fails_the_gate():
    with _tmp() as tmp:
        job = inputs.prepare("bundled", 0, run.ROOT, Path(tmp))[-1]
        report, code = cli.run_scenario(job.path, job.command)
    assert job.golden is not None
    text = report.to_json()
    assert inputs.check(job, report, code, text) is None
    assert inputs.check(job, report, code, text.replace("true", "false", 1)) is not None


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
