"""Workload inputs and the correctness gate for the pcurv benchmark.

The generated scenarios (``line_sweep``, ``higgs_wide``) come from the
benchmark's own ``random.Random(seed)`` and are written as schema-1 JSON
text.  No pcurv code or arithmetic is used to build them: products are
written out unexpanded and the program's own parser expands them, so a
change to the program cannot change its inputs.  Every seed gives the same
shape (rank, generators, entry degree, terms per entry); only the
coefficients change.

A job is one CLI-equivalent call; ``JOBS`` builds each workload's fixed job
list and ``check`` is the gate every job's output must pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bundled", "identities", "line_sweep", "higgs_wide")

BUNDLED = (
    "counterexample",
    "crystalline_1d",
    "crystalline_2d",
    "higgs_rank1",
    "higgs_rank2",
    "rees_family",
    "shifted_p_structure",
)
BUNDLED_COMMANDS = ("validate", "pcurvature", "hitchin", "descend")
IDENTITY_CONFIGS = ((3, 1), (3, 2), (5, 1), (5, 2))
IDENTITY_TRIALS = 50
IDENTITY_DEGREE = 3

LINE_PRIMES = (5, 7, 11, 13)
LINE_RANK = 3
HIGGS_PRIMES = (5, 7)
HIGGS_RANK = 5
HIGGS_GENERATORS = 3


@dataclass(frozen=True)
class Job:
    """One call into ``pcurv.cli`` and what its output must satisfy."""

    name: str
    command: str                  # a run_scenario command, or "identities"
    path: str | None = None       # scenario file for run_scenario
    p: int = 0                    # identity_suite arguments
    n: int = 0
    seed: int = 0
    golden: str | None = None     # exact expected report text
    required: tuple = ()          # check names that must be present and pass


# -- generated scenarios -------------------------------------------------------


def _entry(rng: random.Random, p: int) -> str:
    """c0 + c1*x with c0, c1 nonzero mod p: every seed gives the same shape."""
    c0 = rng.randrange(1, p)
    return f"{c0} + {rng.randrange(1, p)}*x"


def _matrix(rng: random.Random, p: int, r: int):
    return [[_entry(rng, p) for _ in range(r)] for _ in range(r)]


def _product_plus_x(a, b):
    """(a*b + x*I) as unexpanded strings: the parser does the arithmetic."""
    r = len(a)
    return [
        [
            " + ".join(f"({a[i][k]})*({b[k][j]})" for k in range(r)) + (" + x" if i == j else "")
            for j in range(r)
        ]
        for i in range(r)
    ]


def _scenario(name, p, description, rank, bracket, anchor, p_op, matrices, module_rank):
    doc = {
        "schema_version": 1,
        "name": name,
        "description": description,
        "p": p,
        "coordinates": ["x"],
        "algebroid": {"rank": rank, "bracket": bracket, "anchor": anchor, "p_op": p_op},
        "module": {"rank": module_rank, "matrices": matrices},
        "expect": "descends",
    }
    return json.dumps(doc, indent=1) + "\n"


def line_scenario(rng: random.Random, p: int) -> str:
    """A random rank-3 connection d + A on the affine line over F_p."""
    return _scenario(
        f"line-sweep-p{p}", p,
        f"rank-{LINE_RANK} connection on the line, entries of degree 1",
        1, [[["0"]]], [["1"]], [["0"]], [_matrix(rng, p, LINE_RANK)], LINE_RANK,
    )


def higgs_scenario(rng: random.Random, p: int) -> str:
    """A rank-5 Higgs module on the line with 3 commuting fields
    A_1 random, A_{k+1} = A_k * A_1 + x*I."""
    m = HIGGS_GENERATORS
    first = _matrix(rng, p, HIGGS_RANK)
    matrices = [first]
    for _ in range(m - 1):
        matrices.append(_product_plus_x(matrices[-1], first))
    zero_vec = ["0"] * m
    return _scenario(
        f"higgs-wide-p{p}", p,
        f"rank-{HIGGS_RANK} Higgs module with {m} commuting fields",
        m, [[zero_vec] * m] * m, [["0"]] * m, [zero_vec] * m, matrices, HIGGS_RANK,
    )


def generate(workload: str, seed: int) -> dict:
    """File name -> text of every generated input of a workload."""
    rng = random.Random(seed)
    if workload == "line_sweep":
        return {f"line_p{p}.json": line_scenario(rng, p) for p in LINE_PRIMES}
    if workload == "higgs_wide":
        return {f"higgs_p{p}.json": higgs_scenario(rng, p) for p in HIGGS_PRIMES}
    return {}


# -- job lists -----------------------------------------------------------------


def prepare(workload: str, seed: int, root: Path, work: Path) -> list:
    """Write the workload's input files under ``work`` and return its jobs.

    ``root`` is the checkout, which holds the bundled scenarios and their
    committed reports."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "identities":
        return [
            Job(f"identities.p{p}n{n}", "identities", p=p, n=n, seed=seed)
            for p, n in IDENTITY_CONFIGS
        ]
    work.mkdir(parents=True, exist_ok=True)
    if workload == "bundled":
        return _bundled_jobs(root / "scenarios", work)
    jobs = []
    for name, text in generate(workload, seed).items():
        path = work / name
        path.write_text(text, encoding="utf-8")
        required = ("descent.theorem_contract",) if workload == "line_sweep" else (
            "descent.all_coefficients_descend",
        )
        jobs.append(Job(f"{workload}.{path.stem}", "descend", path=str(path), required=required))
    return jobs


def _bundled_jobs(scenarios: Path, work: Path) -> list:
    jobs = []
    for stem in BUNDLED:
        path = work / f"{stem}.json"
        path.write_bytes((scenarios / f"{stem}.json").read_bytes())
        commands = BUNDLED_COMMANDS + (("rees",) if stem == "rees_family" else ())
        for command in commands:
            golden = scenarios / "expected" / f"{stem}.{command}.json"
            jobs.append(
                Job(
                    f"{stem}.{command}", command, path=str(path),
                    golden=golden.read_text(encoding="utf-8") if golden.exists() else None,
                )
            )
    return jobs


# -- correctness gate -------------------------------------------------------------


def check(job: Job, report, code: int, text: str) -> str | None:
    """Why the job's output is wrong, or None when it is right."""
    if code != 0:
        failed = [c.name for c in report.checks if not c.passed]
        return f"exit code {code}, failed checks {failed}"
    if job.golden is not None and text + "\n" != job.golden:
        return "report differs from the committed golden"
    passed = {c.name for c in report.checks if c.passed}
    missing = [name for name in job.required if name not in passed]
    if missing:
        return f"required checks missing or failed: {missing}"
    return None
