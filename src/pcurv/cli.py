"""Command line entry point: scenario files in, reports and exit codes out.

A scenario is a JSON document giving the prime, the coordinates, the
algebroid tables (polynomial strings in the usual grammar), and optionally
a module block, a p-structure shift, and an expectation marker.  Commands:

    validate    axioms of the algebroid, its p-structure, and flatness
    pcurvature  the p-curvature matrices and their structural checks
    hitchin     invariants of the characteristic polynomial, trace flatness
    descend     Frobenius descent of every invariant coefficient
    rees        the deformation pipeline with fiber cross-checks at t=0,1
    identities  the seeded identity battery over a tangent algebroid, the
                same checks for every prime including p = 2

The algebroid tables, the shift values and the module matrices are all
read by one shape-checked parser; a wrong shape or a bad entry is reported
with its position (``algebroid.bracket[0][1]``, ``module.matrices[0][0][1]``).

Exit status: 0 all checks passed (or an expected failure occurred),
1 a mathematical check failed, 2 the input was unusable or exceeded the
degree bound (including a prime p above it, a field of the wrong JSON type
such as a "rees" that is not true or false or a boolean where an integer
belongs, and a --trials outside 1..MAX_TRIALS, --degree-panel below 0 or
--n outside 1..MAX_IDENTITY_COORDINATES, all rejected before any work).
Any fault found while reading or building a scenario exits 2 with one line
naming the file (or the field): an unreadable or non-UTF-8 file, malformed
or too deeply nested JSON, an over-long integer, a table rejected by a
constructor.  ``identities`` runs through the same loop with the same exit
codes and messages, its errors naming the report (``identities-p3-n1``):
``--p 4`` exits 2 with ``error: 4 is not prime``.

The structured (json) report format contains no timing information and is
byte-identical across runs for the same scenario and seed; the text format
appends wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace

from . import operators as ops
from .algebroid import (
    AlgebroidPresentation,
    rees_algebroid,
    shift_p_structure,
    specialize_t,
    tangent_algebroid,
    validate_algebroid,
    validate_p_structure,
)
from .connection import (
    ConnectionModule,
    check_abstract_action_oracle,
    check_flat_commutation,
    check_p_linearity,
    mat_map,
    p_curvature,
)
from .hitchin import descend_invariants, hitchin_invariants, validate_trace_flatness
from .panels import poly_panel
from .poly import (
    Derivation,
    NotDescendable,
    PolyParseError,
    PolyRing,
    PrimeField,
    ResourceLimitError,
    parse_poly,
)
from .report import ValidationReport

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2

# The identity battery grows fast with the number of coordinates.  At p = 3
# on a 2-core machine it took 5.6 s at n = 8 with --trials 1 (23.5 s with the
# default 20 trials) and 34 s at n = 12 with --trials 1.
MAX_IDENTITY_COORDINATES = 8
# The random panels grow linearly with --trials.  On the same machine, 100
# trials took 4.5 s for validate on crystalline_2d (1.0 s at the default 20),
# 4.4 s for identities at p = 3, n = 2 and 8.9 s for that validate at 200.
MAX_TRIALS = 100


class ScenarioError(Exception):
    """The scenario file cannot be used (missing, malformed, inconsistent)."""


@dataclass
class Scenario:
    name: str
    p: int
    rees: bool
    expect: str | None
    algebroid: AlgebroidPresentation     # after the optional Rees and shift steps
    module: ConnectionModule | None


@dataclass(kw_only=True)
class Report(ValidationReport):
    """The checks of one command run, each stage's merged under a group
    prefix, with the run parameters and the computed data; the title is
    the scenario name."""

    command: str
    seed: int
    trials: int
    degree: int
    data: dict = field(default_factory=dict)

    def merge(self, group: str, validation: ValidationReport):
        self.checks.extend(replace(c, name=f"{group}.{c.name}") for c in validation.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.title,
            "command": self.command,
            "seed": self.seed,
            "trials": self.trials,
            "degree_panel": self.degree,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "data": self.data,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def render_text(self, elapsed: float) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [f"scenario {self.title} | {self.command}: {verdict}  ({elapsed:.2f}s)"]
        for c in self.checks:
            mark = "pass" if c.passed else "FAIL"
            line = f"  {mark}  {c.name}"
            if c.details:
                line += "  " + ", ".join(f"{k}={v}" for k, v in sorted(c.details.items()))
            if c.witness and not c.passed:
                line += f"  witness: {c.witness}"
            lines.append(line)
        for key in sorted(self.data):
            lines.append(f"  {key}: {json.dumps(self.data[key], sort_keys=True)}")
        return "\n".join(lines)


# -- scenario loading ---------------------------------------------------------


def _require(doc: dict, path: str, kind=None):
    """The field named by the last part of ``path`` (``module.rank``);
    errors name the whole path."""
    key = path.rpartition(".")[2]
    if key not in doc:
        raise ScenarioError(f"missing field {path!r}")
    value = doc[key]
    # the exact type: JSON true and false load as bool, a subclass of int
    if kind is not None and type(value) is not kind:
        raise ScenarioError(f"field {path!r} has the wrong type")
    return value


def _parse_entry(src, ring: PolyRing, where: str):
    if not isinstance(src, str):
        raise ScenarioError(f"{where}: polynomial entries must be strings")
    try:
        return parse_poly(src, ring)
    except PolyParseError as err:
        raise ScenarioError(f"{where}: {err}") from err
    except ResourceLimitError as err:
        raise ResourceLimitError(f"{where}: {err}") from err


def _parse_array(value, ring: PolyRing, shape, where: str):
    """Nested lists of polynomial strings with the given shape, as nested
    tuples of polynomials; a wrong length or type names its position."""
    if not shape:
        return _parse_entry(value, ring, where)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ScenarioError(f"{where}: expected a list of {shape[0]} entries")
    return tuple(
        _parse_array(v, ring, shape[1:], f"{where}[{i}]") for i, v in enumerate(value)
    )


def _require_array(doc: dict, path: str, ring: PolyRing, shape):
    """The nested-list field at ``path``, parsed; every error names the path
    (``algebroid.bracket[0][1]``)."""
    return _parse_array(_require(doc, path), ring, shape, path)


def load_scenario(path: str) -> Scenario:
    """The scenario in the file at ``path``.  Every fault found while reading
    or building it is a ScenarioError: those raised here and in ``_build``
    pass through, any other is wrapped with the file name.  A
    ResourceLimitError passes through."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ScenarioError(f"{path}: scenario must be a JSON object")
        if _require(doc, "schema_version", int) != SCHEMA_VERSION:
            raise ScenarioError(f"{path}: unsupported schema_version")
        return _build(doc)
    except (OSError, ValueError, RecursionError) as err:
        raise ScenarioError(f"cannot load {path}: {err}") from err


def _build(doc: dict) -> Scenario:
    name = _require(doc, "name", str)
    p = _require(doc, "p", int)
    coords = _require(doc, "coordinates", list)
    if not all(isinstance(c, str) for c in coords):
        raise ScenarioError("coordinates must be strings")
    rees = _require(doc, "rees", bool) if "rees" in doc else False
    expect = doc.get("expect")
    if expect not in (None, "descends", "not_descendable"):
        raise ScenarioError(f"unknown expectation {expect!r}")
    ring = PolyRing(PrimeField(p), tuple(coords))

    block = _require(doc, "algebroid", dict)
    rank = _require(block, "algebroid.rank", int)
    if rank < 1:
        raise ScenarioError("algebroid rank must be positive")
    bracket = _require_array(block, "algebroid.bracket", ring, (rank, rank, rank))
    anchor_rows = _require_array(block, "algebroid.anchor", ring, (rank, ring.nvars))
    anchors = tuple(Derivation(ring, row) for row in anchor_rows)
    p_op = _require_array(block, "algebroid.p_op", ring, (rank, rank))
    algebroid = AlgebroidPresentation(ring, rank, bracket, anchors, p_op)
    if rees:
        algebroid = rees_algebroid(algebroid)
    if "shift" in doc:
        shift_block = _require(doc, "shift", dict)
        phi = _require_array(shift_block, "shift.phi", algebroid.ring, (rank,))
        algebroid = shift_p_structure(algebroid, phi)

    module = None
    if "module" in doc:
        mod = _require(doc, "module", dict)
        r = _require(mod, "module.rank", int)
        if r < 1:
            raise ScenarioError("module rank must be positive")
        matrices = _require_array(mod, "module.matrices", algebroid.ring, (rank, r, r))
        module = ConnectionModule(algebroid, r, matrices)

    return Scenario(name=name, p=p, rees=rees, expect=expect, algebroid=algebroid, module=module)


# -- helpers ------------------------------------------------------------------


def _require_module(scenario: Scenario):
    if scenario.module is None:
        raise ScenarioError(f"scenario {scenario.name} has no module block")
    return scenario.module


def _require_odd_p(scenario: Scenario, command: str):
    if scenario.p == 2:
        raise ScenarioError(f"command {command} requires p > 2")


# -- command pipelines ---------------------------------------------------------


def _run_validate(scenario, rep):
    options = dict(trials=rep.trials, seed=rep.seed, max_degree=rep.degree)
    rep.merge("algebroid", validate_algebroid(scenario.algebroid, **options))
    rep.merge("p_structure", validate_p_structure(scenario.algebroid, **options))
    rep.merge("enveloping", ops.check_enveloping_p_structure(scenario.algebroid, **options))
    if scenario.module is not None:
        rep.merge("module", scenario.module.flatness)


def _run_pcurvature(scenario, rep):
    module = _require_module(scenario)
    rep.merge("module", module.flatness)
    if not module.flatness.passed:
        return None
    try:
        C = p_curvature(module)
    except ValueError as err:
        rep.check("pcurvature.order_zero", [str(err)])
        return None
    rep.check("pcurvature.order_zero", [])
    rep.data["psi"] = [mat_map(str, m) for m in C.psi]
    rep.merge("pcurvature", check_abstract_action_oracle(C))
    panel = poly_panel(C.ring, max(rep.trials // 4, 2), seed=rep.seed, max_degree=min(rep.degree, 2))
    rep.merge("pcurvature", check_p_linearity(C, panel))
    rep.merge("pcurvature", C.commutativity)
    rep.merge("pcurvature", check_flat_commutation(C))
    return C


def _run_hitchin(scenario, rep):
    _require_odd_p(scenario, "hitchin")
    C = _run_pcurvature(scenario, rep)
    if C is None:
        return None, None
    invariants = hitchin_invariants(C)
    rep.data["invariants"] = {
        f"e{k}": invariants.render(k) for k in range(1, invariants.rank + 1)
    }
    rep.merge("hitchin", validate_trace_flatness(C, invariants))
    return C, invariants


def _run_descend(scenario, rep):
    _require_odd_p(scenario, "descend")
    C, invariants = _run_hitchin(scenario, rep)
    if invariants is None:
        return
    descent = descend_invariants(invariants, scenario.algebroid)
    table = {}
    for k, yexp, value in descent.entries:
        key = invariants.key(k, yexp)
        if isinstance(value, NotDescendable):
            table[key] = {"not_descendable": value.witness()}
        else:
            table[key] = {"descended": str(value)}
    rep.data["descent"] = table
    rep.data["anchor_generically_surjective"] = descent.anchor_surjective
    expects_failure = scenario.expect == "not_descendable"
    if expects_failure:
        rep.check(
            "descent.expected_not_descendable",
            ["every coefficient descended"] if descent.all_descend else [],
        )
    else:
        failures = [f"{invariants.key(k, yexp)}: {v.witness()}" for k, yexp, v in descent.witnesses()]
        rep.check("descent.all_coefficients_descend", failures)
        if descent.anchor_surjective:
            rep.check("descent.theorem_contract", failures)


def _run_rees(scenario, rep):
    _require_odd_p(scenario, "rees")
    if not scenario.rees:
        raise ScenarioError("the rees command needs a scenario with \"rees\": true")
    if scenario.algebroid.shift:
        raise ScenarioError("the rees command does not support shifted structures")
    C, invariants = _run_hitchin(scenario, rep)
    if invariants is None:
        return
    descent = descend_invariants(invariants, scenario.algebroid)
    rep.check("rees.family_descends", [v.witness() for _, _, v in descent.witnesses()])
    rep.data["descended_family"] = {invariants.key(k, yexp): str(v) for k, yexp, v in descent.descended()}

    t_name = scenario.algebroid.ring.rees_variable
    for t_value, label in ((1, "fiber_t1"), (0, "fiber_t0")):
        fiber_algebroid = specialize_t(scenario.algebroid, t_value)
        fiber_matrices = tuple(
            mat_map(lambda c: c.substitute_constant(t_name, t_value), m) for m in C.module.matrices
        )
        fiber_module = ConnectionModule(fiber_algebroid, C.module.rank, fiber_matrices)
        fiber_invariants = hitchin_invariants(p_curvature(fiber_module))
        specialized = {}
        for k, yexp, value in invariants.items():
            v = value.substitute_constant(t_name, t_value)
            if not v.is_zero():
                specialized[(k, yexp)] = v
        fiber_table = {(k, yexp): value for k, yexp, value in fiber_invariants.items()}
        mismatch = (
            f"family at t={t_value}: {sorted(str(kv) for kv in specialized.items())} "
            f"fiber: {sorted(str(kv) for kv in fiber_table.items())}"
        )
        rep.check(f"rees.{label}_matches", [] if specialized == fiber_table else [mismatch])
        rep.data[label] = {
            fiber_invariants.key(k, yexp): str(v) for (k, yexp), v in sorted(fiber_table.items())
        }


PIPELINES = {
    "validate": _run_validate,
    "pcurvature": _run_pcurvature,
    "hitchin": _run_hitchin,
    "descend": _run_descend,
    "rees": _run_rees,
}
COMMANDS = (*PIPELINES, "identities")


def run_scenario(path: str, command: str, *, seed=0, trials=20, degree=3):
    """Execute one command pipeline on one scenario file."""
    scenario = load_scenario(path)
    if command not in PIPELINES:
        raise ScenarioError(f"unknown command {command!r}")
    rep = Report(scenario.name, command=command, seed=seed, trials=trials, degree=degree)
    PIPELINES[command](scenario, rep)
    return rep, (EXIT_OK if rep.passed else EXIT_MATH_FAILURE)


def identity_suite(p: int, n: int, *, seed=0, trials=50, degree=3) -> Report:
    """The full identity battery over the tangent algebroid on n coordinates.
    A ValueError from building the ring (p not prime) is a ScenarioError."""
    names = ("x", "y", "z")[:n] if n <= 3 else tuple(f"x{i + 1}" for i in range(n))
    rep = Report(f"identities-p{p}-n{n}", command="identities", seed=seed, trials=trials, degree=degree)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the p = 2 warning concerns descent only
            ring = PolyRing(PrimeField(p), names)
    except ValueError as err:
        raise ScenarioError(str(err)) from err
    A = tangent_algebroid(ring)
    rep.merge("algebroid", validate_algebroid(A, trials=max(trials // 5, 2), seed=seed, max_degree=degree))
    rep.merge("p_structure", validate_p_structure(A, trials=max(trials // 5, 2), seed=seed, max_degree=degree))
    rep.merge(
        "enveloping",
        ops.check_enveloping_p_structure(A, trials=trials, seed=seed, max_degree=degree),
    )
    return rep


# -- argument handling -----------------------------------------------------------


def _bounded_int(low, high=None):
    """An argparse type for an integer of at least ``low`` and at most
    ``high``; argparse names the flag when it rejects a value."""

    def bounded_int(text):
        value = int(text)
        if value < low or (high is not None and value > high):
            span = f"at least {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return bounded_int


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcurv",
        description="exact p-curvature, Hitchin invariants, and Frobenius descent",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scenarios", nargs="*", help="scenario JSON files")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=_bounded_int(1, MAX_TRIALS), default=20)
    parser.add_argument("--degree-panel", type=_bounded_int(0), default=3, dest="degree")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--p", type=int, help="prime for the identities command (default 3)")
    parser.add_argument(
        "--n",
        type=_bounded_int(1, MAX_IDENTITY_COORDINATES),
        help=f"coordinates for the identities command (default 1, at most {MAX_IDENTITY_COORDINATES})",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT_ERROR if err.code else EXIT_OK
    options = dict(seed=args.seed, trials=args.trials, degree=args.degree)
    flags = [f"--{name}" for name in ("p", "n") if getattr(args, name) is not None]
    stray = args.scenarios if args.command == "identities" else flags
    if stray:
        print(f"error: argument {stray[0]} does not apply to {args.command}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    # each run: the name its errors are reported under, and the job making its report
    if args.command == "identities":
        p, n = (3 if args.p is None else args.p), (1 if args.n is None else args.n)
        runs = [(f"identities-p{p}-n{n}", lambda: identity_suite(p, n, **options))]
    elif args.scenarios:
        runs = [
            (path, lambda path=path: run_scenario(path, args.command, **options)[0])
            for path in sorted(args.scenarios)
        ]
    else:
        parser.print_usage(sys.stderr)
        print("error: at least one scenario file is required", file=sys.stderr)
        return EXIT_INPUT_ERROR

    outputs = []
    for name, job in runs:
        started = time.monotonic()
        try:
            report = job()
        except ScenarioError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except ResourceLimitError as err:
            print(f"resource limit in {name}: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except ValueError as err:
            print(f"mathematical failure in {name}: {err}", file=sys.stderr)
            return EXIT_MATH_FAILURE
        outputs.append((report, time.monotonic() - started))

    outputs.sort(key=lambda item: item[0].title)
    try:
        if args.format == "json":
            documents = [report.to_dict() for report, _ in outputs]
            print(json.dumps(documents if len(documents) > 1 else documents[0], sort_keys=True, indent=2))
        else:
            for report, elapsed in outputs:
                print(report.render_text(elapsed))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: send what is left, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK if all(report.passed for report, _ in outputs) else EXIT_MATH_FAILURE


if __name__ == "__main__":
    sys.exit(main())
