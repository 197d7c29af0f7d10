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
with its position (``bracket[0][1]``, ``module.matrices[0][0][1]``).

Exit status: 0 all checks passed (or an expected failure occurred),
1 a mathematical check failed, 2 the input was unusable or exceeded the
degree bound (including a prime p above it, and a --trials below 1,
--degree-panel below 0 or --n outside 1..MAX_IDENTITY_COORDINATES, all
rejected before any work).

The structured (json) report format contains no timing information and is
byte-identical across runs for the same scenario and seed; the text format
appends wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import dataclass, field

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
    check_higgs_commutativity,
    check_p_linearity,
    mat_map,
    p_curvature,
    validate_flatness,
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
    render_monomial,
)
from .report import CheckResult, ValidationReport

SCHEMA_VERSION = 1
COMMANDS = ("validate", "pcurvature", "hitchin", "descend", "rees", "identities")

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2

# The identity battery grows fast with the number of coordinates.  At p = 3
# on a 2-core machine it took 5.6 s at n = 8 with --trials 1 (23.5 s with the
# default 20 trials) and 34 s at n = 12 with --trials 1.
MAX_IDENTITY_COORDINATES = 8


class ScenarioError(Exception):
    """The scenario file cannot be used (missing, malformed, inconsistent)."""


@dataclass
class Scenario:
    name: str
    description: str
    p: int
    rees: bool
    expect: str | None
    base: AlgebroidPresentation          # tables as given, before deformation
    algebroid: AlgebroidPresentation     # after the optional Rees step
    structure: object                    # algebroid or PStructureShift
    module: ConnectionModule | None


@dataclass
class Report:
    scenario: str
    command: str
    seed: int
    trials: int
    degree: int
    checks: list = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def merge(self, group: str, validation: ValidationReport):
        for c in validation.checks:
            self.checks.append(
                CheckResult(
                    f"{group}.{c.name}", c.passed, section=c.section,
                    witness=c.witness, details=c.details,
                )
            )

    def add(self, name, passed, witness=None, **details):
        self.checks.append(CheckResult(name, bool(passed), witness=witness, details=details))

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
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

    def render_text(self, elapsed=None) -> str:
        head = f"scenario {self.scenario} | {self.command}: "
        head += "PASS" if self.passed else "FAIL"
        if elapsed is not None:
            head += f"  ({elapsed:.2f}s)"
        lines = [head]
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


def _require(doc: dict, key: str, kind=None):
    if key not in doc:
        raise ScenarioError(f"missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise ScenarioError(f"field {key!r} has the wrong type")
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


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise ScenarioError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a JSON object")
    if _require(doc, "schema_version", int) != SCHEMA_VERSION:
        raise ScenarioError(f"{path}: unsupported schema_version")
    name = _require(doc, "name", str)
    p = _require(doc, "p", int)
    coords = _require(doc, "coordinates", list)
    if not all(isinstance(c, str) for c in coords):
        raise ScenarioError("coordinates must be strings")
    rees = bool(doc.get("rees", False))
    expect = doc.get("expect")
    if expect not in (None, "descends", "not_descendable"):
        raise ScenarioError(f"unknown expectation {expect!r}")
    try:
        ring = PolyRing(PrimeField(p), tuple(coords))
    except ValueError as err:
        raise ScenarioError(str(err)) from err

    block = _require(doc, "algebroid", dict)
    rank = _require(block, "rank", int)
    if rank < 1:
        raise ScenarioError("algebroid rank must be positive")
    bracket = _parse_array(_require(block, "bracket"), ring, (rank, rank, rank), "bracket")
    anchor_rows = _parse_array(_require(block, "anchor"), ring, (rank, ring.nvars), "anchor")
    anchors = tuple(Derivation(ring, row) for row in anchor_rows)
    p_op = _parse_array(_require(block, "p_op"), ring, (rank, rank), "p_op")
    try:
        base = AlgebroidPresentation(ring, rank, bracket, anchors, p_op)
    except ValueError as err:
        raise ScenarioError(str(err)) from err

    algebroid = base
    if rees:
        try:
            algebroid = rees_algebroid(base)
        except ValueError as err:
            raise ScenarioError(str(err)) from err

    structure = algebroid
    if "shift" in doc:
        shift_block = _require(doc, "shift", dict)
        phi = _parse_array(_require(shift_block, "phi"), algebroid.ring, (rank,), "shift.phi")
        try:
            structure = shift_p_structure(algebroid, phi)
        except ValueError as err:
            raise ScenarioError(f"shift rejected: {err}") from err

    module = None
    if "module" in doc:
        mod = _require(doc, "module", dict)
        r = _require(mod, "rank", int)
        if r < 1:
            raise ScenarioError("module rank must be positive")
        matrices = _parse_array(
            _require(mod, "matrices"), algebroid.ring, (rank, r, r), "module.matrices"
        )
        try:
            module = ConnectionModule(algebroid, r, matrices)
        except ValueError as err:
            raise ScenarioError(str(err)) from err

    return Scenario(
        name=name,
        description=doc.get("description", ""),
        p=p,
        rees=rees,
        expect=expect,
        base=base,
        algebroid=algebroid,
        structure=structure,
        module=module,
    )


# -- helpers ------------------------------------------------------------------


def _mono_str(yexp) -> str:
    return render_monomial([f"y{a + 1}" for a in range(len(yexp))], yexp) or "1"


def _require_module(scenario: Scenario):
    if scenario.module is None:
        raise ScenarioError(f"scenario {scenario.name} has no module block")
    return scenario.module


def _require_odd_p(scenario: Scenario, command: str):
    if scenario.p == 2:
        raise ScenarioError(f"command {command} requires p > 2")


# -- command pipelines ---------------------------------------------------------


def _run_validate(scenario, rep, seed, trials, degree):
    rep.merge("algebroid", validate_algebroid(scenario.algebroid, trials=trials, seed=seed, max_degree=degree))
    rep.merge("p_structure", validate_p_structure(scenario.algebroid, trials=trials, seed=seed, max_degree=degree))
    rep.merge(
        "enveloping",
        ops.check_enveloping_p_structure(scenario.structure, trials=trials, seed=seed, max_degree=degree),
    )
    if scenario.module is not None:
        rep.merge("module", validate_flatness(scenario.module))


def _compute_p_curvature(scenario, rep):
    module = _require_module(scenario)
    flat = validate_flatness(module)
    rep.merge("module", flat)
    if not flat.passed:
        return None
    try:
        C = p_curvature(module, structure=scenario.structure)
    except ValueError as err:
        rep.add("pcurvature.order_zero", False, witness=str(err))
        return None
    rep.add("pcurvature.order_zero", True)
    rep.data["psi"] = [mat_map(str, m) for m in C.psi]
    return C


def _run_pcurvature(scenario, rep, seed, trials, degree):
    C = _compute_p_curvature(scenario, rep)
    if C is None:
        return None
    rep.merge("pcurvature", check_abstract_action_oracle(C))
    panel = poly_panel(C.ring, max(trials // 4, 2), seed=seed, max_degree=min(degree, 2))
    rep.merge("pcurvature", check_p_linearity(C, panel))
    rep.merge("pcurvature", check_higgs_commutativity(C))
    rep.merge("pcurvature", check_flat_commutation(C))
    return C


def _run_hitchin(scenario, rep, seed, trials, degree):
    _require_odd_p(scenario, "hitchin")
    C = _run_pcurvature(scenario, rep, seed, trials, degree)
    if C is None:
        return None, None
    invariants = hitchin_invariants(C)
    rep.data["invariants"] = {
        f"e{k}": invariants.render(k) for k in range(1, invariants.rank + 1)
    }
    rep.merge("hitchin", validate_trace_flatness(C))
    return C, invariants


def _run_descend(scenario, rep, seed, trials, degree):
    _require_odd_p(scenario, "descend")
    C, invariants = _run_hitchin(scenario, rep, seed, trials, degree)
    if invariants is None:
        return
    descent = descend_invariants(invariants, scenario.algebroid)
    table = {}
    for k, yexp, value in descent.entries:
        key = f"e{k}@{_mono_str(yexp)}"
        if isinstance(value, NotDescendable):
            table[key] = {"not_descendable": value.witness()}
        else:
            table[key] = {"descended": str(value)}
    rep.data["descent"] = table
    rep.data["anchor_generically_surjective"] = descent.anchor_surjective
    expects_failure = scenario.expect == "not_descendable"
    if expects_failure:
        rep.add(
            "descent.expected_not_descendable",
            not descent.all_descend,
            witness=None if not descent.all_descend else "every coefficient descended",
        )
    else:
        witness = "; ".join(
            f"e{k}@{_mono_str(yexp)}: {v.witness()}" for k, yexp, v in descent.witnesses()
        )
        rep.add("descent.all_coefficients_descend", descent.all_descend, witness=witness or None)
        if descent.anchor_surjective:
            rep.add("descent.theorem_contract", descent.all_descend, witness=witness or None)


def _run_rees(scenario, rep, seed, trials, degree):
    _require_odd_p(scenario, "rees")
    if not scenario.rees:
        raise ScenarioError("the rees command needs a scenario with \"rees\": true")
    if not isinstance(scenario.structure, AlgebroidPresentation):
        raise ScenarioError("the rees command does not support shifted structures")
    module = _require_module(scenario)
    C, invariants = _run_hitchin(scenario, rep, seed, trials, degree)
    if invariants is None:
        return
    descent = descend_invariants(invariants, scenario.algebroid)
    rep.add(
        "rees.family_descends",
        descent.all_descend,
        witness="; ".join(v.witness() for _, _, v in descent.witnesses()) or None,
    )
    family = {f"e{k}@{_mono_str(yexp)}": v for k, yexp, v in descent.descended()}
    rep.data["descended_family"] = {key: str(v) for key, v in family.items()}

    t_name = scenario.algebroid.ring.rees_variable
    for t_value, label in ((1, "fiber_t1"), (0, "fiber_t0")):
        fiber_algebroid = specialize_t(scenario.algebroid, t_value)
        fiber_matrices = tuple(
            mat_map(lambda c: c.substitute_constant(t_name, t_value), m) for m in module.matrices
        )
        fiber_module = ConnectionModule(fiber_algebroid, module.rank, fiber_matrices)
        fiber_invariants = hitchin_invariants(p_curvature(fiber_module))
        specialized = {}
        for k, yexp, value in invariants.items():
            v = value.substitute_constant(t_name, t_value)
            if not v.is_zero():
                specialized[(k, yexp)] = v
        fiber_table = {(k, yexp): value for k, yexp, value in fiber_invariants.items()}
        rep.add(
            f"rees.{label}_matches",
            specialized == fiber_table,
            witness=None
            if specialized == fiber_table
            else f"family at t={t_value}: {sorted(str(kv) for kv in specialized.items())} "
            f"fiber: {sorted(str(kv) for kv in fiber_table.items())}",
        )
        rep.data[label] = {
            f"e{k}@{_mono_str(yexp)}": str(v) for (k, yexp), v in sorted(fiber_table.items())
        }


def run_scenario(path: str, command: str, *, seed=0, trials=20, degree=3):
    """Execute one command pipeline on one scenario file."""
    scenario = load_scenario(path)
    rep = Report(scenario.name, command, seed, trials, degree)
    if command == "validate":
        _run_validate(scenario, rep, seed, trials, degree)
    elif command == "pcurvature":
        _run_pcurvature(scenario, rep, seed, trials, degree)
    elif command == "hitchin":
        _run_hitchin(scenario, rep, seed, trials, degree)
    elif command == "descend":
        _run_descend(scenario, rep, seed, trials, degree)
    elif command == "rees":
        _run_rees(scenario, rep, seed, trials, degree)
    else:
        raise ScenarioError(f"unknown command {command!r}")
    return rep, (EXIT_OK if rep.passed else EXIT_MATH_FAILURE)


def identity_suite(p: int, n: int, *, seed=0, trials=50, degree=3) -> Report:
    """The full identity battery over the tangent algebroid on n coordinates."""
    names = ("x", "y", "z")[:n] if n <= 3 else tuple(f"x{i + 1}" for i in range(n))
    rep = Report(f"identities-p{p}-n{n}", "identities", seed, trials, degree)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the p = 2 warning concerns descent only
        ring = PolyRing(PrimeField(p), names)
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
    parser.add_argument("--trials", type=_bounded_int(1), default=20)
    parser.add_argument("--degree-panel", type=_bounded_int(0), default=3, dest="degree")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--p", type=int, default=3, help="prime for the identities command")
    parser.add_argument(
        "--n",
        type=_bounded_int(1, MAX_IDENTITY_COORDINATES),
        default=1,
        help=f"coordinates for the identities command (at most {MAX_IDENTITY_COORDINATES})",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_INPUT_ERROR if err.code else EXIT_OK

    if args.command == "identities":
        started = time.monotonic()
        try:
            report = identity_suite(args.p, args.n, seed=args.seed, trials=args.trials, degree=args.degree)
        except (ValueError, ResourceLimitError) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        elapsed = time.monotonic() - started
        if args.format == "json":
            print(report.to_json())
        else:
            print(report.render_text(elapsed))
        return EXIT_OK if report.passed else EXIT_MATH_FAILURE

    if not args.scenarios:
        parser.print_usage(sys.stderr)
        print("error: at least one scenario file is required", file=sys.stderr)
        return EXIT_INPUT_ERROR

    outputs = []
    status = EXIT_OK
    for path in sorted(args.scenarios):
        started = time.monotonic()
        try:
            report, code = run_scenario(
                path, args.command, seed=args.seed, trials=args.trials, degree=args.degree
            )
        except ScenarioError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except ResourceLimitError as err:
            print(f"resource limit in {path}: {err}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        except ValueError as err:
            print(f"mathematical failure in {path}: {err}", file=sys.stderr)
            return EXIT_MATH_FAILURE
        elapsed = time.monotonic() - started
        outputs.append((report, elapsed))
        status = max(status, code)

    outputs.sort(key=lambda item: item[0].scenario)
    if args.format == "json":
        documents = [report.to_dict() for report, _ in outputs]
        print(json.dumps(documents if len(documents) > 1 else documents[0], sort_keys=True, indent=2))
    else:
        for report, elapsed in outputs:
            print(report.render_text(elapsed))
    return status


if __name__ == "__main__":
    sys.exit(main())
