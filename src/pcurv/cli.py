"""Command line entry point: scenario files in, reports and exit codes out.

A scenario is a JSON document giving the prime, the coordinates, the
algebroid tables (polynomial strings in the usual grammar), and optionally
a module block, a p-structure shift, and an expectation marker.  Commands:

    validate    axioms of the algebroid, its p-structure, and flatness
    pcurvature  the p-curvature matrices and their structural checks
    hitchin     invariants of the characteristic polynomial, trace flatness
    descend     Frobenius descent of every invariant coefficient
    rees        the deformation pipeline with fiber cross-checks at t=0,1
    identities  the seeded identity battery over a tangent algebroid

Exit status: 0 all checks passed (or an expected failure occurred),
1 a mathematical check failed, 2 the input was unusable or exceeded the
degree bound.

The structured (json) report format contains no timing information and is
byte-identical across runs for the same scenario and seed; the text format
appends wall-clock timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import operators as ops
from .algebroid import (
    AlgebroidPresentation,
    anchor_generic_surjectivity,
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
    p_curvature,
    validate_flatness,
)
from .hitchin import descend_invariants, hitchin_invariants, validate_trace_flatness
from .panels import poly_panel
from .poly import (
    NotDescendable,
    PolyParseError,
    PolyRing,
    PrimeField,
    ResourceLimitError,
    parse_poly,
)
from .report import CheckResult, ValidationReport

SCHEMA_VERSION = 1
COMMANDS = ("validate", "pcurvature", "hitchin", "descend", "rees", "identities")

EXIT_OK = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2


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


def _parse_table(rows, ring, rank, where):
    if not isinstance(rows, list) or len(rows) != rank:
        raise ScenarioError(f"{where}: expected {rank} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != rank:
            raise ScenarioError(f"{where}[{i}]: expected {rank} entries")
        out.append(tuple(_parse_entry(s, ring, f"{where}[{i}]") for s in row))
    return tuple(out)


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
    bracket_rows = _require(block, "bracket", list)
    if len(bracket_rows) != rank:
        raise ScenarioError("bracket: expected one row per generator")
    bracket = []
    for a, row in enumerate(bracket_rows):
        if not isinstance(row, list) or len(row) != rank:
            raise ScenarioError(f"bracket[{a}]: expected {rank} entries")
        table = []
        for b, vec in enumerate(row):
            if not isinstance(vec, list) or len(vec) != rank:
                raise ScenarioError(f"bracket[{a}][{b}]: expected {rank} coefficients")
            table.append(
                tuple(_parse_entry(s, ring, f"bracket[{a}][{b}]") for s in vec)
            )
        bracket.append(tuple(table))
    anchor_rows = _require(block, "anchor", list)
    if len(anchor_rows) != rank:
        raise ScenarioError("anchor: expected one row per generator")
    from .poly import Derivation

    anchors = []
    for a, row in enumerate(anchor_rows):
        if not isinstance(row, list) or len(row) != ring.nvars:
            raise ScenarioError(f"anchor[{a}]: expected {ring.nvars} components")
        anchors.append(
            Derivation(ring, tuple(_parse_entry(s, ring, f"anchor[{a}]") for s in row))
        )
    p_op = _parse_table(_require(block, "p_op", list), ring, rank, "p_op")
    try:
        base = AlgebroidPresentation(ring, rank, tuple(bracket), tuple(anchors), p_op)
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
        phi_rows = _require(shift_block, "phi", list)
        if len(phi_rows) != rank:
            raise ScenarioError("shift.phi: one value per generator required")
        phi = [_parse_entry(s, algebroid.ring, "shift.phi") for s in phi_rows]
        try:
            structure = shift_p_structure(algebroid, phi)
        except ValueError as err:
            raise ScenarioError(f"shift rejected: {err}") from err

    module = None
    if "module" in doc:
        mod = _require(doc, "module", dict)
        r = _require(mod, "rank", int)
        matrices = _require(mod, "matrices", list)
        if len(matrices) != rank:
            raise ScenarioError("module.matrices: one matrix per generator required")
        parsed = tuple(
            _parse_table(mat, algebroid.ring, r, f"module.matrices[{a}]")
            for a, mat in enumerate(matrices)
        )
        try:
            module = ConnectionModule(algebroid, r, parsed)
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
    parts = [
        f"y{a + 1}" if e == 1 else f"y{a + 1}^{e}" for a, e in enumerate(yexp) if e
    ]
    return "*".join(parts) if parts else "1"


def _matrix_strings(matrix):
    return [[str(entry) for entry in row] for row in matrix]


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
    rep.data["psi"] = [_matrix_strings(m) for m in C.psi]
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
            tuple(tuple(c.substitute_constant(t_name, t_value) for c in row) for row in m)
            for m in module.matrices
        )
        fiber_module = ConnectionModule(fiber_algebroid, module.rank, fiber_matrices)
        fiber_invariants = hitchin_invariants(p_curvature(fiber_module))
        specialized = {}
        for k, yexp, value in invariants.items():
            v = value.substitute_constant(t_name, t_value)
            if not v.is_zero():
                specialized[(k, yexp)] = v
        fiber_table = {}
        for k, yexp, value in fiber_invariants.items():
            fiber_table[(k, yexp)] = value
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
    if p == 2:
        import random as _random

        import warnings

        from .panels import random_poly, random_vector
        from .poly import Derivation

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ring = PolyRing(PrimeField(p), names)
        A = tangent_algebroid(ring)
        rng = _random.Random(seed)
        rep.add("warning_p2_reduced_battery", True, witness=None, note="derivation identities only")
        bad = []
        for _ in range(trials):
            f = random_poly(rng, ring, degree, 2)
            nu = A.anchor_of(random_vector(rng, ring, n, degree, 2))
            lhs = nu.scale(f).pth_power()
            correction = nu.scale(f).apply_iter(f, p - 1)
            rhs = Derivation(
                ring,
                tuple(f**p * c + correction * d for c, d in zip(nu.pth_power().components, nu.components)),
            )
            if lhs != rhs:
                bad.append(f"f={f}, nu={nu}")
        rep.add("hochschild_identity", not bad, witness="; ".join(bad[:1]) or None, trials=trials)
        bad = []
        for _ in range(trials):
            f = random_poly(rng, ring, degree, 2)
            nu = A.anchor_of(random_vector(rng, ring, n, degree, 2))
            lhs = nu.scale(f).apply_iter(f, p - 1)
            rhs = -(f * nu.apply_iter(f ** (p - 1), p - 1))
            if lhs != rhs:
                bad.append(f"f={f}")
        rep.add("deligne_scaling_identity", not bad, witness="; ".join(bad[:1]) or None, trials=trials)
        return rep
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcurv",
        description="exact p-curvature, Hitchin invariants, and Frobenius descent",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scenarios", nargs="*", help="scenario JSON files")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--degree-panel", type=int, default=3, dest="degree")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--p", type=int, default=3, help="prime for the identities command")
    parser.add_argument("--n", type=int, default=1, help="coordinates for the identities command")
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
        except ValueError as err:
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
