"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; "tolerance" is equality of canonical
forms.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines and timings.
"""

import random
import time

import pytest

from pcurv.algebroid import (
    higgs_algebroid,
    rees_algebroid,
    shift_p_structure,
    specialize_t,
    tangent_algebroid,
)
from pcurv.cli import identity_suite
from pcurv.connection import (
    ConnectionModule,
    check_abstract_action_oracle,
    mat_pow,
    mat_trace,
    p_curvature,
    validate_flatness,
)
from pcurv.hitchin import (
    canonical_derivative,
    descend_invariants,
    descend_section,
    hitchin_invariants,
)
from pcurv.panels import random_matrix, random_poly
from pcurv.poly import Derivation, NotDescendable, PolyRing, PrimeField, parse_poly

BATTERY_CONFIGS = [(3, 1), (3, 2), (5, 1), (5, 2)]
BATTERY_TRIALS = 50


def announce(number, description, passed=True):
    print(f"\nACCEPTANCE {number} [{description}]: {'PASS' if passed else 'FAIL'}")


@pytest.fixture(scope="module")
def battery_reports():
    started = time.monotonic()
    reports = {
        (p, n): identity_suite(p, n, seed=0, trials=BATTERY_TRIALS, degree=3)
        for p, n in BATTERY_CONFIGS
    }
    return reports, time.monotonic() - started


def ring(p, names=("x",)):
    return PolyRing(PrimeField(p), tuple(names))


def crystalline_1d(p, entry="x^2", rank=1, rng=None):
    R = ring(p)
    A = tangent_algebroid(R)
    if rank == 1:
        matrices = (((parse_poly(entry, R),),),)
    else:
        matrices = (random_matrix(rng, R, rank),)
    return ConnectionModule(A, rank, matrices)


def crystalline_2d_rank2(p):
    R = ring(p, ("x", "y"))
    A = tangent_algebroid(R)
    swap = ((R.zero(), R.one()), (R.one(), R.zero()))
    x2 = R.variable("x") ** 2
    y = R.variable("y")
    return ConnectionModule(
        A,
        2,
        (
            tuple(tuple(x2 * c for c in row) for row in swap),
            tuple(tuple(y * c for c in row) for row in swap),
        ),
    )


def higgs_modules(p, rng):
    R = ring(p)
    x = R.variable("x")
    H = higgs_algebroid(R, 1, [[R.zero()]])
    yield ConnectionModule(H, 1, (((x * x,),),))
    yield ConnectionModule(H, 2, (((R.zero(), R.one()), (x, R.zero())),))


def shifted_case(p):
    R = ring(p)
    A = tangent_algebroid(R)
    shift = shift_p_structure(A, [R.variable("x") ** p])
    return ConnectionModule(shift, 1, (((R.variable("x") ** 2,),),))


def rees_case(p):
    A = rees_algebroid(tangent_algebroid(ring(p)))
    x = A.ring.variable("x")
    return ConnectionModule(A, 1, (((x * x,),),))


def test_criterion_1_identity_battery(battery_reports):
    reports, elapsed = battery_reports
    required = {
        "enveloping.jacobson_identity",
        "enveloping.deligne_identity",
        "enveloping.hochschild_identity",
        "enveloping.lie_polynomials_against_functions",
        "enveloping.iterated_anchor_identity",
        "enveloping.induced_additivity",
        "enveloping.iterated_delta_distributive",
        "enveloping.additivity_with_lie_polynomials",
        "enveloping.function_multiple_rule",
        "enveloping.ad_axiom_on_degree_one",
    }
    ok = True
    for (p, n), report in reports.items():
        names = {c.name: c for c in report.checks}
        missing = required - set(names)
        assert not missing, f"p={p} n={n}: missing checks {missing}"
        for name in required:
            check = names[name]
            assert check.passed, f"p={p} n={n}: {name} failed: {check.witness}"
            assert check.details.get("trials", 0) >= BATTERY_TRIALS
        assert report.passed
    assert elapsed < 60.0, f"identity battery took {elapsed:.1f}s"
    announce(1, f"identity battery p in {{3,5}}, n in {{1,2}}, {BATTERY_TRIALS} trials, {elapsed:.1f}s")


def test_criterion_2_central_element_suite(battery_reports):
    reports, _ = battery_reports
    required = {
        "enveloping.p_curvature_element_central",
        "enveloping.p_curvature_element_additive",
        "enveloping.p_curvature_element_p_linear",
        "enveloping.top_symbol_of_p_curvature_element",
    }
    for (p, n), report in reports.items():
        names = {c.name: c for c in report.checks}
        for name in required:
            assert name in names, f"p={p} n={n}: {name} missing"
            assert names[name].passed, f"p={p} n={n}: {name} failed"
    announce(2, "centrality, p-linearity, and top symbol of D^p - D^[p]")


def test_criterion_3_order_zero_and_oracle():
    timings = {}
    for p in (3, 5):
        rng = random.Random(100 + p)
        started = time.monotonic()
        cases = [
            crystalline_1d(p),
            crystalline_1d(p, rank=2, rng=rng),
            crystalline_2d_rank2(p),
            *higgs_modules(p, rng),
            shifted_case(p),
            rees_case(p),
        ]
        for M in cases:
            assert validate_flatness(M).passed
            C = p_curvature(M)  # raises on any higher-order part
            oracle = check_abstract_action_oracle(C)
            assert oracle.passed, oracle.failures()[0].witness
        timings[p] = time.monotonic() - started
    assert timings[5] < 120.0, f"p=5 families took {timings[5]:.1f}s"
    announce(
        3,
        "order-0 assertion and abstract-element oracle across all families "
        f"(p=5 in {timings[5]:.1f}s)",
    )


def test_criterion_4_main_theorem():
    for p in (3, 5):
        rng = random.Random(200 + p)
        R = ring(p)
        A = tangent_algebroid(R)
        modules = [ConnectionModule(A, 1, (((random_poly(rng, R, 3),),),)) for _ in range(4)]
        modules.append(crystalline_2d_rank2(p))
        modules.append(rees_case(p))
        for M in modules:
            assert validate_flatness(M).passed
            invariants = hitchin_invariants(p_curvature(M))
            descent = descend_invariants(invariants, M.algebroid)
            assert descent.anchor_surjective
            assert descent.all_descend, descent.witnesses()
    # the bundled crystalline scenario, with the cube-and-compare oracle
    R3 = ring(3)
    C = p_curvature(crystalline_1d(3))
    invariants = hitchin_invariants(C)
    descent = descend_invariants(invariants, C.algebroid)
    ((k, yexp, value),) = descent.descended()
    assert value == parse_poly("x^2 + 2", R3)
    assert value**3 == parse_poly("x^6 + 2", R3) == invariants.coefficients[0][yexp]
    announce(4, "flat + surjective anchor implies full descent; crystalline value x^2 + 2")


def test_criterion_5_counterexample():
    R = ring(3)
    x = R.variable("x")
    H = higgs_algebroid(R, 1, [[x]])
    C = p_curvature(ConnectionModule(H, 1, (((x,),),)))
    trace = mat_trace(C.psi[0])
    assert trace == parse_poly("x^3 - x^2", R)
    descent = descend_invariants(hitchin_invariants(C), H)
    assert not descent.all_descend
    ((_, _, failure),) = descent.witnesses()
    assert isinstance(failure, NotDescendable)
    assert failure.witness() == "2*x^2"  # the x^2 monomial (coefficient -1)
    announce(5, "zero-anchor counterexample: trace x^3 - x^2 fails descent at x^2")


def test_criterion_6_rees_family():
    M = rees_case(3)
    A = M.algebroid
    ring_t = A.ring
    C = p_curvature(M)
    assert C.psi[0] == ((parse_poly("x^6 + 2*t^2", ring_t),),)
    invariants = hitchin_invariants(C)
    descent = descend_invariants(invariants, A)
    ((_, yexp, family),) = descent.descended()
    assert family == parse_poly("x^2 + 2*t^2", ring_t)
    base = ring(3)
    # t = 1: the crystalline fiber
    fiber1 = specialize_t(A, 1)
    M1 = ConnectionModule(fiber1, 1, (((parse_poly("x^2", base),),),))
    I1 = hitchin_invariants(p_curvature(M1))
    assert I1.coefficients[0][(1,)] == invariants.coefficients[0][(1,)].substitute_constant("t", 1)
    assert family.substitute_constant("t", 1) == parse_poly("x^2 + 2", base)
    # t = 0: the Higgs fiber with the trivial p-operation
    fiber0 = specialize_t(A, 0)
    M0 = ConnectionModule(fiber0, 1, (((parse_poly("x^2", base),),),))
    I0 = hitchin_invariants(p_curvature(M0))
    assert I0.coefficients[0][(1,)] == invariants.coefficients[0][(1,)].substitute_constant("t", 0)
    assert family.substitute_constant("t", 0) == parse_poly("x^2", base)
    announce(6, "Rees family psi = x^6 + 2t^2 descends to x^2 + 2t^2 with matching fibers")


def test_criterion_7_higgs_frobenius_identity():
    for p in (3, 5):
        rng = random.Random(300 + p)
        R = ring(p, ("x", "y"))
        for _ in range(20):
            r = rng.choice((1, 2, 3))
            matrix = random_matrix(rng, R, r, max_degree=2, max_terms=2)
            assert mat_trace(mat_pow(matrix, p, R)) == mat_trace(matrix) ** p
    announce(7, "tr(A^p) = (tr A)^p for 20 random matrices, r <= 3, p in {3,5}")


def test_criterion_8_cartier_equivalence():
    rng = random.Random(400)
    R = ring(3, ("x", "y"))
    coordinate_fields = [Derivation.coordinate(R, j) for j in range(R.nvars)]
    zero = tuple(R.zero() for _ in range(2))
    successes = 0
    for _ in range(120):
        section = tuple(random_poly(rng, R, 6, 3) for _ in range(2))
        if rng.random() < 0.5:
            section = tuple(f.frobenius() for f in section)
        derivatives_vanish = all(
            canonical_derivative(section, d) == zero for d in coordinate_fields
        )
        descended = descend_section(section)
        succeeded = not isinstance(descended, NotDescendable)
        assert succeeded == derivatives_vanish
        if succeeded:
            successes += 1
            assert tuple(f.frobenius() for f in descended) == section
    assert successes >= 20
    announce(8, f"Cartier equivalence on 120 random sections ({successes} descendable)")
