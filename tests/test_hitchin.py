import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcurv.algebroid import (
    higgs_algebroid,
    rees_algebroid,
    specialize_t,
    tangent_algebroid,
)
from pcurv.connection import (
    ConnectionModule,
    PCurvature,
    mat_add,
    mat_commutator,
    mat_is_zero,
    mat_scalar,
    mat_scale,
    mat_trace,
    p_curvature,
)
from pcurv.hitchin import (
    canonical_derivative,
    characteristic_polynomial,
    descend_invariants,
    descend_section,
    hitchin_invariants,
    section_descends,
    validate_trace_flatness,
)
from pcurv.panels import random_poly
from pcurv.poly import Derivation, NotDescendable, PolyRing, PrimeField, parse_poly


def ring(p, names=("x",)):
    return PolyRing(PrimeField(p), tuple(names))


def crystalline_scalar(p=3, entry="x^2"):
    R = ring(p)
    A = tangent_algebroid(R)
    return ConnectionModule(A, 1, (((parse_poly(entry, R),),),))


def higgs_rank2_swap(p=3):
    R = ring(p)
    H = higgs_algebroid(R, 1, [[R.zero()]])
    x = R.variable("x")
    return ConnectionModule(H, 2, (((R.zero(), R.one()), (x, R.zero())),))


@st.composite
def psi_pairs(draw):
    """Two 2 x 2 matrices over F_p[x] of degree at most 1: a random pair,
    or a pair (a, c I + d a) that commutes."""
    p = draw(st.sampled_from([3, 5]))
    R = ring(p)
    entry = st.builds(lambda c, d: R.constant(c) + R.constant(d) * R.variable("x"),
                      st.integers(0, p - 1), st.integers(0, p - 1))
    matrix = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))
    a = draw(matrix)
    if draw(st.booleans()):
        b = draw(matrix)
    else:
        c, d = draw(entry), draw(entry)
        b = mat_add(mat_scalar(c, R.zero(), 2), mat_scale(d, a))
    return a, b


class TestCharPoly:
    def test_scalar(self):
        C = p_curvature(crystalline_scalar())
        cp = characteristic_polynomial(C)
        expected = parse_poly("lam - (x^6 + 2)*y1", cp.ring)
        assert cp.value == expected

    def test_higgs_rank2(self):
        C = p_curvature(higgs_rank2_swap())
        cp = characteristic_polynomial(C)
        assert cp.value == parse_poly("lam^2 + 2*x^3*y1^2", cp.ring)

    def test_zero_curvature(self):
        R = ring(3)
        M = ConnectionModule(tangent_algebroid(R), 1, (((R.zero(),),),))
        cp = characteristic_polynomial(p_curvature(M))
        assert cp.value == cp.ring.variable("lam")

    @settings(max_examples=60, deadline=None)
    @given(psi_pairs())
    def test_refuses_non_commuting_psi(self, psi):
        # psi is set by hand: the guard must look at the matrices it is
        # given, whatever module and structure they came with
        R = psi[0][0][0].ring
        H = higgs_algebroid(R, 2, [[R.zero()] * 2] * 2)
        zero = mat_scalar(R.zero(), R.zero(), 2)
        C = PCurvature(ConnectionModule(H, 2, (zero, zero)), psi)
        if mat_is_zero(mat_commutator(*psi)):
            (e1, _) = hitchin_invariants(C).coefficients
            assert e1 == {
                yexp: trace
                for yexp, trace in (((1, 0), mat_trace(psi[0])), ((0, 1), mat_trace(psi[1])))
                if not trace.is_zero()
            }
        else:
            with pytest.raises(ValueError, match="do not commute"):
                characteristic_polynomial(C)


class TestInvariants:
    def test_scalar_trace(self):
        I = hitchin_invariants(p_curvature(crystalline_scalar()))
        assert I.rank == 1
        assert I.coefficients[0] == {(1,): parse_poly("x^6 + 2", ring(3))}

    def test_higgs_rank2(self):
        I = hitchin_invariants(p_curvature(higgs_rank2_swap()))
        assert I.coefficients[0] == {}  # trace vanishes
        assert I.coefficients[1] == {(2,): parse_poly("2*x^3", ring(3))}

    def test_counterexample_trace(self):
        R = ring(3)
        x = R.variable("x")
        H = higgs_algebroid(R, 1, [[x]])
        I = hitchin_invariants(p_curvature(ConnectionModule(H, 1, (((x,),),))))
        assert I.coefficients[0] == {(1,): parse_poly("x^3 - x^2", R)}

    def test_render(self):
        I = hitchin_invariants(p_curvature(crystalline_scalar()))
        assert I.render(1) == "(x^6 + 2)*y1"


class TestCanonicalConnection:
    def test_pth_power_killed(self):
        R = ring(3)
        d = Derivation.coordinate(R, 0)
        assert canonical_derivative((parse_poly("x^3", R),), d) == (R.zero(),)

    def test_nonflat_section(self):
        R = ring(3)
        d = Derivation.coordinate(R, 0)
        assert canonical_derivative((R.variable("x"),), d) == (R.one(),)

    def test_constant_section(self):
        R = ring(3)
        d = Derivation.coordinate(R, 0)
        assert canonical_derivative((R.constant(2),), d) == (R.zero(),)


class TestSectionDescent:
    def test_componentwise(self):
        R = ring(3)
        section = (parse_poly("x^3", R), parse_poly("x^6 + 2", R))
        assert descend_section(section) == (parse_poly("x", R), parse_poly("x^2 + 2", R))

    def test_failure(self):
        R = ring(3)
        out = descend_section((R.variable("x"), R.zero()))
        assert isinstance(out, NotDescendable)

    def test_zero_section(self):
        R = ring(3)
        assert descend_section((R.zero(), R.zero())) == (R.zero(), R.zero())

    def test_cartier_equivalence_random(self):
        # descent succeeds exactly when all canonical derivatives vanish
        rng = random.Random(41)
        R = ring(3, ("x", "y"))
        hits = 0
        for _ in range(200):
            section = tuple(random_poly(rng, R, 6, 3) for _ in range(2))
            if rng.random() < 0.4:
                section = tuple(f.frobenius() for f in section)
            flat = section_descends(section)
            descended = descend_section(section)
            ok = not isinstance(descended, NotDescendable)
            assert flat == ok
            if ok:
                hits += 1
                assert tuple(f.frobenius() for f in descended) == section
        assert hits > 20  # the frobenius branch guarantees genuine successes


class TestTraceFlatness:
    def test_crystalline(self):
        C = p_curvature(crystalline_scalar())
        assert validate_trace_flatness(C, hitchin_invariants(C)).passed

    def test_anchor_degenerate_flagged(self):
        R = ring(3)
        x = R.variable("x")
        H = higgs_algebroid(R, 1, [[x]])
        C = p_curvature(ConnectionModule(H, 1, (((x,),),)))
        rep = validate_trace_flatness(C, hitchin_invariants(C))
        assert rep.passed
        assert rep.checks[0].details.get("anchor") == "degenerate (all zero)"

    def test_rees_anchor(self):
        A = rees_algebroid(tangent_algebroid(ring(3)))
        x = A.ring.variable("x")
        C = p_curvature(ConnectionModule(A, 1, (((x * x,),),)))
        assert validate_trace_flatness(C, hitchin_invariants(C)).passed


class TestDescendInvariants:
    def test_crystalline_descends_to_expected_value(self):
        C = p_curvature(crystalline_scalar())
        I = hitchin_invariants(C)
        D = descend_invariants(I, C.algebroid)
        assert D.anchor_surjective and D.all_descend
        ((k, yexp, value),) = D.descended()
        assert (k, yexp) == (1, (1,))
        assert value == parse_poly("x^2 + 2", ring(3))
        assert value.frobenius() == parse_poly("x^6 + 2", ring(3))

    def test_counterexample_witness(self):
        R = ring(3)
        x = R.variable("x")
        H = higgs_algebroid(R, 1, [[x]])
        C = p_curvature(ConnectionModule(H, 1, (((x,),),)))
        D = descend_invariants(hitchin_invariants(C), H)
        assert not D.anchor_surjective
        assert not D.all_descend
        ((k, yexp, failure),) = D.witnesses()
        assert failure.witness() == "2*x^2"

    def test_rees_family_and_fibers(self):
        A = rees_algebroid(tangent_algebroid(ring(3)))
        x = A.ring.variable("x")
        C = p_curvature(ConnectionModule(A, 1, (((x * x,),),)))
        I = hitchin_invariants(C)
        D = descend_invariants(I, A)
        assert D.all_descend
        ((_, _, family),) = D.descended()
        assert family == parse_poly("x^2 + 2*t^2", A.ring)
        # the fiber at t=1 is the crystalline value, at t=0 the Higgs value
        base = ring(3)
        assert family.substitute_constant("t", 1) == parse_poly("x^2 + 2", base)
        assert family.substitute_constant("t", 0) == parse_poly("x^2", base)
        higgs_fiber = specialize_t(A, 0)
        xb = base.variable("x")
        C0 = p_curvature(ConnectionModule(higgs_fiber, 1, (((xb * xb,),),)))
        D0 = descend_invariants(hitchin_invariants(C0), higgs_fiber)
        ((_, _, fiber_value),) = D0.descended()
        assert fiber_value == parse_poly("x^2", base)

    def test_p2_rejected(self):
        R = ring(2)
        A = tangent_algebroid(R)
        M = ConnectionModule(A, 1, (((R.variable("x"),),),))
        C = p_curvature(M)
        with pytest.raises(ValueError, match="p > 2"):
            validate_trace_flatness(C, hitchin_invariants(C))
        with pytest.raises(ValueError, match="p > 2"):
            descend_invariants(hitchin_invariants(C), A)


class TestTheoremAcrossPanels:
    @pytest.mark.parametrize("p", [3, 5])
    def test_random_flat_scalar_modules_descend(self, p):
        # rank-1 modules over the tangent line are always flat; the descent
        # theorem applies since the anchor is surjective
        rng = random.Random(42)
        R = ring(p)
        A = tangent_algebroid(R)
        for _ in range(6):
            M = ConnectionModule(A, 1, (((random_poly(rng, R, 3),),),))
            D = descend_invariants(hitchin_invariants(p_curvature(M)), A)
            assert D.anchor_surjective and D.all_descend
