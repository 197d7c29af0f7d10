import random

import pytest

from pcurv.algebroid import (
    AlgebroidPresentation,
    anchor_generic_surjectivity,
    higgs_algebroid,
    rees_algebroid,
    shift_p_structure,
    specialize_t,
    tangent_algebroid,
    validate_algebroid,
    validate_p_structure,
)
from pcurv.panels import random_poly, random_vector
from pcurv.poly import Derivation, PolyRing, PrimeField, parse_poly


def ring(p, names=("x",), rees=None):
    return PolyRing(PrimeField(p), tuple(names), rees)


class TestTangent:
    def test_rank_one_p3(self):
        R = ring(3)
        A = tangent_algebroid(R)
        assert A.rank == 1
        assert A.anchor[0] == Derivation.coordinate(R, 0)
        assert all(c.is_zero() for c in A.p_op[0])  # d^3 = 0 on F_3[x]

    def test_rank_two_brackets_zero(self):
        A = tangent_algebroid(ring(3, ("x", "y")))
        assert A.rank == 2
        assert all(c.is_zero() for t in A.bracket for v in t for c in v)

    def test_on_deformation_ring_skips_t(self):
        R = ring(3, ("x", "t"), rees="t")
        A = tangent_algebroid(R)
        assert A.rank == 1
        assert A.anchor[0].components[1].is_zero()

    @pytest.mark.parametrize("p,names", [(3, ("x",)), (3, ("x", "y")), (5, ("x",))])
    def test_validates(self, p, names):
        A = tangent_algebroid(ring(p, names))
        assert validate_algebroid(A, trials=5).passed
        assert validate_p_structure(A, trials=5).passed


class TestHiggs:
    def test_trivial_p_structure(self):
        R = ring(3)
        A = higgs_algebroid(R, 2, [[R.zero()] * 2, [R.zero()] * 2])
        assert validate_algebroid(A, trials=5).passed
        assert validate_p_structure(A, trials=5).passed

    def test_multiplication_by_x(self):
        R = ring(3)
        A = higgs_algebroid(R, 1, [[R.variable("x")]])
        assert A.p_op[0][0] == R.variable("x")
        assert validate_p_structure(A, trials=5).passed

    def test_identity_alpha(self):
        R = ring(5)
        A = higgs_algebroid(R, 2, [[R.one(), R.zero()], [R.zero(), R.one()]])
        assert A.p_operation(A.h_basis(0)) == A.h_basis(0)
        assert validate_p_structure(A, trials=5).passed


class TestValidatorCatchesDefects:
    def test_broken_antisymmetry(self):
        R = ring(3)
        A = tangent_algebroid(ring(3, ("x", "y")))
        one, zero = R.one(), R.zero()
        R2 = A.ring
        bracket = (
            ((R2.zero(), R2.zero()), (R2.one(), R2.zero())),
            ((R2.one(), R2.zero()), (R2.zero(), R2.zero())),  # c_21 = +c_12
        )
        bad = AlgebroidPresentation(R2, 2, bracket, A.anchor, A.p_op)
        rep = validate_algebroid(bad, trials=2)
        assert not rep.passed
        assert any(c.name == "antisymmetry" and not c.passed for c in rep.checks)

    def test_constant_p_op_fails_anchor_compatibility(self):
        # e^[3] := e  is not the cube of the coordinate field
        R = ring(3)
        A = tangent_algebroid(R)
        bad = AlgebroidPresentation(R, 1, A.bracket, A.anchor, ((R.one(),),))
        rep = validate_p_structure(bad, trials=2)
        assert not rep.passed
        failing = {c.name for c in rep.failures()}
        assert "anchor_restricted_compatibility" in failing

    def test_dimension_mismatch_rejected(self):
        R = ring(3)
        A = tangent_algebroid(R)
        with pytest.raises(ValueError):
            AlgebroidPresentation(R, 1, A.bracket, A.anchor, ((R.one(), R.one()),))


class TestPOperationExtension:
    def test_single_term_rule(self):
        # (g e)^[p] = g^p e^[p] + (g d)^{p-1}(g) e  for the tangent line
        R = ring(3)
        A = tangent_algebroid(R)
        g = parse_poly("x^2", R)
        nu = A.anchor[0].scale(g)
        expected = nu.apply_iter(g, 2)
        out = A.p_operation((g,))
        assert out == (expected,)

    def test_euler_fixed(self):
        # (x d)^[p] = x d for every p, by Fermat on the coordinate
        for p in (3, 5):
            R = ring(p)
            A = tangent_algebroid(R)
            x = R.variable("x")
            assert A.p_operation((x,)) == (x,)

    def test_fold_order_consistency(self):
        # the fold over basis terms must agree with Jacobson-corrected sums
        rng = random.Random(3)
        A = tangent_algebroid(ring(3, ("x", "y")))
        for _ in range(10):
            d1 = random_vector(rng, A.ring, 2, 2)
            d2 = random_vector(rng, A.ring, 2, 2)
            lhs = A.p_operation(A.h_add(d1, d2))
            rhs = A.h_add(A.p_operation(d1), A.p_operation(d2))
            zero = A.ring.zero()
            for f, s in A.lie_polynomials((zero, d1), (zero, d2)):
                assert f.is_zero()
                rhs = A.h_add(rhs, s)
            assert lhs == rhs


class TestRees:
    def test_tables_scaled(self):
        R = ring(3)
        A = tangent_algebroid(R)
        AR = rees_algebroid(A)
        t = AR.ring.variable("t")
        assert AR.ring.rees_variable == "t"
        assert AR.anchor[0].components[0] == t
        assert all(c.is_zero() for c in AR.p_op[0])

    def test_p_op_scaling_visible_when_nonzero(self):
        R = ring(3)
        A = higgs_algebroid(R, 1, [[R.variable("x")]])
        AR = rees_algebroid(A)
        t = AR.ring.variable("t")
        x = AR.ring.variable("x")
        assert AR.p_op[0][0] == t * t * x

    def test_validates_whenever_base_does(self):
        for p, names in ((3, ("x",)), (5, ("x",)), (3, ("x", "y"))):
            A = tangent_algebroid(ring(p, names))
            AR = rees_algebroid(A)
            assert validate_algebroid(AR, trials=4).passed
            assert validate_p_structure(AR, trials=4).passed

    def test_specializations(self):
        A = tangent_algebroid(ring(3, ("x", "y")))
        AR = rees_algebroid(A)
        assert specialize_t(AR, 1) == A
        S0 = specialize_t(AR, 0)
        assert all(d.is_zero() for d in S0.anchor)
        assert all(c.is_zero() for v in S0.p_op for c in v)
        assert all(c.is_zero() for t in S0.bracket for v in t for c in v)

    def test_rees_requires_fresh_variable(self):
        A = tangent_algebroid(ring(3))
        AR = rees_algebroid(A)
        with pytest.raises(ValueError):
            rees_algebroid(AR)
        with pytest.raises(ValueError):
            specialize_t(A, 1)


class TestShift:
    def test_valid_shift(self):
        R = ring(3)
        A = tangent_algebroid(R)
        sh = shift_p_structure(A, [parse_poly("x^3", R)])
        assert str(sh.shifted_p_op(0)) == "x^3"

    def test_zero_shift_is_identity(self):
        R = ring(3)
        A = tangent_algebroid(R)
        sh = shift_p_structure(A, [R.zero()])
        assert sh.shifted_p_op(0).is_zero()

    def test_non_central_shift_rejected(self):
        R = ring(3)
        A = tangent_algebroid(R)
        with pytest.raises(ValueError, match="not central"):
            shift_p_structure(A, [R.variable("x")])


class TestAnchorSurjectivity:
    def test_tangent_true_with_unit_minor(self):
        A = tangent_algebroid(ring(3, ("x", "y")))
        flag, minor = anchor_generic_surjectivity(A)
        assert flag and minor == A.ring.one()

    def test_higgs_false(self):
        R = ring(3)
        A = higgs_algebroid(R, 1, [[R.variable("x")]])
        assert anchor_generic_surjectivity(A) == (False, None)

    def test_rees_minor_is_power_of_t(self):
        for n, names in ((1, ("x",)), (2, ("x", "y"))):
            A = rees_algebroid(tangent_algebroid(ring(3, names)))
            flag, minor = anchor_generic_surjectivity(A)
            assert flag
            assert minor == A.ring.variable("t") ** n

    def test_rank_below_dimension_false(self):
        R = ring(3, ("x", "y"))
        A = higgs_algebroid(R, 1, [[R.one()]])
        assert anchor_generic_surjectivity(A)[0] is False


class TestRoundTrip:
    def test_enveloping_symbols_reproduce_presentation(self):
        # reading bracket/anchor/[p] back through the enveloping algebra
        from pcurv import operators as ops

        rng = random.Random(5)
        R = ring(3, ("x", "y"))
        A = tangent_algebroid(R)
        for a in range(A.rank):
            for b in range(A.rank):
                ea, eb = ops.generator(A, a), ops.generator(A, b)
                com = ea.commutator(eb)
                f, coeffs = com.lambda1_parts()
                assert f.is_zero()
                assert coeffs == A.bracket[a][b]
                # anchor read back from commutators with functions
                g = random_poly(rng, R, 3)
                assert ea.commutator(ops.from_poly(A, g)).function_part() == A.anchor[a](g)
            got = ops.p_operation_lambda1(A, ops.generator(A, a))
            f, coeffs = got.lambda1_parts()
            assert f.is_zero() and coeffs == A.p_op[a]
