import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcurv import operators as ops
from pcurv.algebroid import higgs_algebroid, rees_algebroid, shift_p_structure, tangent_algebroid
from pcurv.connection import (
    ConnectionModule,
    MatrixDiffOp,
    check_abstract_action_oracle,
    check_flat_commutation,
    check_higgs_commutativity,
    check_p_linearity,
    identity_matrix,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_pow,
    mat_scale,
    p_curvature,
    represent_operator,
    validate_flatness,
)
from pcurv.panels import poly_panel, random_matrix, random_poly
from pcurv.poly import PolyRing, PrimeField, parse_poly


def ring(p, names=("x",)):
    return PolyRing(PrimeField(p), tuple(names))


def scalar_module(A, entry):
    return ConnectionModule(A, 1, (((entry,),),))


class TestNablaOf:
    def test_unit(self):
        R = ring(3)
        M = scalar_module(tangent_algebroid(R), parse_poly("x^2", R))
        op = represent_operator(M, ops.one(M.algebroid))
        assert op.order() == 0
        assert op.as_matrix() == ((R.one(),),)

    def test_generator_action(self):
        R = ring(3)
        M = scalar_module(tangent_algebroid(R), parse_poly("x^2", R))
        op = M.generator_action(0)
        assert str(op.entries[0][0]) == "e1 + x^2"

    def test_left_multiplication(self):
        R = ring(3)
        x = R.variable("x")
        M = scalar_module(tangent_algebroid(R), x * x)
        op = represent_operator(M, ops.from_h_element(M.algebroid, (x,)))
        assert str(op.entries[0][0]) == "x*e1 + x^3"

    def test_operator_application(self):
        R = ring(3)
        M = scalar_module(tangent_algebroid(R), parse_poly("x^2", R))
        op = M.generator_action(0)
        (value,) = op.apply((parse_poly("x^3 + x", R),))
        # derivative 3x^2 + 1 = 1, plus x^2*(x^3+x)
        assert value == parse_poly("x^5 + x^3 + 1", R)


class TestFlatness:
    def test_zero_connection_flat(self):
        A = tangent_algebroid(ring(3, ("x", "y")))
        Z = A.ring.zero()
        M = ConnectionModule(A, 1, (((Z,),), ((Z,),)))
        assert validate_flatness(M).passed

    def test_curvature_detected(self):
        R = ring(3, ("x", "y"))
        A = tangent_algebroid(R)
        M = ConnectionModule(A, 1, (((R.variable("y"),),), ((R.zero(),),)))
        rep = validate_flatness(M)
        assert not rep.passed
        assert "2" in rep.failures()[0].witness  # constant curvature -1 = 2 mod 3

    def test_higgs_flat_iff_commuting(self):
        R = ring(3)
        x = R.variable("x")
        H = higgs_algebroid(R, 2, [[R.zero()] * 2, [R.zero()] * 2])
        commuting = (
            ((R.zero(), R.one()), (x, R.zero())),
            ((x, R.zero()), (R.zero(), x)),
        )
        assert validate_flatness(ConnectionModule(H, 2, commuting)).passed
        non_commuting = (
            ((R.zero(), R.one()), (x, R.zero())),
            ((R.one(), R.zero()), (R.zero(), R.zero())),
        )
        assert not validate_flatness(ConnectionModule(H, 2, non_commuting)).passed

    def test_p_curvature_refuses_nonflat(self):
        R = ring(3, ("x", "y"))
        A = tangent_algebroid(R)
        M = ConnectionModule(A, 1, (((R.variable("y"),),), ((R.zero(),),)))
        with pytest.raises(ValueError, match="not flat"):
            p_curvature(M)


class TestPCurvature:
    def test_crystalline_scalar(self):
        R = ring(3)
        M = scalar_module(tangent_algebroid(R), parse_poly("x^2", R))
        C = p_curvature(M)
        assert C.psi[0] == ((parse_poly("x^6 + 2", R),),)

    def test_zero_connection(self):
        R = ring(3)
        M = scalar_module(tangent_algebroid(R), R.zero())
        assert mat_is_zero(p_curvature(M).psi[0])

    def test_higgs_is_pth_matrix_power(self):
        rng = random.Random(31)
        for p in (3, 5):
            R = ring(p)
            H = higgs_algebroid(R, 1, [[R.zero()]])
            for _ in range(5):
                A1 = random_matrix(rng, R, 2)
                M = ConnectionModule(H, 2, (A1,))
                C = p_curvature(M)
                assert C.psi[0] == mat_pow(A1, p, R)

    def test_counterexample_value(self):
        R = ring(3)
        x = R.variable("x")
        H = higgs_algebroid(R, 1, [[x]])
        C = p_curvature(ConnectionModule(H, 1, (((x,),),)))
        assert C.psi[0] == ((parse_poly("x^3 - x^2", R),),)

    def test_rees_family_value(self):
        A = rees_algebroid(tangent_algebroid(ring(3)))
        x = A.ring.variable("x")
        C = p_curvature(ConnectionModule(A, 1, (((x * x,),),)))
        assert C.psi[0] == ((parse_poly("x^6 + 2*t^2", A.ring),),)

    def test_shifted_structure_value(self):
        R = ring(3)
        A = tangent_algebroid(R)
        sh = shift_p_structure(A, [parse_poly("x^3", R)])
        M = scalar_module(A, parse_poly("x^2", R))
        C = p_curvature(M, structure=sh)
        assert C.psi[0] == ((parse_poly("x^6 - x^3 + 2", R),),)

    def test_broken_structure_leaves_higher_order(self):
        from pcurv.algebroid import AlgebroidPresentation

        R = ring(3)
        A = tangent_algebroid(R)
        bad = AlgebroidPresentation(R, 1, A.bracket, A.anchor, ((R.one(),),))
        M = scalar_module(bad, parse_poly("x^2", R))
        with pytest.raises(ValueError, match="differential part"):
            p_curvature(M)


def flat_2d_rank2(p=3):
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


class TestPCurvatureProperties:
    def test_2d_rank2_values(self):
        M = flat_2d_rank2()
        R = M.ring
        assert validate_flatness(M).passed
        C = p_curvature(M)
        f = parse_poly("x^6 + 2", R)
        g = parse_poly("y^3", R)
        assert C.psi[0] == ((R.zero(), f), (f, R.zero()))
        assert C.psi[1] == ((R.zero(), g), (g, R.zero()))

    def test_oracle_equivalence(self):
        M = flat_2d_rank2()
        C = p_curvature(M)
        assert check_abstract_action_oracle(C).passed

    def test_p_linearity(self):
        R = ring(3)
        M = scalar_module(tangent_algebroid(R), parse_poly("x^2", R))
        C = p_curvature(M)
        rep = check_p_linearity(C, poly_panel(R, 4, seed=2, max_degree=2))
        assert rep.passed

    def test_p_linearity_2d(self):
        M = flat_2d_rank2()
        C = p_curvature(M)
        rep = check_p_linearity(C, poly_panel(M.ring, 2, seed=3, max_degree=1))
        assert rep.passed

    def test_higgs_commutativity(self):
        C = p_curvature(flat_2d_rank2())
        assert check_higgs_commutativity(C).passed

    def test_flat_commutation(self):
        for C in (
            p_curvature(flat_2d_rank2()),
            p_curvature(scalar_module(tangent_algebroid(ring(3)), parse_poly("x^2", ring(3)))),
        ):
            assert check_flat_commutation(C).passed

    def test_flat_commutation_higgs_reduces_to_matrix_identity(self):
        R = ring(3)
        x = R.variable("x")
        H = higgs_algebroid(R, 2, [[R.zero()] * 2, [R.zero()] * 2])
        commuting = (
            ((R.zero(), R.one()), (x, R.zero())),
            ((x, R.zero()), (R.zero(), x)),
        )
        C = p_curvature(ConnectionModule(H, 2, commuting))
        assert check_flat_commutation(C).passed


def rank2_line(p):
    R = ring(p)
    x = R.variable("x")
    A1 = ((x * x, R.one()), (x, R.constant(2) * x + R.one()))
    return ConnectionModule(tangent_algebroid(R), 2, (A1,))


class TestChecksCatchWrongPCurvature:
    """psi_a + I in place of psi_a must fail both independent checks."""

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("build", [rank2_line, flat_2d_rank2])
    def test_shifted_psi_fails_oracle_and_p_linearity(self, p, build):
        M = build(p)
        C = p_curvature(M)
        assert check_abstract_action_oracle(C).passed
        panel = poly_panel(M.ring, 2, seed=5, max_degree=1)
        assert check_p_linearity(C, panel).passed
        one = identity_matrix(M.ring, M.rank)
        wrong = replace(C, psi=tuple(mat_add(m, one) for m in C.psi))
        assert not check_abstract_action_oracle(wrong).passed
        assert not check_p_linearity(wrong, panel).passed


@st.composite
def line_modules(draw):
    """A random connection of rank <= 3 on the affine line (always flat)."""
    p = draw(st.sampled_from([3, 5, 7]))
    r = draw(st.integers(1, 3))
    R = ring(p)
    coeffs = st.lists(st.integers(0, p - 1), min_size=3, max_size=3)
    entries = [
        sum((R.monomial((e,), c) for e, c in enumerate(draw(coeffs))), R.zero())
        for _ in range(r * r)
    ]
    matrix = tuple(tuple(entries[i * r : (i + 1) * r]) for i in range(r))
    return ConnectionModule(tangent_algebroid(R), r, (matrix,))


@st.composite
def commuting_constant_pairs(draw):
    """(B, B^2 + c I) with B a constant 2x2 matrix: a flat module in 2d."""
    p = draw(st.sampled_from([3, 5]))
    R = ring(p, ("x", "y"))
    values = draw(st.lists(st.integers(0, p - 1), min_size=5, max_size=5))
    B = tuple(tuple(R.constant(values[2 * i + j]) for j in range(2)) for i in range(2))
    c_identity = mat_scale(R.constant(values[4]), identity_matrix(R, 2))
    return ConnectionModule(tangent_algebroid(R), 2, (B, mat_add(mat_mul(B, B), c_identity)))


class TestKatzAgainstOracle:
    @settings(max_examples=50, deadline=None)
    @given(line_modules())
    def test_line_modules(self, M):
        assert check_abstract_action_oracle(p_curvature(M)).passed

    @settings(max_examples=20, deadline=None)
    @given(commuting_constant_pairs())
    def test_commuting_constant_pairs(self, M):
        assert validate_flatness(M).passed
        assert check_abstract_action_oracle(p_curvature(M)).passed


class TestRepresentOperator:
    def test_word_representation_is_multiplicative(self):
        rng = random.Random(32)
        R = ring(3)
        A = tangent_algebroid(R)
        M = scalar_module(A, parse_poly("x^2", R))
        d = ops.generator(A, 0)
        f = ops.from_poly(A, random_poly(rng, R, 2))
        lhs = represent_operator(M, d * f)
        rhs = represent_operator(M, d) * represent_operator(M, f)
        assert lhs == rhs

    def test_matrix_power_route_matches(self):
        R = ring(3)
        A = tangent_algebroid(R)
        M = scalar_module(A, parse_poly("x^2", R))
        d = ops.generator(A, 0)
        assert represent_operator(M, d**3) == M.generator_action(0) ** 3


class TestMatrixDiffOp:
    def test_reduce_action_drops_pth_derivatives(self):
        R = ring(3)
        weyl = tangent_algebroid(R)
        d = ops.generator(weyl, 0)
        op = MatrixDiffOp(weyl, [[d**3 + ops.one(weyl)]])
        reduced = op.reduce_action()
        assert reduced.order() == 0
        assert reduced.as_matrix() == ((R.one(),),)

    def test_reduced_operator_acts_identically(self):
        rng = random.Random(33)
        R = ring(3)
        weyl = tangent_algebroid(R)
        d = ops.generator(weyl, 0)
        op = MatrixDiffOp(weyl, [[(d + ops.from_poly(weyl, R.variable("x"))) ** 4]])
        reduced = op.reduce_action()
        for _ in range(10):
            s = (random_poly(rng, R, 5),)
            assert op.apply(s) == reduced.apply(s)
