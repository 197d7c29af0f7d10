import itertools
import random
from dataclasses import replace
from functools import reduce
from operator import add, mul

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
    mat_map,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_str,
    mat_sub,
    p_curvature,
    represent_operator,
    validate_flatness,
)
from pcurv.panels import poly_panel, random_matrix, random_poly
from pcurv.poly import (
    DEGREE_LIMIT,
    Derivation,
    Poly,
    PolyRing,
    PrimeField,
    ResourceLimitError,
    katz_recurrence,
    parse_poly,
)


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
        op = M.actions[0]
        assert str(op) == "[e1 + x^2]"

    def test_left_multiplication(self):
        R = ring(3)
        x = R.variable("x")
        M = scalar_module(tangent_algebroid(R), x * x)
        op = represent_operator(M, ops.from_h_element(M.algebroid, (x,)))
        assert str(op) == "[x*e1 + x^3]"

    def test_operator_application(self):
        R = ring(3)
        M = scalar_module(tangent_algebroid(R), parse_poly("x^2", R))
        op = M.actions[0]
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
        M = scalar_module(sh, parse_poly("x^2", R))
        C = p_curvature(M)
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


@st.composite
def shifted_line_modules(draw):
    """A line module with e1^[p] shifted by a random phi in F_p[x^p]."""
    M = draw(line_modules())
    R, p = M.ring, M.ring.p
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2))
    phi = sum((R.monomial((p * e,), c) for e, c in enumerate(coeffs)), R.zero())
    return M, phi


@st.composite
def shifted_higgs_modules(draw):
    """A rank <= 2 module over a two-field Higgs algebroid on the line, with
    commuting fields (B, g B + h I) and degree-one shift values
    f_a + sum_k g_ak e_k (every such element is central there)."""
    p = draw(st.sampled_from([3, 5]))
    R = ring(p)
    linear = st.lists(st.integers(0, p - 1), min_size=2, max_size=2).map(
        lambda cs: R.monomial((1,), cs[0]) + R.constant(cs[1])
    )
    r = draw(st.integers(1, 2))
    H = higgs_algebroid(R, 2, [[draw(linear) for _ in range(2)] for _ in range(2)])
    B = tuple(tuple(draw(linear) for _ in range(r)) for _ in range(r))
    second = mat_add(mat_scale(draw(linear), B), mat_scale(draw(linear), identity_matrix(R, r)))
    M = ConnectionModule(H, r, (B, second))
    phi = [(draw(linear), (draw(linear), draw(linear))) for _ in range(2)]
    return M, phi


class TestKatzAgainstOracleShifted:
    @settings(max_examples=30, deadline=None)
    @given(shifted_line_modules())
    def test_line_modules_with_pth_power_shift(self, case):
        M, phi = case
        C = p_curvature(ConnectionModule(shift_p_structure(M.algebroid, [phi]), M.rank, M.matrices))
        assert check_abstract_action_oracle(C).passed
        assert check_p_linearity(C, poly_panel(M.ring, 1, max_degree=1)).passed
        shift = mat_scale(phi, identity_matrix(M.ring, M.rank))
        assert C.psi[0] == mat_sub(p_curvature(M).psi[0], shift)

    @settings(max_examples=30, deadline=None)
    @given(shifted_higgs_modules())
    def test_higgs_modules_with_degree_one_shift(self, case):
        M, phi = case
        H = M.algebroid
        values = [ops.from_lambda1(H, f, g) for f, g in phi]
        C = p_curvature(ConnectionModule(shift_p_structure(H, values), M.rank, M.matrices))
        assert check_abstract_action_oracle(C).passed
        assert check_p_linearity(C, poly_panel(M.ring, 1, max_degree=1)).passed
        for psi, plain, (f, g) in zip(C.psi, p_curvature(M).psi, phi):
            # phi_a acts on the module as f_a I + sum_k g_ak A_k
            action = mat_scale(f, identity_matrix(M.ring, M.rank))
            for g_k, matrix in zip(g, M.matrices):
                action = mat_add(action, mat_scale(g_k, matrix))
            assert psi == mat_sub(plain, action)


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
        assert represent_operator(M, d**3) == M.actions[0] ** 3


class TestMatrixDiffOp:
    def test_reduce_action_drops_pth_derivatives(self):
        R = ring(3)
        weyl = tangent_algebroid(R)
        d = ops.generator(weyl, 0)
        op = represent_operator(scalar_module(weyl, R.zero()), d**3 + ops.one(weyl))
        assert str(op) == "[e1^3 + 1]"
        reduced = op.reduce_action()
        assert reduced.order() == 0
        assert reduced.as_matrix() == ((R.one(),),)

    def test_reduced_operator_acts_identically(self):
        rng = random.Random(33)
        R = ring(3)
        weyl = tangent_algebroid(R)
        d = ops.generator(weyl, 0)
        element = (d + ops.from_poly(weyl, R.variable("x"))) ** 4
        op = represent_operator(scalar_module(weyl, R.zero()), element)
        assert str(op) == f"[{element}]"
        reduced = op.reduce_action()
        for _ in range(10):
            s = (random_poly(rng, R, 5),)
            assert op.apply(s) == reduced.apply(s)


# -- the polynomial-matrix layout against the entrywise Weyl-algebra product ---


def entries(P):
    """P as an r x r matrix of Weyl-algebra elements, entry (i, j) being
    sum_beta W_beta[i][j] d^beta."""
    cells = range(P.rank)
    return tuple(
        tuple(
            ops.OperatorElement(P.weyl, {b: w[i][j] for b, w in P.coeffs.items() if w[i][j]})
            for j in cells
        )
        for i in cells
    )


def entrywise_weyl_product(a, b):
    """The named oracle: the row-by-column product of two matrices of
    Weyl-algebra elements, each entry product a PBW normal-form product."""
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in zip(*b)) for row in a)


def poly_katz_recurrence(b, g, steps):
    """The named oracle of ``poly.katz_recurrence``: Katz's recurrence
    X_1 = b, X_{k+1} = delta(X_k) + b . X_k with delta = g d/dx, on Poly
    values, each product the row-by-column one of Poly's own * and +."""
    delta = Derivation(g.ring, (g,))
    x = b
    for _ in range(steps - 1):
        x = mat_add(mat_map(delta, x), entrywise_weyl_product(b, x))
    return x


def acting_part(x):
    """The terms of one Weyl-algebra element with every exponent below p."""
    p = x.algebroid.p
    return ops.OperatorElement(x.algebroid, {b: f for b, f in x.terms.items() if max(b) < p})


def poly_matrix(draw, R, r):
    exps = st.tuples(*[st.integers(0, 2)] * R.nvars)
    coeffs = st.dictionaries(exps, st.integers(0, R.p - 1), max_size=3)
    return tuple(tuple(Poly(R, draw(coeffs)) for _ in range(r)) for _ in range(r))


def weyl_operator(draw, weyl, r, max_order=2):
    m = weyl.rank
    betas = [b for b in itertools.product(range(max_order + 1), repeat=m) if sum(b) <= max_order]
    support = draw(st.sets(st.sampled_from(betas), max_size=3))
    return MatrixDiffOp(weyl, r, {b: poly_matrix(draw, weyl.ring, r) for b in support})


@st.composite
def weyl_operator_cases(draw):
    """Two operators of order <= 2 and rank 1-3 over F_p[x] or F_p[x, y],
    p in {3, 5}, the first one sometimes plus d_j^p W, whose Leibniz
    expansion has only vanishing middle binomials C(p, k); and a section."""
    p = draw(st.sampled_from([3, 5]))
    weyl = tangent_algebroid(ring(p, draw(st.sampled_from([("x",), ("x", "y")]))))
    r = draw(st.integers(1, 3))
    P = weyl_operator(draw, weyl, r)
    if draw(st.booleans()):
        j = draw(st.integers(0, weyl.rank - 1))
        beta = tuple(p if k == j else 0 for k in range(weyl.rank))
        P = P + MatrixDiffOp(weyl, r, {beta: poly_matrix(draw, weyl.ring, r)})
    Q = weyl_operator(draw, weyl, r)
    section = tuple(row[0] for row in poly_matrix(draw, weyl.ring, r))
    return P, Q, section


class TestMatrixDiffOpAgainstEntrywiseProduct:
    @settings(max_examples=60, deadline=None)
    @given(weyl_operator_cases())
    def test_product_commutator_and_reduction(self, case):
        P, Q, section = case
        a, b = entries(P), entries(Q)
        assert entries(P * Q) == entrywise_weyl_product(a, b)
        assert str(P * Q) == mat_str(entrywise_weyl_product(a, b))
        expected = mat_sub(entrywise_weyl_product(a, b), entrywise_weyl_product(b, a))
        assert entries(P.commutator(Q)) == expected
        assert entries(P.reduce_action()) == mat_map(acting_part, a)
        assert (P * Q).apply(section) == P.apply(Q.apply(section))

    @pytest.mark.parametrize("p", [3, 5])
    def test_pth_power_of_a_derivation_times_a_function(self, p):
        R = ring(p, ("x", "y"))
        weyl = tangent_algebroid(R)
        f = parse_poly(f"x^{p + 1}*y + x^2 + y", R)
        d_p = MatrixDiffOp(weyl, 1, {(p, 0): ((R.one(),),)})
        product = d_p * MatrixDiffOp.from_matrix(weyl, ((f,),))
        # d^p f = f d^p: C(p, k) = 0 mod p for 0 < k < p, and d^p(f) = 0
        assert product.coeffs == {(p, 0): ((f,),)}
        assert entries(product) == entrywise_weyl_product(entries(d_p), ((ops.from_poly(weyl, f),),))


# -- the packed Katz recurrence against the Poly loop -------------------------


def line_poly(R, coefficients):
    return Poly(R, {(e,): c for e, c in enumerate(coefficients)})


@st.composite
def katz_cases(draw):
    """B of rank 2-4 over F_p[x], p in {2, 3, 5, 7, 13}, entries of degree
    0-3 (possibly zero), and g zero or not, of degree 0-3."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    R = ring(p)
    r = draw(st.integers(2, 4))
    coefficients = st.lists(st.integers(0, p - 1), min_size=1, max_size=4)
    b = tuple(tuple(line_poly(R, draw(coefficients)) for _ in range(r)) for _ in range(r))
    g = line_poly(R, draw(coefficients)) if draw(st.booleans()) else R.zero()
    return b, g, p


def unreduced_first_step(b, g):
    """The coefficients of X_2 = g b' + b . b as plain ints, before any
    reduction mod p: the digits the packed recurrence sums first."""
    p = g.ring.p

    def coefficients(f):
        return [f.terms.get((e,), 0) for e in range(f.total_degree() + 1)]

    def product(u, v):
        out = [0] * (len(u) + len(v))
        for i, c in enumerate(u):
            for j, d in enumerate(v):
                out[i + j] += c * d
        return out

    def total(*polys):
        return [sum(column) for column in itertools.zip_longest(*polys, fillvalue=0)]

    r = len(b)
    return [
        total(
            product(coefficients(g), [e * c % p for e, c in enumerate(coefficients(b[i][j]))][1:]),
            *(product(coefficients(b[i][k]), coefficients(b[k][j])) for k in range(r)),
        )
        for i in range(r)
        for j in range(r)
    ]


class TestPackedKatzRecurrence:
    @settings(max_examples=150, deadline=None)
    @given(katz_cases())
    def test_matches_poly_loop(self, case):
        b, g, p = case
        assert katz_recurrence(b, g, p) == poly_katz_recurrence(b, g, p)

    @pytest.mark.parametrize(
        "r, d_b, d_g, widest",
        # G = 0: the x^3 digit of b . b is 3 * 4 * 100^2, the bound itself.
        # G != 0: without its d_g + 1 the bound would fit two bytes, but
        # b . b + g b' reaches 2 * 3 * 100^2 + 100 * (100 + 99) at x^2.
        [(3, 3, -1, 120_000), (2, 2, 3, 79_900)],
    )
    def test_worst_case_digits_do_not_carry(self, r, d_b, d_g, widest):
        """Dense entries at p = 101 with every coefficient p - 1.  The
        width is the least whole number of bytes above
        (r (d_b + 1) + d_g + 1) (p - 1)^2, three here; the largest digit of
        the first step needs all three, so a width one byte narrower
        carries on these inputs."""
        p = 101
        R = ring(p)
        entry = line_poly(R, [p - 1] * (d_b + 1))
        b = tuple(tuple(entry for _ in range(r)) for _ in range(r))
        g = line_poly(R, [p - 1] * (d_g + 1))
        assert max(map(max, unreduced_first_step(b, g))) == widest
        assert 2**16 <= widest <= (r * (d_b + 1) + d_g + 1) * (p - 1) ** 2 < 2**24
        for steps in (2, 3, 5, p):
            assert katz_recurrence(b, g, steps) == poly_katz_recurrence(b, g, steps)

    def test_needs_a_one_variable_ring(self):
        R = ring(3, ("x", "y"))
        b = ((R.one(), R.zero()), (R.zero(), R.one()))
        with pytest.raises(ValueError, match="one-variable"):
            katz_recurrence(b, R.zero(), 3)

    def test_product_degree_past_the_bound_raises_at_the_first_step(self):
        R = ring(3)
        big = R.monomial((DEGREE_LIMIT // 2 + 1,))
        b = ((big, R.one()), (R.zero(), big))
        for recurrence in (katz_recurrence, poly_katz_recurrence):
            with pytest.raises(ResourceLimitError, match="product degree exceeds"):
                recurrence(b, R.zero(), 2)

    def test_derivative_degree_past_the_bound_raises_at_its_step(self):
        """X_2 = g + x^2 on the diagonal, of degree d_g = 600000: the first
        step stays within the bound, the second needs g X_2' of degree
        2 d_g - 1."""
        R = ring(7)
        x, g = R.variable("x"), R.monomial((600_000,))
        b = ((x, R.zero()), (R.zero(), x))
        assert katz_recurrence(b, g, 2) == poly_katz_recurrence(b, g, 2)
        for recurrence in (katz_recurrence, poly_katz_recurrence):
            with pytest.raises(ResourceLimitError, match="product degree exceeds"):
                recurrence(b, g, 3)
