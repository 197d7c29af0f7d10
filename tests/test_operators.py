import random

import pytest

from pcurv import operators as ops
from pcurv.algebroid import higgs_algebroid, shift_p_structure, tangent_algebroid
from pcurv.panels import random_poly, random_vector
from pcurv.poly import PolyRing, PrimeField, parse_poly


def ring(p, names=("x",)):
    return PolyRing(PrimeField(p), tuple(names))


def weyl(p, names=("x",)):
    return tangent_algebroid(ring(p, names))


def random_op(rng, A, degree=1, max_degree=2):
    out = ops.from_poly(A, random_poly(rng, A.ring, max_degree, 2))
    for _ in range(degree):
        out = out + ops.from_h_element(A, random_vector(rng, A.ring, A.rank, max_degree, 2))
    return out


class TestNormalForm:
    def test_canonical_commutation(self):
        A = weyl(3)
        d = ops.generator(A, 0)
        x = ops.from_poly(A, A.ring.variable("x"))
        assert str(d * x) == "x*e1 + 1"

    def test_euler_square(self):
        A = weyl(3)
        xd = ops.from_poly(A, A.ring.variable("x")) * ops.generator(A, 0)
        assert str(xd * xd) == "x^2*e1^2 + x*e1"

    def test_higgs_no_corrections(self):
        R = ring(3)
        H = higgs_algebroid(R, 2, [[R.zero()] * 2, [R.zero()] * 2])
        e1, e2 = ops.generator(H, 0), ops.generator(H, 1)
        prod = e1 * e2
        assert prod.terms == {(1, 1): R.one()}
        assert (e2 * e1) == prod

    def test_associativity_random(self):
        rng = random.Random(21)
        for A in (weyl(3, ("x", "y")), weyl(5)):
            for _ in range(12):
                a, b, c = (random_op(rng, A) for _ in range(3))
                assert (a * b) * c == a * (b * c)

    def test_filtration_and_top_symbol(self):
        rng = random.Random(22)
        A = weyl(3, ("x", "y"))
        for _ in range(12):
            a, b = random_op(rng, A), random_op(rng, A)
            prod = a * b
            assert prod.degree() <= a.degree() + b.degree()
            sym = a.top_symbol() * b.top_symbol()
            if not sym.is_zero():
                assert prod.top_symbol() == sym

    def test_mismatched_algebroids(self):
        with pytest.raises(ValueError):
            ops.generator(weyl(3), 0) * ops.generator(weyl(5), 0)


class TestPowers:
    def test_euler_cube(self):
        A = weyl(3)
        xd = ops.from_poly(A, A.ring.variable("x")) * ops.generator(A, 0)
        assert str(xd**3) == "x^3*e1^3 + x*e1"

    def test_cross_terms_cancel(self):
        A = weyl(3)
        d = ops.generator(A, 0)
        x = ops.from_poly(A, A.ring.variable("x"))
        assert str((d + x) ** 3) == "e1^3 + x^3"

    def test_zeroth_power(self):
        A = weyl(3)
        assert ops.generator(A, 0) ** 0 == ops.one(A)

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(23)
        A = weyl(5)
        a = random_op(rng, A)
        acc = ops.one(A)
        for k in range(4):
            assert a**k == acc
            acc = acc * a


class TestCommutator:
    def test_d_x(self):
        A = weyl(3)
        d = ops.generator(A, 0)
        x = ops.from_poly(A, A.ring.variable("x"))
        assert d.commutator(x) == ops.one(A)

    def test_against_derivative(self):
        A = weyl(3)
        d = ops.generator(A, 0)
        f = ops.from_poly(A, parse_poly("x^2", A.ring))
        assert d.commutator(f) == ops.from_poly(A, parse_poly("2*x", A.ring))

    def test_higgs_abelian(self):
        R = ring(3)
        H = higgs_algebroid(R, 2, [[R.zero()] * 2, [R.zero()] * 2])
        assert ops.generator(H, 0).commutator(ops.generator(H, 1)).is_zero()


class TestLiePolynomials:
    def test_against_function_p3(self):
        A = weyl(3)
        d = ops.generator(A, 0)
        f = ops.from_poly(A, parse_poly("x^2", A.ring))
        s1, s2 = ops.lie_polynomials(d, f)
        assert s1.is_zero()
        assert s2 == ops.from_poly(A, A.ring.constant(2))  # second derivative of x^2

    def test_coordinate(self):
        A = weyl(3)
        d = ops.generator(A, 0)
        x = ops.from_poly(A, A.ring.variable("x"))
        s1, s2 = ops.lie_polynomials(d, x)
        assert s1.is_zero() and s2.is_zero()  # d^2(x) = 0

    def test_zero_second_argument(self):
        A = weyl(5)
        d = ops.generator(A, 0)
        assert all(s.is_zero() for s in ops.lie_polynomials(d, ops.zero(A)))

    @pytest.mark.filterwarnings("ignore:p = 2")
    def test_jacobson_formula(self):
        rng = random.Random(24)
        for A in (weyl(3, ("x", "y")), weyl(5), weyl(2, ("x", "y"))):
            for _ in range(8):
                x, y = random_op(rng, A), random_op(rng, A)
                rhs = x**A.p + y**A.p
                for s in ops.lie_polynomials(x, y):
                    rhs = rhs + s
                assert (x + y) ** A.p == rhs

    def test_outputs_stay_in_degree_one(self):
        rng = random.Random(25)
        A = weyl(3, ("x", "y"))
        for _ in range(8):
            x, y = random_op(rng, A), random_op(rng, A)
            assert all(s.degree() <= 1 for s in ops.lie_polynomials(x, y))

    def test_rejects_higher_degree(self):
        A = weyl(3)
        d = ops.generator(A, 0)
        with pytest.raises(ValueError):
            ops.lie_polynomials(d * d, d)


class TestPCurvatureElement:
    def test_vanishes_on_functions(self):
        rng = random.Random(26)
        A = weyl(3)
        f = ops.from_poly(A, random_poly(rng, A.ring, 3))
        assert ops.p_curvature_element(A, f).is_zero()

    def test_coordinate_field(self):
        A = weyl(5)
        d = ops.generator(A, 0)
        value = ops.p_curvature_element(A, d)
        assert value == d**5
        assert value.top_symbol() == d.top_symbol() ** 5

    def test_higgs_trivial_structure(self):
        R = ring(3)
        H = higgs_algebroid(R, 1, [[R.zero()]])
        e = ops.generator(H, 0)
        assert ops.p_curvature_element(H, e) == e**3

    def test_centrality_enforced(self):
        from pcurv.algebroid import AlgebroidPresentation

        R = ring(3)
        A = tangent_algebroid(R)
        bad = AlgebroidPresentation(R, 1, A.bracket, A.anchor, ((R.one(),),))
        with pytest.raises(ValueError, match="not central"):
            ops.p_curvature_element(bad, ops.generator(bad, 0))

    def test_shifted_structure(self):
        R = ring(3)
        A = tangent_algebroid(R)
        sh = shift_p_structure(A, [parse_poly("x^3", R)])
        d = ops.generator(A, 0)
        value = ops.p_curvature_element(sh, d)
        assert value == d**3 - ops.from_poly(A, parse_poly("x^3", R))


class TestIsCentral:
    def test_pth_power_of_coordinate_field(self):
        A = weyl(3)
        assert (ops.generator(A, 0) ** 3).is_central()

    def test_x_not_central(self):
        A = weyl(3)
        assert not ops.from_poly(A, A.ring.variable("x")).is_central()

    def test_higgs_everything_central(self):
        rng = random.Random(27)
        R = ring(3)
        H = higgs_algebroid(R, 2, [[R.zero()] * 2, [R.zero()] * 2])
        assert random_op(rng, H, degree=2).is_central()


class TestTopSymbol:
    def test_degree_one(self):
        A = weyl(3)
        xd = ops.from_poly(A, A.ring.variable("x")) * ops.generator(A, 0)
        sym = (xd + ops.one(A)).top_symbol()
        assert sym.sym_degree == 1
        assert sym.terms == {(1,): A.ring.variable("x")}

    def test_degree_zero(self):
        A = weyl(3)
        f = parse_poly("x^2 + 1", A.ring)
        sym = ops.from_poly(A, f).top_symbol()
        assert sym.sym_degree == 0 and sym.terms == {(0,): f}


class TestEnvelopingBattery:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: tangent_algebroid(ring(3)),
            lambda: tangent_algebroid(ring(3, ("x", "y"))),
            lambda: tangent_algebroid(ring(5)),
            lambda: higgs_algebroid(ring(3), 1, [[ring(3).variable("x")]]),
            lambda: shift_p_structure(
                tangent_algebroid(ring(3)), [parse_poly("x^3", ring(3))]
            ),
        ],
    )
    def test_valid_structures_pass(self, factory):
        structure = factory()
        rep = ops.check_enveloping_p_structure(structure, trials=5)
        assert rep.passed, [c.name for c in rep.failures()]

    def test_corrupted_structure_fails_loudly(self):
        from pcurv.algebroid import AlgebroidPresentation

        R = ring(3)
        A = tangent_algebroid(R)
        bad = AlgebroidPresentation(R, 1, A.bracket, A.anchor, ((R.one(),),))
        rep = ops.check_enveloping_p_structure(bad, trials=3)
        failing = {c.name for c in rep.failures()}
        # both the ad-axiom and the centrality of p-curvature elements fire
        assert "ad_axiom_on_degree_one" in failing
        assert "p_curvature_element_central" in failing
