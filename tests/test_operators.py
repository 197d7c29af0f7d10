import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcurv import operators as ops
from pcurv.algebroid import (
    AlgebroidPresentation,
    higgs_algebroid,
    rees_algebroid,
    shift_p_structure,
    tangent_algebroid,
    validate_algebroid,
    validate_p_structure,
)
from pcurv.panels import random_poly, random_vector
from pcurv.poly import Derivation, Poly, PolyRing, PrimeField, parse_poly


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

    def test_generators_print_apart_from_a_coordinate_named_e1(self):
        A = weyl(3, ("e1",))
        x, d = ops.from_poly(A, A.ring.variable("e1")), ops.generator(A, 0)
        assert str(x * d) == "e1*e10"
        assert str(d * x) == "e1*e10 + 1"
        assert str(x * x) == "e1^2" and str(d * d) == "e10^2"

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
        assert all(s.is_zero() for s in ops.lie_polynomials(d, ops.OperatorElement(A, {})))

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
        assert ops.p_curvature_element(f).is_zero()

    def test_coordinate_field(self):
        A = weyl(5)
        d = ops.generator(A, 0)
        value = ops.p_curvature_element(d)
        assert value == d**5
        assert value.top_symbol() == d.top_symbol() ** 5

    def test_higgs_trivial_structure(self):
        R = ring(3)
        H = higgs_algebroid(R, 1, [[R.zero()]])
        e = ops.generator(H, 0)
        assert ops.p_curvature_element(e) == e**3

    def test_centrality_enforced(self):
        from pcurv.algebroid import AlgebroidPresentation

        R = ring(3)
        A = tangent_algebroid(R)
        bad = AlgebroidPresentation(R, 1, A.bracket, A.anchor, ((R.one(),),))
        with pytest.raises(ValueError, match="not central"):
            ops.p_curvature_element(ops.generator(bad, 0))

    def test_shifted_structure(self):
        R = ring(3)
        A = tangent_algebroid(R)
        sh = shift_p_structure(A, [parse_poly("x^3", R)])
        d = ops.generator(sh, 0)
        value = ops.p_curvature_element(d)
        assert value == d**3 - ops.from_poly(sh, parse_poly("x^3", R))


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
        assert sym.ring.variables == ("x", "e1")
        assert sym == parse_poly("x*e1", sym.ring)

    def test_degree_zero(self):
        A = weyl(3)
        f = parse_poly("x^2 + 1", A.ring)
        sym = ops.from_poly(A, f).top_symbol()
        assert sym == f.map_to(sym.ring)


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


def affine_algebroid(p):
    """e1 = d/dx and e2 = x d/dx over F_p[x]: [e1, e2] = e1, e1^[p] = 0 and
    e2^[p] = e2.  Its bracket is not zero, so normal forms go through the
    bracket rewrite e2 e1 -> e1 e2 - e1."""
    R = ring(p)
    zero, one = R.zero(), R.one()
    bracket = (((zero, zero), (one, zero)), ((-one, zero), (zero, zero)))
    anchor = (Derivation(R, (one,)), Derivation(R, (R.variable("x"),)))
    return AlgebroidPresentation(R, 2, bracket, anchor, ((zero, zero), (zero, one)))


AFFINE = {p: affine_algebroid(p) for p in (3, 5)}


@st.composite
def affine_operators(draw):
    """Three elements of filtration degree <= 2 over the same affine
    algebroid, with coefficients of degree <= 2 in x."""
    A = AFFINE[draw(st.sampled_from(sorted(AFFINE)))]
    coeff = st.dictionaries(
        st.tuples(st.integers(0, 2)), st.integers(1, A.p - 1), min_size=1, max_size=2
    )
    betas = [(i, j) for i in range(3) for j in range(3 - i)]

    def element():
        support = draw(st.sets(st.sampled_from(betas), min_size=1, max_size=3))
        return ops.OperatorElement(A, {beta: Poly(A.ring, draw(coeff)) for beta in support})

    return element(), element(), element()


class TestNonAbelianPresentation:
    @pytest.mark.parametrize("p", sorted(AFFINE))
    def test_presentation_is_valid(self, p):
        A = AFFINE[p]
        assert validate_algebroid(A).passed
        assert validate_p_structure(A).passed
        assert ops.check_enveloping_p_structure(A, trials=3).passed

    def test_bracket_rewrite(self):
        A = AFFINE[3]
        e1, e2 = ops.generator(A, 0), ops.generator(A, 1)
        assert e2 * e1 == e1 * e2 - e1
        assert str(e2 * e1) == "e1*e2 + 2*e1"

    @settings(max_examples=40, deadline=None)
    @given(affine_operators())
    def test_pbw_associativity(self, elements):
        a, b, c = elements
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=40, deadline=None)
    @given(affine_operators())
    def test_top_symbol_is_multiplicative(self, elements):
        a, b, _ = elements
        # gr of the enveloping algebra is the polynomial ring F_p[x][e1, e2],
        # a domain, so the symbol of a product never drops
        assert (a * b).top_symbol() == a.top_symbol() * b.top_symbol()


# -- the term-by-term product, kept as the oracle for the collecting one ------------


def _added(terms, more):
    """terms + more on {beta: Poly} dicts, one term at a time, each zero sum
    dropped as it appears."""
    out = dict(terms)
    for beta, f in more.items():
        s = out.get(beta)
        s = f if s is None else s + f
        if s.is_zero():
            out.pop(beta, None)
        else:
            out[beta] = s
    return out


def _scaled(f, terms):
    return {beta: fg for beta, g in terms.items() if not (fg := f * g).is_zero()}


def _generator_times(A, a, terms):
    """e_a * terms: f (e_a e^beta) + delta_a(f) e^beta for each term."""
    out = {}
    for beta, f in terms.items():
        out = _added(out, _scaled(f, _generator_times_monomial(A, a, beta)))
        out = _added(out, {beta: A.anchor[a](f)})
    return out


def _generator_times_monomial(A, a, beta):
    """e_a * e^beta, reordered by e_a e_b = e_b e_a + [e_a, e_b] for b < a."""
    support = [c for c, k in enumerate(beta) if k]
    if not support or a <= support[0]:
        return {tuple(k + (c == a) for c, k in enumerate(beta)): A.ring.one()}
    b = support[0]
    rest = tuple(k - (c == b) for c, k in enumerate(beta))
    out = _generator_times(A, b, _generator_times_monomial(A, a, rest))
    bracket = {
        tuple(int(k == c) for k in range(A.rank)): g
        for c, g in enumerate(A.bracket[a][b])
        if not g.is_zero()
    }
    return _added(out, _product(A, bracket, {rest: A.ring.one()}))


def _product(A, x, y):
    out = {}
    for beta, f in x.items():
        acc = y
        for a in reversed([a for a, k in enumerate(beta) for _ in range(k)]):
            acc = _generator_times(A, a, acc)
        out = _added(out, _scaled(f, acc))
    return out


def added_pbw_product(x, y):
    """x * y in normal form, with every partial sum built by adding one
    term at a time to a fresh copy: the product as it was computed before
    the operators module collected each sum in one pass."""
    return ops.OperatorElement(x.algebroid, _product(x.algebroid, x.terms, y.terms))


PBW_PRESENTATIONS = {
    "tangent-x-p5": tangent_algebroid(ring(5)),
    "tangent-xy-p3": tangent_algebroid(ring(3, ("x", "y"))),
    "higgs-rank2-p3": higgs_algebroid(ring(3), 2, [[ring(3).variable("x"), ring(3).zero()]] * 2),
    "rees-x-p3": rees_algebroid(tangent_algebroid(ring(3))),
    "shifted-x-p3": shift_p_structure(tangent_algebroid(ring(3)), [parse_poly("x^3", ring(3))]),
    "affine-x-p3": AFFINE[3],
}


@st.composite
def pbw_cases(draw, presentations=PBW_PRESENTATIONS):
    """A presentation of ``presentations``, two elements of filtration
    degree <= 2 and a function, with coefficients of degree <= 2 in each
    ring variable."""
    A = presentations[draw(st.sampled_from(sorted(presentations)))]
    coeff = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * A.ring.nvars), st.integers(1, A.p - 1), min_size=1, max_size=3
    )
    betas = [beta for beta in itertools.product(range(3), repeat=A.rank) if sum(beta) <= 2]

    def element():
        support = draw(st.sets(st.sampled_from(betas), max_size=3))
        return ops.OperatorElement(A, {beta: Poly(A.ring, draw(coeff)) for beta in support})

    return A, element(), element(), Poly(A.ring, draw(coeff))


T5, AFF3 = PBW_PRESENTATIONS["tangent-x-p5"], AFFINE[3]


class TestAddedPbwProduct:
    @settings(max_examples=60, deadline=None)
    @given(pbw_cases())
    # d x = x d + 1, through the anchor term; e2 e1 = e1 e2 - e1, through the bracket term
    @example((T5, ops.generator(T5, 0), ops.from_poly(T5, T5.ring.variable("x")), T5.ring.one()))
    @example((AFF3, ops.generator(AFF3, 1), ops.generator(AFF3, 0), AFF3.ring.one()))
    def test_product_sum_and_scale_match_the_oracle(self, case):
        A, a, b, f = case
        assert a * b == added_pbw_product(a, b)
        # a + (-a) cancels every term
        for y in (b, -a):
            assert a + y == ops.OperatorElement(A, _added(a.terms, y.terms))
        assert a.scale(f) == ops.OperatorElement(A, _scaled(f, a.terms))
