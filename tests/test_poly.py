import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcurv.poly import (
    Derivation,
    NotDescendable,
    Poly,
    PolyParseError,
    PolyRing,
    PrimeField,
    det,
    parse_poly,
)


def ring(p, names=("x",), rees=None):
    return PolyRing(PrimeField(p), tuple(names), rees)


def random_poly(rng, R, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = [0] * R.nvars
        budget = rng.randrange(max_degree + 1)
        for _ in range(budget):
            e[rng.randrange(R.nvars)] += 1
        c = rng.randrange(R.p)
        if c:
            terms[tuple(e)] = c
    out = R.zero()
    for e, c in terms.items():
        out = out + R.monomial(e, c)
    return out


@st.composite
def printable_polys(draw):
    """A random polynomial in 1-3 coordinates, with or without a
    deformation variable t."""
    p = draw(st.sampled_from([3, 5, 7]))
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    R = ring(p, names + ("t",), "t") if draw(st.booleans()) else ring(p, names)
    exponents = st.tuples(*[st.integers(0, 12)] * R.nvars)
    return Poly(R, draw(st.dictionaries(exponents, st.integers(1, p - 1), max_size=8)))


class TestParse:
    def test_reduces_mod_p(self):
        R = ring(3)
        assert str(parse_poly("x^2 + 4", R)) == "x^2 + 1"

    def test_zero(self):
        R = ring(3)
        assert parse_poly("0", R).is_zero()
        assert parse_poly("0", R).terms == {}

    def test_subtraction_wraps(self):
        R = ring(5, ("x", "y"))
        assert str(parse_poly("2*x*y - y", R)) == "2*x*y + 4*y"

    def test_parentheses(self):
        R = ring(7, ("x", "y"))
        f = parse_poly("(x + y)*(x + y)", R)
        assert f == parse_poly("x^2 + 2*x*y + y^2", R)

    def test_power_only_after_variable(self):
        R = ring(7, ("x", "y"))
        with pytest.raises(PolyParseError):
            parse_poly("(x + y)^2", R)

    def test_leading_minus(self):
        R = ring(5)
        assert parse_poly("-x", R) == -R.variable("x")

    def test_syntax_error_reports_position(self):
        R = ring(3)
        with pytest.raises(PolyParseError) as err:
            parse_poly("x + * 2", R)
        assert err.value.position == 4

    def test_unknown_variable(self):
        R = ring(3)
        with pytest.raises(PolyParseError, match="unknown variable 'z'"):
            parse_poly("x + z", R)

    def test_trailing_garbage(self):
        R = ring(3)
        with pytest.raises(PolyParseError):
            parse_poly("x 2", R)

    @pytest.mark.parametrize("src", ["x^2 + 1", "2*x*y + 4*y", "0", "x^6 + 2"])
    def test_str_round_trip(self, src):
        R = ring(5, ("x", "y"))
        f = parse_poly(src, R)
        assert parse_poly(str(f), R) == f

    @settings(max_examples=150, deadline=None)
    @given(printable_polys())
    def test_str_round_trip_random(self, f):
        assert parse_poly(str(f), f.ring) == f


class TestRingAxioms:
    def test_random_triples(self):
        rng = random.Random(7)
        R = ring(5, ("x", "y"))
        for _ in range(60):
            f, g, h = (random_poly(rng, R) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + g == g + f
            assert f * g == g * f

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(8)
        R = ring(3, ("x", "y"))
        for _ in range(20):
            f = random_poly(rng, R)
            acc = R.one()
            for k in range(5):
                assert f**k == acc
                acc = acc * f

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            ring(3).one() + ring(5).one()


class TestDerive:
    def test_pth_power_of_variable_derives_to_zero(self):
        R = ring(3)
        assert parse_poly("x^3", R).derive(0).is_zero()

    def test_square(self):
        R = ring(3)
        assert parse_poly("x^2", R).derive(0) == parse_poly("2*x", R)

    def test_two_variables(self):
        R = ring(5, ("x", "y"))
        f = parse_poly("x*y + y^2", R)
        assert f.derive(1) == parse_poly("x + 2*y", R)

    def test_leibniz_random(self):
        rng = random.Random(9)
        R = ring(5, ("x", "y"))
        for _ in range(40):
            f, g = random_poly(rng, R), random_poly(rng, R)
            for j in range(2):
                assert (f * g).derive(j) == f.derive(j) * g + f * g.derive(j)


class TestDerivation:
    def test_coordinate_field(self):
        R = ring(3)
        d = Derivation.coordinate(R, 0)
        assert d(parse_poly("x^2", R)) == parse_poly("2*x", R)

    def test_euler_operator(self):
        R = ring(7)
        euler = Derivation(R, (R.variable("x"),))
        for m in range(1, 6):
            f = parse_poly(f"x^{m}", R)
            assert euler(f) == m * f

    def test_zero_derivation(self):
        R = ring(5, ("x", "y"))
        z = Derivation.zero(R)
        assert z(parse_poly("x*y + 3", R)).is_zero()

    def test_pth_power_of_coordinate_field_vanishes(self):
        R = ring(3)
        assert Derivation.coordinate(R, 0).pth_power().is_zero()

    def test_pth_power_of_euler_is_euler(self):
        for p in (3, 5):
            R = ring(p)
            euler = Derivation(R, (R.variable("x"),))
            assert euler.pth_power() == euler

    def test_pth_power_against_brute_force_oracle(self):
        # oracle: apply the derivation p times to each coordinate
        R = ring(3)
        nu = Derivation(R, (parse_poly("x^2", R),))
        x = R.variable("x")
        expected = nu(nu(nu(x)))
        assert expected.is_zero()  # frozen oracle output
        assert nu.pth_power().components[0] == expected

    def test_pth_power_full_action(self):
        # the p-th power must agree with p-fold application on arbitrary
        # inputs, not just on coordinates
        rng = random.Random(10)
        for p in (3, 5):
            R = ring(p, ("x", "y"))
            for _ in range(10):
                nu = Derivation(R, (random_poly(rng, R), random_poly(rng, R)))
                f = random_poly(rng, R)
                assert nu.pth_power()(f) == nu.apply_iter(f, p)

    def test_commutator_is_derivation(self):
        rng = random.Random(11)
        R = ring(5, ("x", "y"))
        a = Derivation(R, (random_poly(rng, R), random_poly(rng, R)))
        b = Derivation(R, (random_poly(rng, R), random_poly(rng, R)))
        c = a.commutator(b)
        f, g = random_poly(rng, R), random_poly(rng, R)
        assert c(f * g) == c(f) * g + f * c(g)
        assert c(f) == a(b(f)) - b(a(f))


class TestFrobenius:
    def test_simple(self):
        R = ring(3)
        assert parse_poly("x^2 + 2", R).frobenius() == parse_poly("x^6 + 2", R)

    def test_constant_fixed(self):
        R = ring(5)
        c = R.constant(4)
        assert c.frobenius() == c

    def test_deformation_variable_fixed(self):
        R = ring(3, ("x", "t"), rees="t")
        assert parse_poly("x*t", R).frobenius() == parse_poly("x^3*t", R)

    def test_freshmans_dream(self):
        rng = random.Random(12)
        for p in (3, 5):
            R = ring(p, ("x", "y"))
            for _ in range(25):
                f = random_poly(rng, R)
                assert f**p == f.frobenius()

    def test_pth_root_simple(self):
        R = ring(3)
        assert parse_poly("x^6 + 2", R).pth_root() == parse_poly("x^2 + 2", R)

    def test_pth_root_failure_carries_witness(self):
        R = ring(3)
        out = parse_poly("x^3 - x^2", R).pth_root()
        assert isinstance(out, NotDescendable)
        assert out.witness() == "2*x^2"

    def test_pth_root_of_zero(self):
        R = ring(3)
        assert R.zero().pth_root() == R.zero()

    def test_round_trip(self):
        rng = random.Random(13)
        R = ring(3, ("x", "y"))
        for _ in range(40):
            g = random_poly(rng, R)
            assert g.frobenius().pth_root() == g

    def test_round_trip_with_deformation_variable(self):
        rng = random.Random(14)
        R = ring(3, ("x", "t"), rees="t")
        for _ in range(40):
            g = random_poly(rng, R)
            assert g.frobenius().pth_root() == g


@st.composite
def split_cases(draw):
    """A random polynomial over F_5[x, y, t] (t the deformation variable)
    and one or two of its variables, in random order."""
    R = ring(5, ("x", "y", "t"), rees="t")
    exponents = st.tuples(*[st.integers(0, 4)] * R.nvars)
    terms = draw(st.dictionaries(exponents, st.integers(1, 4), max_size=8))
    names = draw(st.lists(st.sampled_from(R.variables), min_size=1, max_size=2, unique=True))
    return Poly(R, terms), tuple(names)


class TestSubstitution:
    def test_split_variable(self):
        R = ring(3, ("x", "t"))
        f = parse_poly("x^2*t + 2*t^2 + x", R)
        parts = f.split_variable("t")
        small = ring(3, ("x",))
        assert parts[0] == parse_poly("x", small)
        assert parts[1] == parse_poly("x^2", small)
        assert parts[2] == parse_poly("2", small)

    def test_substitute_constant(self):
        R = ring(3, ("x", "t"))
        f = parse_poly("x^2*t + 2*t^2 + x", R)
        small = ring(3, ("x",))
        assert f.substitute_constant("t", 1) == parse_poly("x^2 + x + 2", small)
        assert f.substitute_constant("t", 0) == parse_poly("x", small)

    def test_without_keeps_order_and_drops_flag_with_variable(self):
        R = ring(3, ("x", "y", "t"), rees="t")
        assert R.without("y") == ring(3, ("x", "t"), rees="t")
        assert R.without("t", "x") == ring(3, ("y",))
        with pytest.raises(ValueError):
            R.without("z")

    @settings(max_examples=100, deadline=None)
    @given(split_cases(), st.integers(-6, 6))
    def test_split_variables_recombine_and_agree_with_substitution(self, case, value):
        f, names = case
        R, p = f.ring, f.ring.p
        first, S = names[0], R.without(names[0])
        total, substituted = R.zero(), S.zero()
        for key, coeff in f.split_variables(*names).items():
            assert coeff.ring == R.without(*names) and not coeff.is_zero()
            exps = dict(zip(names, key))
            total = total + coeff.map_to(R) * R.monomial([exps.get(v, 0) for v in R.variables])
            rest = S.monomial([exps.get(v, 0) for v in S.variables], pow(value, exps[first], p))
            substituted = substituted + coeff.map_to(S) * rest
        assert total == f
        assert f.substitute_constant(first, value) == substituted

    def test_map_to_extension(self):
        R = ring(3)
        big = R.extended("tau")
        f = parse_poly("x^2 + 1", R)
        assert f.map_to(big) == parse_poly("x^2 + 1", big)


class TestDet:
    def test_2x2(self):
        R = ring(5)
        x = R.variable("x")
        m = [[x, R.one()], [R.constant(2), x]]
        assert det(m) == x * x - 2

    def test_3x3_against_permutation_oracle(self):
        import itertools

        rng = random.Random(15)
        R = ring(5, ("x", "y"))
        m = [[random_poly(rng, R, 2, 2) for _ in range(3)] for _ in range(3)]
        total = R.zero()
        for perm in itertools.permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = R.one()
            for i in range(3):
                prod = prod * m[i][perm[i]]
            total = total + (prod if sign > 0 else -prod)
        assert det(m) == total


class TestResourceLimits:
    def test_power_degree_bound(self):
        from pcurv.poly import ResourceLimitError

        R = ring(3)
        f = parse_poly("x^2", R)
        with pytest.raises(ResourceLimitError):
            f ** (10**6)

    def test_product_degree_bound(self):
        from pcurv.poly import ResourceLimitError

        R = ring(3)
        f = R.monomial((600_000,))
        with pytest.raises(ResourceLimitError):
            f * f


class TestField:
    def test_p_must_be_prime(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_p2_warns(self):
        with pytest.warns(UserWarning):
            PrimeField(2)

    def test_inverse(self):
        F = PrimeField(7)
        for a in range(1, 7):
            assert (a * F.inv(a)) % 7 == 1
