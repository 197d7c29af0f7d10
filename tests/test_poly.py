import itertools
import random
import tracemalloc
import warnings
from functools import reduce
from operator import add, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcurv.poly import (
    DEGREE_LIMIT,
    LITERAL_DIGITS,
    NESTING_LIMIT,
    Derivation,
    NotDescendable,
    Poly,
    PolyParseError,
    PolyRing,
    PrimeField,
    ResourceLimitError,
    _digits,
    _from_digits,
    _reduce,
    _slots,
    charpoly_coefficients,
    det,
    kronecker_mat_mul,
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


class _CharParser:
    """The character-position parser the token parser replaced, kept as the
    oracle ``char_parser``: it walks ``src`` one character at a time."""

    def __init__(self, src, ring):
        self.src = src
        self.ring = ring
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise PolyParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and "0" <= self.src[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        if self.pos - start > LITERAL_DIGITS:
            self.pos = start
            self.error(f"integer literal longer than {LITERAL_DIGITS} digits")
        return int(self.src[start : self.pos])

    def take_name(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.src) and (self.src[self.pos].isalpha() or self.src[self.pos] == "_"):
            self.pos += 1
            while self.pos < len(self.src) and (
                self.src[self.pos].isalnum() or self.src[self.pos] == "_"
            ):
                self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.src[start : self.pos]

    def parse_expr(self):
        sign = 1
        ch = self.peek()
        if ch in ("+", "-"):
            self.pos += 1
            sign = -1 if ch == "-" else 1
        value = self.parse_term()
        if sign < 0:
            value = -value
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.parse_term()
            elif ch == "-":
                self.pos += 1
                value = value - self.parse_term()
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.parse_factor()
        return value

    def parse_factor(self):
        ch = self.peek()
        if ch == "(":
            if self.depth == NESTING_LIMIT:
                self.error(f"parentheses nested deeper than {NESTING_LIMIT}")
            self.pos += 1
            self.depth += 1
            value = self.parse_expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return value
        if "0" <= ch <= "9":
            return self.ring.constant(self.take_int())
        if ch.isalpha() or ch == "_":
            at = self.pos
            name = self.take_name()
            if name not in self.ring.variables:
                self.pos = at
                self.error(f"unknown variable {name!r}")
            value = self.ring.variable(name)
            if self.peek() == "^":
                self.pos += 1
                return value ** self.take_int()
            return value
        self.error("expected a factor")


def char_parser(src, ring):
    """Test oracle for ``parse_poly``: the same grammar, read character by
    character with explicit whitespace skipping."""
    parser = _CharParser(src, ring)
    value = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(src):
        parser.error("trailing input")
    return value


def parse_outcome(parse, src, R):
    """The value, or the message and position of the error, of one parse."""
    try:
        return parse(src, R)
    except PolyParseError as err:
        return str(err), err.position
    except ResourceLimitError as err:
        return str(err)


# single characters and whole tokens: digits of other scripts, a letter
# outside ASCII, whitespace other than a space, names known and unknown
PARSE_PIECES = list("0123456789xyz_+-*^() \t\n²٣３é½") + ["x", "y", "_z", "12", "x2", "(x + 1)"]


@st.composite
def square_matrices(draw):
    """A random n x n polynomial matrix, n in 1..4, over F_p[x] or
    F_p[x, y], with or without a deformation variable t."""
    p = draw(st.sampled_from([3, 5, 7]))
    names = ("x", "y")[: draw(st.integers(1, 2))]
    R = ring(p, names + ("t",), "t") if draw(st.booleans()) else ring(p, names)
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 2)] * R.nvars)
    entries = st.dictionaries(exponents, st.integers(1, p - 1), max_size=3)
    return [[Poly(R, draw(entries)) for _ in range(n)] for _ in range(n)]


# -- the tuple-keyed kernel, the packed kernel's oracle ---------------------
#
# The loops Poly ran when monomials were exponent tuples, on plain
# dictionaries from exponent tuples to coefficients in 1..p-1.


def tuple_add(p, a, b):
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def tuple_mul(p, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            s = (out.get(e, 0) + ca * cb) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def tuple_derive(p, a, j):
    out = {}
    for e, c in a.items():
        k = e[j]
        cc = (c * k) % p
        if k == 0 or cc == 0:
            continue
        e2 = e[:j] + (k - 1,) + e[j + 1 :]
        s = (out.get(e2, 0) + cc) % p
        if s:
            out[e2] = s
        else:
            out.pop(e2, None)
    return out


def tuple_frobenius(p, ri, a):
    return {tuple(k if j == ri else k * p for j, k in enumerate(e)): c for e, c in a.items()}


def tuple_pth_root(p, ri, a):
    """The root's terms, or the offending (exponents, coefficient) pairs in
    exponent order."""
    bad, out = [], {}
    for e, c in sorted(a.items()):
        if any(k % p for j, k in enumerate(e) if j != ri):
            bad.append((e, c))
        else:
            out[tuple(k if j == ri else k // p for j, k in enumerate(e))] = c
    return tuple(bad) if bad else out


def tuple_split(variables, a, names):
    idxs = [variables.index(n) for n in names]
    keep = [j for j in range(len(variables)) if j not in idxs]
    parts = {}
    for e, c in a.items():
        parts.setdefault(tuple(e[j] for j in idxs), {})[tuple(e[j] for j in keep)] = c
    return parts


@st.composite
def kernel_pairs(draw):
    """Two random polynomials over one ring of 1-5 coordinates, with or
    without a deformation variable t; exponents up to 80000, so fields far
    from empty, and coefficients not yet reduced mod p."""
    p = draw(st.sampled_from([3, 5, 7, 101]))
    names = ("x", "y", "z", "u", "v")[: draw(st.integers(1, 5))]
    R = ring(p, names + ("t",), "t") if draw(st.booleans()) else ring(p, names)
    exponents = st.tuples(*[st.integers(0, 12) | st.integers(0, 80_000)] * R.nvars)
    terms = st.dictionaries(exponents, st.integers(-3 * p, 3 * p), max_size=8)
    return Poly(R, draw(terms)), Poly(R, draw(terms))


class TestPackedKernel:
    """The packed kernel against the tuple-keyed one, term for term."""

    @settings(max_examples=200, deadline=None)
    @given(kernel_pairs())
    def test_ring_operations_match_tuple_oracle(self, pair):
        f, g = pair
        p, F, G = f.ring.p, dict(f.terms), dict(g.terms)
        assert dict((f * g).terms) == tuple_mul(p, F, G)
        assert dict((f + g).terms) == tuple_add(p, F, G)
        assert dict((-f).terms) == {e: p - c for e, c in F.items()}
        for j in range(f.ring.nvars):
            assert dict(f.derive(j).terms) == tuple_derive(p, F, j)

    @settings(max_examples=100, deadline=None)
    @given(kernel_pairs())
    def test_products_by_one_match_tuple_oracle(self, pair):
        f, g = pair
        p, one = f.ring.p, f.ring.one()
        F, G, ONE = dict(f.terms), dict(g.terms), dict(one.terms)
        for product in (f * one, one * f, f * 1, 1 * f):
            assert dict(product.terms) == tuple_mul(p, F, ONE)
        assert dict((one * one).terms) == ONE
        assert dict((f * g).terms) == tuple_mul(p, F, G)

    @settings(max_examples=200, deadline=None)
    @given(kernel_pairs())
    def test_frobenius_and_pth_root_match_tuple_oracle(self, pair):
        f, _ = pair
        p, ri = f.ring.p, f.ring.rees_index
        expected = tuple_frobenius(p, ri, dict(f.terms))
        if max(map(sum, expected), default=0) > DEGREE_LIMIT:
            with pytest.raises(ResourceLimitError):
                f.frobenius()
            candidates = [f]
        else:
            assert dict(f.frobenius().terms) == expected
            candidates = [f, f.frobenius()]
        for g in candidates:
            root, oracle = g.pth_root(), tuple_pth_root(p, ri, dict(g.terms))
            if isinstance(oracle, tuple):
                assert isinstance(root, NotDescendable) and root.offending == oracle
            else:
                assert dict(root.terms) == oracle

    @settings(max_examples=100, deadline=None)
    @given(kernel_pairs(), st.data())
    def test_split_variables_matches_tuple_oracle(self, pair, data):
        f, _ = pair
        variables = f.ring.variables
        assume(len(variables) > 1)
        names = data.draw(
            st.lists(st.sampled_from(variables), min_size=1, max_size=len(variables) - 1, unique=True)
        )
        parts = {k: dict(v.terms) for k, v in f.split_variables(*names).items()}
        assert parts == tuple_split(variables, dict(f.terms), names)

    @settings(max_examples=200, deadline=None)
    @given(kernel_pairs())
    def test_terms_view_degree_and_print_order(self, pair):
        f, _ = pair
        R, F = f.ring, dict(f.terms)
        assert Poly(R, f.terms) == f and len(f.terms) == len(F)
        assert set(f.terms) == set(F) and all(f.terms[e] == c for e, c in F.items())
        assert f.total_degree() == max(map(sum, F), default=-1)
        graded = sorted(F.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
        assert str(f) == (" + ".join(str(Poly(R, {e: c})) for e, c in graded) or "0")

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from([3, 5, 7]),
        st.dictionaries(st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(-50, 50)),
    )
    def test_constructor_reduces_coefficients(self, p, terms):
        reduced = {e: c % p for e, c in terms.items() if c % p}
        assert dict(Poly(ring(p, ("x", "y")), terms).terms) == reduced


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

    def test_nesting_bound(self):
        R = ring(3)
        deep = "(" * NESTING_LIMIT + "x" + ")" * NESTING_LIMIT
        assert parse_poly(deep, R) == R.variable("x")
        with pytest.raises(PolyParseError, match="nested deeper") as err:
            parse_poly("(" + deep + ")", R)
        assert err.value.position == NESTING_LIMIT
        # the bound is on depth, not on the number of groups
        assert parse_poly("*".join(["(x)"] * (2 * NESTING_LIMIT)), R) == R.variable("x") ** 400

    @pytest.mark.parametrize("template", ["{}*x", "x^{}"])
    def test_literal_length_bound(self, template):
        R = ring(3)
        # the bound counts digits, leading zeros too
        assert parse_poly(template.format("0" * (LITERAL_DIGITS - 1) + "2"), R) == parse_poly(
            template.format("2"), R
        )
        with pytest.raises(PolyParseError, match="integer literal longer") as err:
            parse_poly(template.format("0" * LITERAL_DIGITS + "2"), R)
        assert err.value.position == template.index("{")

    @pytest.mark.parametrize(
        "src, position, message",
        [
            ("x^²", 2, "expected an integer"),
            ("x^3²", 3, "trailing input"),
            ("٣*x", 0, "expected a factor"),
            ("x + ３", 4, "expected a factor"),
        ],
    )
    def test_only_ascii_digits_are_integers(self, src, position, message):
        """The grammar's INT is 0-9: a superscript or a non-ASCII decimal digit
        is a syntax error at its position, not an int() failure or a digit."""
        with pytest.raises(PolyParseError, match=message) as err:
            parse_poly(src, ring(5))
        assert err.value.position == position

    @pytest.mark.parametrize("src, position", [("", 0), ("   ", 3), ("+", 1), ("-", 1)])
    def test_missing_factor_is_reported_where_input_ends(self, src, position):
        """The end of input is no sign: an empty entry fails at its end, not
        one past it."""
        with pytest.raises(PolyParseError, match="expected a factor") as err:
            parse_poly(src, ring(3))
        assert err.value.position == position

    @pytest.mark.parametrize("src", ["x^2 + 1", "2*x*y + 4*y", "0", "x^6 + 2"])
    def test_str_round_trip(self, src):
        R = ring(5, ("x", "y"))
        f = parse_poly(src, R)
        assert parse_poly(str(f), R) == f

    @settings(max_examples=150, deadline=None)
    @given(printable_polys())
    def test_str_round_trip_random(self, f):
        assert parse_poly(str(f), f.ring) == f

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(PARSE_PIECES), max_size=24).map("".join))
    def test_matches_the_character_parser(self, src):
        """The token parser returns the oracle's value, or raises its error
        with the same message at the same position."""
        R = ring(5, ("x", "y", "_z"))
        assert parse_outcome(parse_poly, src, R) == parse_outcome(char_parser, src, R)

    def test_tokens_are_read_lazily(self):
        """A long entry is lexed one token at a time: no token list is held."""
        src = "x" + " + x*y" * 30_000
        R = ring(5, ("x", "y"))
        tracemalloc.start()
        try:
            value = parse_poly(src, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == R.variable("x")
        assert peak < 1_000_000


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


@st.composite
def derivations_and_polys(draw):
    """A derivation of F_p[x, y, z] (first 1-3 coordinates) whose components
    are each 1, another constant, 0 or a random polynomial, and a random
    polynomial to apply it to."""
    p = draw(st.sampled_from([3, 5, 7]))
    R = ring(p, ("x", "y", "z")[: draw(st.integers(1, 3))])
    exponents = st.tuples(*[st.integers(0, 4)] * R.nvars)
    polys = st.dictionaries(exponents, st.integers(1, p - 1), max_size=4).map(
        lambda terms: Poly(R, terms)
    )
    constants = st.integers(0, p - 1).map(R.constant)
    components = [draw(st.just(R.one()) | constants | polys) for _ in range(R.nvars)]
    return Derivation(R, components), draw(polys)


class TestDerivation:
    @settings(max_examples=80, deadline=None)
    @given(derivations_and_polys())
    def test_action_is_sum_of_component_times_partial(self, case):
        nu, f = case
        expected = f.ring.zero()
        for j, comp in enumerate(nu.components):
            expected = expected + comp * f.derive(j)
        assert nu(f) == expected

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

    @settings(max_examples=100, deadline=None)
    @given(printable_polys())
    def test_pth_root_inverts_frobenius_random(self, f):
        assert f.frobenius().pth_root() == f

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(printable_polys(), printable_polys().map(Poly.frobenius)))
    def test_frobenius_inverts_pth_root_random(self, g):
        R, p = g.ring, g.ring.p
        ordinary = R.coordinate_indices()
        failing = {e for e in g.terms if any(e[j] % p for j in ordinary)}
        root = g.pth_root()
        if failing:
            assert isinstance(root, NotDescendable)
            assert {e for e, _ in root.offending} == failing
        else:
            assert root.frobenius() == g


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
        big, names = R.adjoin("tau")
        assert names == ("tau",) and big.variables == ("x", "tau")
        f = parse_poly("x^2 + 1", R)
        assert f.map_to(big) == parse_poly("x^2 + 1", big)

    def test_adjoin_picks_fresh_names(self):
        R = ring(3, ("y1", "lam", "lam0"))
        big, names = R.adjoin("y1", "y2", "y1", "lam")
        assert names == ("y10", "y2", "y11", "lam1")
        assert big.variables == R.variables + names


class TestDet:
    def test_2x2(self):
        R = ring(5)
        x = R.variable("x")
        m = [[x, R.one()], [R.constant(2), x]]
        assert det(m) == x * x - 2

    def test_3x3_against_permutation_oracle(self):
        rng = random.Random(15)
        R = ring(5, ("x", "y"))
        m = [[random_poly(rng, R, 2, 2) for _ in range(3)] for _ in range(3)]
        assert det(m) == leibniz_det(m)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices())
    def test_against_permutation_expansion_random(self, m):
        assert det(m) == leibniz_det(m)


@st.composite
def charpoly_matrices(draw):
    """A random n x n polynomial matrix, n in 1..5, over F_p with 1-3
    coordinates, with or without a deformation variable t."""
    p = draw(st.sampled_from([3, 5, 7, 101]))
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    R = ring(p, names + ("t",), "t") if draw(st.booleans()) else ring(p, names)
    n = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, 2)] * R.nvars)
    entries = st.dictionaries(exponents, st.integers(1, p - 1), max_size=3)
    return [[Poly(R, draw(entries)) for _ in range(n)] for _ in range(n)]


def charpoly_oracle(m):
    """det(lam I - M) by Leibniz, over the ring with lam adjoined, and the
    polynomial sum_k c_k lam^(n-k) built from ``charpoly_coefficients``."""
    n = len(m)
    ext, (name,) = m[0][0].ring.adjoin("lam")
    lam = ext.variable(name)
    shifted = [
        [(lam if i == j else ext.zero()) - x.map_to(ext) for j, x in enumerate(row)]
        for i, row in enumerate(m)
    ]
    coefficients = charpoly_coefficients(m)
    assert len(coefficients) == n + 1 and coefficients[0] == m[0][0].ring.one()
    expanded = reduce(add, (c.map_to(ext) * lam ** (n - k) for k, c in enumerate(coefficients)))
    return expanded, leibniz_det(shifted)


class TestCharpolyCoefficients:
    @settings(max_examples=80, deadline=None)
    @given(charpoly_matrices())
    def test_det_and_charpoly_match_leibniz_oracle(self, m):
        assert det(m) == leibniz_det(m)
        expanded, oracle = charpoly_oracle(m)
        assert expanded == oracle

    @pytest.mark.parametrize(
        "p, names, n, d",
        [
            (3, ("x",), 6, 6),
            (3, ("x", "y"), 5, 3),
            (3, ("x", "y", "z"), 4, 2),
            (101, ("x",), 5, 8),
            (101, ("x", "y"), 4, 2),
            (101, ("x", "y", "z"), 3, 1),
        ],
    )
    def test_worst_case_digits_do_not_carry(self, p, names, n, d):
        """Dense entries with every coefficient p - 1: entry (i, j) has
        every monomial of x-degree at most d - (i + j) % 2 and of degree
        at most (i + 2j) % 3 in each other variable, so the entries differ
        and the matrix is not of rank 1.  The digit width is derived from
        the number of keys, the x-degree and p; a width one byte narrower
        carries on these inputs."""
        R = ring(p, names)

        def entry(i, j):
            ranges = [range(d - (i + j) % 2 + 1)] + [range((i + 2 * j) % 3 + 1)] * (R.nvars - 1)
            return Poly(R, dict.fromkeys(itertools.product(*ranges), p - 1))

        m = [[entry(i, j) for j in range(n)] for i in range(n)]
        assert det(m) == leibniz_det(m)
        expanded, oracle = charpoly_oracle(m)
        assert expanded == oracle

    def test_shape_and_ring_errors(self):
        x, y = ring(3).variable("x"), ring(5).variable("x")
        with pytest.raises(ValueError, match="not square"):
            charpoly_coefficients([[x, x]])
        with pytest.raises(ValueError, match="empty matrix"):
            charpoly_coefficients([])
        with pytest.raises(ValueError, match="different rings"):
            charpoly_coefficients([[x, x], [x, y]])

    def test_degree_past_the_bound_raises_before_packing(self):
        R = ring(3, ("x", "y"))
        big = R.monomial((DEGREE_LIMIT // 2, 1))
        m = [[big, R.one()], [R.zero(), big]]
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="product degree exceeds"):
                charpoly_coefficients(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def entrywise_mat_mul(a, b):
    """The oracle of the Kronecker kernel: each result entry is the sum of
    the entry products of a row and a column, through Poly's own * and +."""
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in zip(*b)) for row in a)


@st.composite
def line_matrix_pairs(draw):
    """Two random r x r matrices over F_p[x], r in 1..6, entries of degree
    up to 40; entries, and whole matrices, may be zero."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 101]))
    r = draw(st.integers(1, 6))
    R = ring(p)
    d = draw(st.integers(0, 40))
    terms = st.dictionaries(st.tuples(st.integers(0, d)), st.integers(0, p - 1), max_size=d + 1)
    entries = st.just({}) | terms if draw(st.booleans()) else terms
    return tuple(
        tuple(tuple(Poly(R, draw(entries)) for _ in range(r)) for _ in range(r)) for _ in range(2)
    )


class TestKroneckerMatMul:
    @settings(max_examples=100, deadline=None)
    @given(line_matrix_pairs())
    def test_matches_entrywise_oracle(self, pair):
        a, b = pair
        zero = tuple(tuple(x.ring.zero() for x in row) for row in a)
        assert kronecker_mat_mul(a, b) == entrywise_mat_mul(a, b)
        assert kronecker_mat_mul(zero, b) == zero == kronecker_mat_mul(a, zero)

    @pytest.mark.parametrize(
        "p, r, d", [(2, 5, 50), (3, 4, 15), (5, 6, 9), (13, 3, 1), (101, 6, 5), (101, 1, 40)]
    )
    def test_worst_case_digit_does_not_carry(self, p, r, d):
        """Dense entries with every coefficient p - 1: the coefficient of
        x^d in every result entry is r (d + 1) (p - 1)^2, the bound the
        digit width is chosen for (255 fits one byte at p = 2, r = 5,
        d = 50; 256 does not at p = 3, r = 4, d = 15)."""
        R = ring(p)
        f = Poly(R, {(e,): p - 1 for e in range(d + 1)})
        a = tuple(tuple(f for _ in range(r)) for _ in range(r))
        product = kronecker_mat_mul(a, a)
        assert product == entrywise_mat_mul(a, a)
        assert product[0][0].terms.get((d,), 0) == r * (d + 1) * (p - 1) ** 2 % p

    def test_entries_from_different_rings_raise(self):
        x3, x5 = ring(3).variable("x"), ring(5).variable("x")
        with pytest.raises(ValueError, match="different rings"):
            kronecker_mat_mul(((x3, x3), (x3, x3)), ((x3, x3), (x3, x5)))
        xy = ring(3, ("x", "y")).variable("x")
        with pytest.raises(ValueError, match="one-variable"):
            kronecker_mat_mul(((xy,),), ((xy,),))

    def test_degree_past_the_bound_raises_before_packing(self):
        R = ring(3)
        big = R.monomial((DEGREE_LIMIT // 2 + 1,))
        a = ((big, R.one()), (R.zero(), big))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="product degree exceeds"):
                kronecker_mat_mul(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One packed entry would take 3 bytes per degree, about 1.5 MB.
        assert peak < 100_000


class TestDigitConversions:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 9), st.data())
    def test_every_width_matches_the_int_arithmetic(self, nbytes, data):
        """Digits of 1, 2, 4 and 8 bytes convert through ``struct``, the
        other widths one by one; every width gives the digits of plain int
        arithmetic."""
        digits = data.draw(st.lists(st.integers(0, 2 ** (8 * nbytes) - 1), max_size=20))
        p = data.draw(st.sampled_from([2, 3, 101, 65537]))
        n = sum(d << (8 * nbytes * i) for i, d in enumerate(digits))
        assert _from_digits(digits, nbytes) == n
        count = -(-n.bit_length() // (8 * nbytes))
        assert _digits(n, nbytes, p) == [d % p for d in digits[:count]]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4]), st.data())
    def test_reduce_gives_each_int_one_slot(self, nbytes, data):
        """``_reduce`` reduces a list of ints in one conversion: zeros,
        ints of different lengths and ints whose top digits reduce to 0.
        Each int fills one slot of ``size`` digits, its own ``_digits``
        padded with zeros, and ``_slots`` reads back the reduced ints."""
        p = data.draw(st.sampled_from([2, 3, 13, 101, 65537]))
        top = 2 ** (8 * nbytes) - 1
        digit = st.integers(0, top)
        vanishing = st.integers(0, top // p).map(lambda k: k * p)
        lists = st.just([]) | st.builds(
            add, st.lists(digit, max_size=5), st.lists(vanishing, min_size=1, max_size=3)
        )
        digit_lists = data.draw(st.lists(lists, max_size=8))
        sums = [sum(d << (8 * nbytes * i) for i, d in enumerate(ds)) for ds in digit_lists]
        digits, size = _reduce(sums, nbytes, p)
        assert len(digits) == size * len(sums)
        for k, n in enumerate(sums):
            own = _digits(n, nbytes, p)
            assert digits[k * size : (k + 1) * size] == own + [0] * (size - len(own))
        reduced = [sum(d % p << (8 * nbytes * i) for i, d in enumerate(ds)) for ds in digit_lists]
        assert _slots(digits, size, nbytes) == reduced


def leibniz_det(m):
    """The determinant as the signed sum over permutations (Leibniz)."""
    n = len(m)
    total = m[0][0].ring.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = m[0][0].ring.one()
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + (-prod if inversions % 2 else prod)
    return total


class TestResourceLimits:
    def test_monomial_past_the_bound_raises(self):
        R, R2 = ring(3), ring(3, ("x", "y"))
        with pytest.raises(ResourceLimitError):
            R.monomial((DEGREE_LIMIT + 1,))
        with pytest.raises(ResourceLimitError):
            Poly(R2, {(DEGREE_LIMIT, 1): 1})
        assert dict(R2.monomial((DEGREE_LIMIT, 0)).terms) == {(DEGREE_LIMIT, 0): 1}
        assert dict(R2.monomial((0, DEGREE_LIMIT)).terms) == {(0, DEGREE_LIMIT): 1}

    def test_product_past_the_bound_raises(self):
        R = ring(3)
        x = R.variable("x")
        top = x**DEGREE_LIMIT
        assert top.total_degree() == DEGREE_LIMIT
        with pytest.raises(ResourceLimitError):
            top * x

    def test_frobenius_past_the_bound_raises(self):
        x = ring(3).variable("x")
        with pytest.raises(ResourceLimitError):
            (x ** (DEGREE_LIMIT // 2)).frobenius()
        R = ring(3, ("x", "t"), rees="t")
        t = R.variable("t") ** (DEGREE_LIMIT // 2)
        assert t.frobenius() == t

    def test_map_to_keeps_a_monomial_at_the_bound(self):
        R = ring(3, ("x", "y"))
        big = ring(3, ("z", "y", "x"))
        f = R.monomial((DEGREE_LIMIT - 7, 7))
        assert f.map_to(big) == big.monomial((0, 7, DEGREE_LIMIT - 7))


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

    def test_p2_builds_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PrimeField(2)

    def test_inverse(self):
        F = PrimeField(7)
        for a in range(1, 7):
            assert (a * F.inv(a)) % 7 == 1
