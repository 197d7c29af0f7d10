import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_operators import AFFINE

from pcurv import operators as ops
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


def fold_anchor_of(A, D):
    """Test oracle for ``AlgebroidPresentation.anchor_of``: the fold
    0 + g_1 delta(e_1) + ... through ``Derivation.scale`` and ``+``."""
    out = Derivation.zero(A.ring)
    for g, d in zip(D, A.anchor):
        if not g.is_zero():
            out = out + d.scale(g)
    return out


def fold_p_operation(A, D):
    """Test oracle for ``AlgebroidPresentation.p_operation``: the fold that
    starts from the first nonzero term g*e_a, mapped to
    g^p e_a^[p] + (g delta_a)^{p-1}(g) e_a, and adds each later term's image
    with Jacobson's correction terms between the partial sum and that term."""
    p = A.p
    terms = [(a, g) for a, g in enumerate(D) if not g.is_zero()]
    if not terms:
        return A.h_zero()
    zero = A.ring.zero()
    result = None
    partial = None
    for a, g in terms:
        scaled_anchor = A.anchor[a].scale(g)
        single = A.h_add(
            A.h_scale(g**p, A.p_op[a]),
            A.h_scale(scaled_anchor.apply_iter(g, p - 1), A.h_basis(a)),
        )
        term = A.h_scale(g, A.h_basis(a))
        if result is None:
            result, partial = single, term
            continue
        result = A.h_add(result, single)
        for _, s in A.lie_polynomials((zero, partial), (zero, term)):
            result = A.h_add(result, s)
        partial = A.h_add(partial, term)
    return result


def two_step_bracket(A, x, y):
    """Test oracle for ``AlgebroidPresentation.lambda1_bracket``: the
    function part delta_D(g) - delta_E(f) first, then [D, E] from the
    bracket table and the Leibniz terms, with both anchors formed again."""
    (f, D), (g, E) = x, y
    function = A.ring.zero()
    if not g.is_zero():
        function = A.anchor_of(D)(g)
    if not f.is_zero():
        function = function - A.anchor_of(E)(f)
    out = list(A.h_zero())
    delta_D, delta_E = A.anchor_of(D), A.anchor_of(E)
    for a, u in enumerate(D):
        for b, v in enumerate(E):
            for k, c in enumerate(A.bracket[a][b]):
                out[k] = out[k] + u * v * c
    for b, v in enumerate(E):
        out[b] = out[b] + delta_D(v)
    for a, u in enumerate(D):
        out[a] = out[a] - delta_E(u)
    return function, tuple(out)


def coordinate_action(delta, f):
    """Test oracle for ``Derivation.__call__``: sum_j c_j * d f/dx_j, every
    term formed and added from 0."""
    out = delta.ring.zero()
    for j, c in enumerate(delta.components):
        out = out + c * f.derive(j)
    return out


def random_anchor_algebroid(p, names, rank, seed):
    """Zero bracket and p-operation, and anchors with random components,
    some of them zero: a presentation of the right shape, not an algebroid."""
    rng = random.Random(seed)
    R = ring(p, names)
    zero_vec = (R.zero(),) * rank
    anchor = tuple(
        Derivation(R, tuple(random_poly(rng, R, 2) if rng.random() < 0.7 else R.zero() for _ in names))
        for _ in range(rank)
    )
    table = ((zero_vec,) * rank,) * rank
    return AlgebroidPresentation(R, rank, table, anchor, (zero_vec,) * rank)


ANCHOR_PRESENTATIONS = {
    "tangent-x-p3": tangent_algebroid(ring(3)),
    "tangent-x-p5": tangent_algebroid(ring(5)),
    "tangent-xy-p3": tangent_algebroid(ring(3, ("x", "y"))),
    "higgs-rank2-p3": higgs_algebroid(ring(3), 2, [[ring(3).variable("x"), ring(3).zero()]] * 2),
    "rees-xy-p3": rees_algebroid(tangent_algebroid(ring(3, ("x", "y")))),
    "random-anchor-xy-p5": random_anchor_algebroid(5, ("x", "y"), 3, seed=11),
    "random-anchor-x-p7": random_anchor_algebroid(7, ("x",), 2, seed=12),
}
UNDEFORMED = sorted(name for name, A in ANCHOR_PRESENTATIONS.items() if A.ring.rees_variable is None)
# with the non-abelian [e1, e2] = e1 of d/dx and x d/dx
BRACKET_PRESENTATIONS = {**ANCHOR_PRESENTATIONS, **{f"affine-x-p{p}": A for p, A in AFFINE.items()}}


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

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(ANCHOR_PRESENTATIONS)),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    @example(name="random-anchor-xy-p5", seed=0, zeros=[True, True, True])
    def test_matches_the_fold_from_the_first_term(self, name, seed, zeros):
        A = ANCHOR_PRESENTATIONS[name]
        rng = random.Random(seed)
        D = tuple(
            A.ring.zero() if zero else random_poly(rng, A.ring, 2)
            for zero, _ in zip(zeros, range(A.rank))
        )
        assert A.p_operation(D) == fold_p_operation(A, D)


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

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(UNDEFORMED), value=st.integers(0, 6))
    def test_fibers(self, name, value):
        # the fiber at t = c scales bracket and anchor by c and the
        # p-operation by c^(p-1): A itself at c = 1, all zero at c = 0
        A = ANCHOR_PRESENTATIONS[name]
        c = value % A.p
        fiber = specialize_t(rees_algebroid(A), c)
        assert fiber.ring == A.ring
        assert fiber.bracket == tuple(tuple(A.h_scale(A.ring.constant(c), v) for v in t) for t in A.bracket)
        assert fiber.anchor == tuple(d.scale(A.ring.constant(c)) for d in A.anchor)
        assert fiber.p_op == tuple(A.h_scale(A.ring.constant(c ** (A.p - 1)), v) for v in A.p_op)
        if c == 1:
            assert fiber == A
        if c == 0:
            assert all(x.is_zero() for table in fiber.bracket for v in table for x in v)
            assert all(d.is_zero() for d in fiber.anchor)
            assert all(x.is_zero() for v in fiber.p_op for x in v)

    @pytest.mark.parametrize("name", sorted(ANCHOR_PRESENTATIONS))
    def test_map_to_adjoins_a_central_variable(self, name):
        A = ANCHOR_PRESENTATIONS[name]
        big_ring, (s,) = A.ring.adjoin("s")
        big = A.map_to(big_ring)
        j = big_ring.variables.index(s)
        assert big.ring == big_ring and big.rank == A.rank
        assert big.bracket == tuple(tuple(tuple(c.map_to(big_ring) for c in v) for v in t) for t in A.bracket)
        assert big.p_op == tuple(tuple(c.map_to(big_ring) for c in v) for v in A.p_op)
        for d_big, d in zip(big.anchor, A.anchor):
            assert d_big.components[j].is_zero()
            assert d_big.components[:j] == tuple(c.map_to(big_ring) for c in d.components)

    def test_anchor_on_the_deformation_variable_rejected(self):
        R = ring(3, ("x", "t"), rees="t")
        zero_vec = (R.zero(),)
        with pytest.raises(ValueError, match="anchor acts on the deformation variable"):
            AlgebroidPresentation(R, 1, ((zero_vec,),), (Derivation.coordinate(R, 1),), (zero_vec,))

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
        assert str(ops.p_operation_lambda1(ops.generator(sh, 0))) == "x^3"

    def test_zero_shift_is_identity(self):
        R = ring(3)
        A = tangent_algebroid(R)
        sh = shift_p_structure(A, [R.zero()])
        assert ops.p_operation_lambda1(ops.generator(sh, 0)).is_zero()

    def test_non_central_shift_rejected(self):
        R = ring(3)
        A = tangent_algebroid(R)
        with pytest.raises(ValueError, match="not central"):
            shift_p_structure(A, [R.variable("x")])

    def test_already_shifted_rejected(self):
        R = ring(3)
        sh = shift_p_structure(tangent_algebroid(R), [parse_poly("x^3", R)])
        with pytest.raises(ValueError, match="already shifted"):
            shift_p_structure(sh, [parse_poly("x^6", R)])

    def test_presentation_checks_shift_length_and_ring(self):
        R, other = ring(3), ring(3, ("y",))
        A = tangent_algebroid(R)
        with pytest.raises(ValueError, match="one shift value per basis element"):
            replace(A, shift=((R.zero(), (R.zero(),)),) * 2)
        with pytest.raises(ValueError, match="shift value from a different ring"):
            replace(A, shift=((other.zero(), (R.zero(),)),))
        with pytest.raises(ValueError, match="shift value from a different ring"):
            replace(A, shift=((R.zero(), (other.zero(),)),))

    def test_map_to_carries_shift(self):
        R = ring(3)
        sh = shift_p_structure(tangent_algebroid(R), [parse_poly("x^3", R)])
        big_ring, _ = R.adjoin("s")
        big = sh.map_to(big_ring)
        assert big.shift == ((parse_poly("x^3", big_ring), (big_ring.zero(),)),)
        assert str(ops.p_operation_lambda1(ops.generator(big, 0))) == "x^3"

    def test_rees_and_specialize_refuse_shift(self):
        R = ring(3)
        sh = shift_p_structure(tangent_algebroid(R), [parse_poly("x^3", R)])
        with pytest.raises(ValueError, match="shifted p-structure"):
            rees_algebroid(sh)
        AR = rees_algebroid(tangent_algebroid(R))
        shifted_family = shift_p_structure(AR, [parse_poly("x^3", AR.ring)])
        with pytest.raises(ValueError, match="shifted p-structure"):
            specialize_t(shifted_family, 1)

    def test_shift_lives_only_at_enveloping_level(self):
        # the validators on H read the tables alone; the enveloping battery
        # sees the shift and still passes, since the shift is central
        R = ring(3)
        A = tangent_algebroid(R)
        sh = shift_p_structure(A, [parse_poly("x^3", R)])
        assert validate_algebroid(sh, trials=3) == validate_algebroid(A, trials=3)
        assert validate_p_structure(sh, trials=3) == validate_p_structure(A, trials=3)
        assert ops.check_enveloping_p_structure(sh, trials=3).passed


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
        assert anchor_generic_surjectivity(A) == (False, None)


class TestRoundTrip:
    def test_enveloping_symbols_reproduce_presentation(self):
        # reading bracket/anchor/[p] back through the enveloping algebra
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
            got = ops.p_operation_lambda1(ops.generator(A, a))
            f, coeffs = got.lambda1_parts()
            assert f.is_zero() and coeffs == A.p_op[a]


class TestAnchorAction:
    """``anchor_of`` builds the anchor of an element in one pass and a
    derivation acts term by term; both must equal the plain folds."""

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(ANCHOR_PRESENTATIONS)),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.lists(st.booleans(), min_size=3, max_size=3),
        zero_f=st.booleans(),
    )
    def test_anchor_of_and_action_match_the_folds(self, name, seed, zeros, zero_f):
        A = ANCHOR_PRESENTATIONS[name]
        rng = random.Random(seed)
        D = tuple(
            A.ring.zero() if zero else random_poly(rng, A.ring, 3)
            for zero, _ in zip(zeros, range(A.rank))
        )
        f = A.ring.zero() if zero_f else random_poly(rng, A.ring, 4, 4)
        delta = A.anchor_of(D)
        assert delta == fold_anchor_of(A, D)
        assert delta(f) == coordinate_action(delta, f)
        for d in A.anchor:
            assert d(f) == coordinate_action(d, f)


class TestLambda1Bracket:
    """``lambda1_bracket`` forms delta_D and delta_E once for its function
    and H parts; it must equal the two-step bracket."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(BRACKET_PRESENTATIONS)),
        seed=st.integers(0, 2**32 - 1),
        zeros=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_matches_the_two_step_bracket(self, name, seed, zeros):
        A = BRACKET_PRESENTATIONS[name]
        rng = random.Random(seed)
        draws = iter(zeros)

        def maybe_zero():
            return A.ring.zero() if next(draws) else random_poly(rng, A.ring, 3)

        x = (maybe_zero(), tuple(maybe_zero() for _ in range(A.rank)))
        y = (maybe_zero(), tuple(maybe_zero() for _ in range(A.rank)))
        assert A.lambda1_bracket(x, y) == two_step_bracket(A, x, y)
        assert A.h_bracket(x[1], y[1]) == two_step_bracket(A, x, y)[1]
