"""The two power loops, checked on every element type that uses them
against the plain k-fold product: :func:`pcurv.poly.power`
(square-and-multiply) behind polynomials and polynomial matrices, and
:func:`pcurv.poly.left_power` (one left factor at a time) behind operators
and matrices of operators, where ``power`` serves as the named oracle."""

import functools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcurv import operators as ops
from pcurv.algebroid import tangent_algebroid
from pcurv.connection import (
    ConnectionModule,
    MatrixDiffOp,
    identity_matrix,
    mat_mul,
    mat_pow,
    represent_operator,
)
from pcurv.poly import Poly, PolyRing, PrimeField, left_power, power
from test_operators import AFFINE

exponents = st.integers(0, 8)


def fold(x, k, one, mul=operator.mul):
    """one * x * ... * x with k factors, multiplied from the left."""
    return functools.reduce(mul, [x] * k, one)


def poly_in(draw, R, max_exp=2, max_terms=3):
    exps = st.tuples(*[st.integers(0, max_exp)] * R.nvars)
    return Poly(R, draw(st.dictionaries(exps, st.integers(1, R.p - 1), max_size=max_terms)))


@st.composite
def polys(draw):
    names = ("x", "y", "z")[: draw(st.integers(1, 3))]
    R = PolyRing(PrimeField(draw(st.sampled_from([3, 5, 7]))), names)
    return poly_in(draw, R)


@st.composite
def operators(draw):
    """f + g e1 + h e1^2 over the tangent algebroid of the line, p in {3, 5}."""
    A = tangent_algebroid(PolyRing(PrimeField(draw(st.sampled_from([3, 5]))), ("x",)))
    terms = {(k,): poly_in(draw, A.ring, 1, 2) for k in range(draw(st.integers(1, 3)))}
    return ops.OperatorElement(A, {b: f for b, f in terms.items() if f})


@st.composite
def poly_matrices(draw):
    R = PolyRing(PrimeField(draw(st.sampled_from([3, 5]))), ("x",))
    r = draw(st.integers(1, 3))
    return R, tuple(tuple(poly_in(draw, R) for _ in range(r)) for _ in range(r))


@st.composite
def generator_actions(draw):
    """nabla_{e_1} of a random rank <= 2 connection on the line."""
    R, matrix = draw(poly_matrices().filter(lambda case: len(case[1]) <= 2))
    return ConnectionModule(tangent_algebroid(R), len(matrix), (matrix,)).actions[0]


@settings(max_examples=60, deadline=None)
@given(polys(), exponents)
def test_poly_power(f, k):
    assert f**k == fold(f, k, f.ring.one())


@settings(max_examples=40, deadline=None)
@given(operators(), exponents)
def test_operator_power(x, k):
    one = ops.one(x.algebroid)
    assert x**k == fold(x, k, one) == power(x, k, one)


@settings(max_examples=30, deadline=None)
@given(operators(), exponents)
def test_symbol_power(x, k):
    s = x.top_symbol()
    one = ops.one(x.algebroid).top_symbol()
    assert s**k == fold(s, k, one)


@settings(max_examples=30, deadline=None)
@given(poly_matrices(), exponents)
def test_mat_pow(case, k):
    R, a = case
    assert mat_pow(a, k, R) == fold(a, k, identity_matrix(R, len(a)), mat_mul)


@settings(max_examples=20, deadline=None)
@given(generator_actions(), exponents)
def test_matrix_operator_power(op, k):
    one = MatrixDiffOp.identity(op.weyl, op.rank)
    assert op**k == fold(op, k, one) == power(op, k, one)


@st.composite
def affine_modules(draw):
    """A rank <= 2 module with random (not necessarily flat) matrices over
    the two-generator presentation e1 = d/dx, e2 = x d/dx of
    ``test_operators``, and an element of filtration degree <= 4 there."""
    A = AFFINE[draw(st.sampled_from(sorted(AFFINE)))]
    r = draw(st.integers(1, 2))
    matrices = tuple(
        tuple(tuple(poly_in(draw, A.ring, 2, 2) for _ in range(r)) for _ in range(r))
        for _ in range(2)
    )
    betas = [(i, j) for i in range(5) for j in range(5 - i)]
    support = draw(st.sets(st.sampled_from(betas), min_size=1, max_size=3))
    terms = {beta: poly_in(draw, A.ring, 2, 2) for beta in support}
    op = ops.OperatorElement(A, {b: f for b, f in terms.items() if f})
    return ConnectionModule(A, r, matrices), op


@settings(max_examples=30, deadline=None)
@given(affine_modules())
def test_represent_operator_words(case):
    """Each normal-form word f e1^i e2^j acts as f (nabla_1)^i (nabla_2)^j,
    with the powers taken by square-and-multiply."""
    M, op = case
    one = MatrixDiffOp.identity(M.weyl, M.rank)
    expected = one - one
    for (i, j), f in op.terms.items():
        word = power(M.actions[0], i, one) * power(M.actions[1], j, one)
        expected = expected + word.scale(f)
    assert represent_operator(M, op) == expected


def test_negative_exponents_raise():
    R = PolyRing(PrimeField(3), ("x",))
    x = R.variable("x")
    M = ConnectionModule(tangent_algebroid(R), 1, (((x,),),))
    d = ops.generator(M.algebroid, 0)
    for element in (x, d, d.top_symbol(), M.actions[0]):
        with pytest.raises(ValueError, match="negative exponent"):
            element ** -1
    with pytest.raises(ValueError, match="negative exponent"):
        mat_pow(((x,),), -1, R)
    for loop in (power, left_power):
        with pytest.raises(ValueError, match="negative exponent"):
            loop(x, -1, R.one())
