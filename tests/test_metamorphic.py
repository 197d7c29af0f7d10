"""Metamorphic relations between modules.

Every other check of the p-curvature looks at one module at a time.  The
relations here compare two modules whose p-curvatures, invariants and
descent are tied by the mathematics (Katz, *Nilpotent connections and the
monodromy theorem*, 1970, section 5), so each one checks the whole
pipeline, from ``p_curvature`` to ``descend_invariants``, against a second
run of it:

- Gauge: for g invertible over R, A'_a = g^-1 A_a g + g^-1 delta_a(g)
  gives psi'_a = g^-1 psi_a g, with the same invariants and the same
  descent table.
- Direct sum: the matrices of M + N are block-diagonal, so is psi, and
  e_k(M + N) = sum_i e_i(M) e_(k-i)(N).

Both run on line modules of rank 1-3 (the packed route) and on a rank-2
module on the plane (the ``Poly`` route).  Two more relations carry the
function part phi_a of a shifted p-structure (0 when it is not shifted),
since psi_a subtracts the action phi_a * I of e_a^[p]'s function part:

- Dual: A_a^v = -A_a^T gives psi_a^v = -psi_a^T - 2 phi_a I.
- Rank-1 twist: adding c_a I to A_a, the matrix of a rank-1 module L,
  gives psi(M (x) L)_a = psi(M)_a + (psi(L)_a + phi_a) I.

They run on line modules and on modules over ``shifted_p_structure``'s
algebroid, where phi = x^3.
"""

import pathlib
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from pcurv.algebroid import tangent_algebroid
from pcurv.cli import load_scenario
from pcurv.connection import (
    ConnectionModule,
    identity_matrix,
    mat_add,
    mat_map,
    mat_mul,
    mat_scale,
    mat_sub,
    p_curvature,
)
from pcurv.hitchin import descend_invariants, hitchin_invariants
from pcurv.poly import Poly, PolyRing, PrimeField


def ring(p, names):
    return PolyRing(PrimeField(p), tuple(names))


def polys(R, degree):
    """Polynomials over R of total degree at most ``degree``, possibly 0."""
    exponents = st.tuples(*[st.integers(0, degree)] * R.nvars).filter(lambda e: sum(e) <= degree)
    return st.dictionaries(exponents, st.integers(0, R.p - 1), max_size=3).map(
        lambda terms: Poly(R, terms)
    )


@st.composite
def line_modules(draw):
    """A module of rank 1-3 over the tangent algebroid of F_p[x],
    p in {3, 5, 7}, with entries of degree at most 2."""
    R = ring(draw(st.sampled_from([3, 5, 7])), ("x",))
    r = draw(st.integers(1, 3))
    entry = polys(R, 2)
    matrix = tuple(tuple(draw(entry) for _ in range(r)) for _ in range(r))
    return ConnectionModule(tangent_algebroid(R), r, (matrix,))


def plane_module(draw, R):
    """A rank-2 module on the plane R = F_p[x, y]: A_x = a(x) S and
    A_y = b(y) S for a constant matrix S, flat since dA_y/dx = dA_x/dy = 0
    and the two matrices commute (``crystalline_2d`` has a = x^2, b = y and
    S the swap)."""
    x_only, y_only = ring(R.p, ("x",)), ring(R.p, ("y",))
    a = draw(polys(x_only, 2)).map_to(R)
    b = draw(polys(y_only, 2)).map_to(R)
    s = tuple(tuple(R.constant(draw(st.integers(0, R.p - 1))) for _ in range(2)) for _ in range(2))
    return ConnectionModule(tangent_algebroid(R), 2, (mat_scale(a, s), mat_scale(b, s)))


@st.composite
def module_pairs(draw):
    """Two modules over one algebroid: both on the line, or both on the
    plane over F_3[x, y] or F_5[x, y]."""
    if draw(st.booleans()):
        M = draw(line_modules())
        R = M.ring
        r = draw(st.integers(1, 2))
        matrix = tuple(tuple(draw(polys(R, 2)) for _ in range(r)) for _ in range(r))
        return M, ConnectionModule(M.algebroid, r, (matrix,))
    R = ring(draw(st.sampled_from([3, 5])), ("x", "y"))
    return plane_module(draw, R), plane_module(draw, R)


def elementary(R, r, i, j, f):
    """I + f E_ij, with inverse I - f E_ij for i != j."""
    return tuple(
        tuple(f if (k, l) == (i, j) else R.constant(int(k == l)) for l in range(r))
        for k in range(r)
    )


@st.composite
def gauge_cases(draw):
    """A module (on the line or the plane) and a gauge g with its inverse:
    g is a diagonal of nonzero constants times up to three elementary
    matrices I + f E_ij (i != j), f of degree at most 2, whose inverses
    I - f E_ij are polynomial too."""
    if draw(st.booleans()):
        M = draw(line_modules())
    else:
        M = plane_module(draw, ring(draw(st.sampled_from([3, 5])), ("x", "y")))
    R, r = M.ring, M.rank
    scales = [draw(st.integers(1, R.p - 1)) for _ in range(r)]
    g = tuple(tuple(R.constant(c * (i == j)) for j in range(r)) for i, c in enumerate(scales))
    g_inv = tuple(
        tuple(R.constant(pow(c, -1, R.p) * (i == j)) for j in range(r)) for i, c in enumerate(scales)
    )
    pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
    for _ in range(draw(st.integers(0, 3)) if pairs else 0):
        i, j = draw(st.sampled_from(pairs))
        f = draw(polys(R, 2))
        g = mat_mul(g, elementary(R, r, i, j, f))
        g_inv = mat_mul(elementary(R, r, i, j, -f), g_inv)
    return M, g, g_inv


def gauge_transform(M, g, g_inv):
    """The module with A'_a = g^-1 A_a g + g^-1 delta_a(g)."""
    matrices = tuple(
        mat_add(mat_mul(mat_mul(g_inv, a), g), mat_mul(g_inv, mat_map(delta, g)))
        for a, delta in zip(M.matrices, M.algebroid.anchor)
    )
    return ConnectionModule(M.algebroid, M.rank, matrices)


def block_diagonal(a, b):
    zero = a[0][0].ring.zero()
    r, s = len(a), len(b)
    top = tuple(tuple(row) + (zero,) * s for row in a)
    return top + tuple((zero,) * r + tuple(row) for row in b)


def invariant_tables(C):
    """e_0 = 1, e_1, ..., e_r of the p-curvature C, each a map from
    dual-variable exponents to its nonzero ring coefficients."""
    unit = (0,) * C.algebroid.rank
    return [{unit: C.ring.one()}, *hitchin_invariants(C).coefficients]


def product_table(u, v):
    out = {}
    for yu, cu in u.items():
        for yv, cv in v.items():
            key = tuple(map(add, yu, yv))
            out[key] = out.get(key, cu.ring.zero()) + cu * cv
    return {key: c for key, c in out.items() if c}


class TestGaugeRelation:
    @settings(max_examples=40, deadline=None)
    @given(gauge_cases())
    def test_psi_is_conjugated_and_the_invariants_stay(self, case):
        M, g, g_inv = case
        assert mat_mul(g, g_inv) == identity_matrix(M.ring, M.rank)
        gauged = gauge_transform(M, g, g_inv)
        C, C_gauged = p_curvature(M), p_curvature(gauged)
        assert C_gauged.psi == tuple(mat_mul(mat_mul(g_inv, psi), g) for psi in C.psi)
        I, I_gauged = hitchin_invariants(C), hitchin_invariants(C_gauged)
        assert I_gauged.coefficients == I.coefficients
        A = M.algebroid
        assert descend_invariants(I_gauged, A).entries == descend_invariants(I, A).entries


class TestDirectSumRelation:
    @settings(max_examples=40, deadline=None)
    @given(module_pairs())
    def test_invariants_of_a_direct_sum_multiply(self, pair):
        M, N = pair
        total = ConnectionModule(
            M.algebroid, M.rank + N.rank, tuple(map(block_diagonal, M.matrices, N.matrices))
        )
        C_m, C_n, C_total = p_curvature(M), p_curvature(N), p_curvature(total)
        assert C_total.psi == tuple(map(block_diagonal, C_m.psi, C_n.psi))
        e_m, e_n = invariant_tables(C_m), invariant_tables(C_n)
        for k, table in enumerate(invariant_tables(C_total)):
            expected = {}
            for i in range(max(0, k - N.rank), min(k, M.rank) + 1):
                for key, c in product_table(e_m[i], e_n[k - i]).items():
                    expected[key] = expected.get(key, c.ring.zero()) + c
            assert table == {key: c for key, c in expected.items() if c}


SHIFTED = load_scenario(
    str(pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "shifted_p_structure.json")
).algebroid


@st.composite
def line_or_shifted_modules(draw):
    """A module of ``line_modules``, or one of rank 1-3 with entries of
    degree at most 2 over the shifted algebroid of ``shifted_p_structure``."""
    if draw(st.booleans()):
        return draw(line_modules())
    r = draw(st.integers(1, 3))
    matrix = tuple(tuple(draw(polys(SHIFTED.ring, 2)) for _ in range(r)) for _ in range(r))
    return ConnectionModule(SHIFTED, r, (matrix,))


def shift_functions(A):
    """phi_a, the function part of the shift of e_a^[p], or 0."""
    return [f for f, _ in A.shift] or [A.ring.zero()] * A.rank


def transpose(a):
    return tuple(zip(*a))


class TestDualRelation:
    @settings(max_examples=30, deadline=None)
    @given(line_or_shifted_modules())
    def test_psi_of_the_dual_is_minus_the_transpose(self, M):
        A, R = M.algebroid, M.ring
        minus_one = R.constant(-1)
        dual = ConnectionModule(
            A, M.rank, tuple(mat_scale(minus_one, transpose(a)) for a in M.matrices)
        )
        C, C_dual = p_curvature(M), p_curvature(dual)
        identity = identity_matrix(R, M.rank)
        for psi, psi_dual, phi in zip(C.psi, C_dual.psi, shift_functions(A)):
            expected = mat_sub(mat_scale(minus_one, transpose(psi)), mat_scale(phi + phi, identity))
            assert psi_dual == expected


class TestRankOneTwistRelation:
    @settings(max_examples=30, deadline=None)
    @given(line_or_shifted_modules(), st.data())
    def test_psi_of_a_twist_adds_the_line_psi(self, M, data):
        A, R = M.algebroid, M.ring
        line = data.draw(polys(R, 2))
        L = ConnectionModule(A, 1, (((line,),),))
        identity = identity_matrix(R, M.rank)
        twisted = ConnectionModule(
            A, M.rank, tuple(mat_add(a, mat_scale(line, identity)) for a in M.matrices)
        )
        C, C_line, C_twisted = p_curvature(M), p_curvature(L), p_curvature(twisted)
        for psi, psi_line, psi_twisted, phi in zip(C.psi, C_line.psi, C_twisted.psi, shift_functions(A)):
            assert psi_twisted == mat_add(psi, mat_scale(psi_line[0][0] + phi, identity))
