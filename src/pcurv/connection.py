"""Modules over an enveloping algebra, presented by connection matrices.

A module structure on a free module E of rank r is given by one r x r
polynomial matrix per algebroid generator:

    nabla_{e_a}(s) = delta_a(s) + A_a . s

with the anchor derivation applied entrywise.

The p-curvature of a flat module is

    psi_a = (nabla_{e_a})^p - nabla_{e_a^[p]}

one pure matrix per generator.  It is O_X-linear, so it is fixed by its
values on the constant sections (Katz, *Nilpotent connections and the
monodromy theorem*, 1970): nabla_{e_a}^k sends the j-th unit section to
the j-th column of X_k, where

    X_1 = A_a,    X_{k+1} = delta_a(X_k) + A_a . X_k

and, writing e_a^[p] = f + sum_k h_k e_k,

    psi_a = X_p - (f I + sum_k h_k A_k).

Over a one-variable ring at rank above 1 the recurrence runs on packed
ints (:func:`~pcurv.poly.katz_recurrence`): A_a and the anchor coefficient
are packed once, each step is one integer dot product per entry, all
reduced mod p at once with the derivative read off the reduced digits,
and only X_p is unpacked.  Rank 1 and several variables keep the loop on
polynomial matrices.

That psi_a has no differential part is checked on derivations alone.  By
Jacobson's formula (delta_a I + A_a)^p - delta_a^p I - A_a^p is a sum of
Lie polynomials in delta_a I and A_a; every bracket of those two is a
plain matrix, so the only part of order > 0 left in psi_a is the scalar
derivation (delta_a^p - anchor(h)) I.  It vanishes exactly when the
p-operation is compatible with the anchor.

The independent route is the Weyl-algebra one.  The action of an arbitrary
enveloping-algebra element is a matrix of crystalline differential
operators over the same ring (a Weyl-type algebra).  :class:`MatrixDiffOp`
stores such an operator as sum_beta W_beta d^beta, one r x r polynomial
matrix W_beta on the left of each monomial d^beta in the coordinate
derivations, and multiplies by the Leibniz rule, so its matrix products
are the ``mat_mul`` of polynomial matrices.  The coefficient action of the
Weyl algebra on polynomials has a kernel: any d^beta containing a p-th
power of a coordinate derivation acts as zero (the p-th coefficient-wise
derivative vanishes identically), and monomials with all exponents below
p act faithfully.  Reducing modulo that kernel
(:meth:`MatrixDiffOp.reduce_action`) gives a normal form for the
endomorphism an operator induces.  :func:`check_abstract_action_oracle`
represents the central element e_a^p - e_a^[p] that way and compares.

Over a one-variable ring at rank above 1 the oracle's words run packed as
well (:func:`~pcurv.poly.operator_word`): each W_gamma stays one int per
entry while a word is built, and the word is unpacked once.  That kernel
is not the Katz one: it multiplies operators of every order, keyed by
d^gamma, where the recurrence only follows the unit sections.  The two
share only the digit helpers, so a fault in the packed recurrence cannot
reappear in the check that compares against it.

The validators check that the psi_a agree with that oracle, are p-linear
in the generator direction, pairwise commuting, and commute with the
module action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from math import comb, prod
from operator import add, mul, neg

from . import operators as ops
from .algebroid import AlgebroidPresentation, tangent_algebroid
from .poly import (
    Poly,
    PolyRing,
    katz_recurrence,
    kronecker_mat_mul,
    left_power,
    operator_word,
    power,
)
from .report import ValidationReport

# -- exact matrix helpers -----------------------------------------------------
#
# The only matrix arithmetic.  A matrix is a tuple of rows of polynomials;
# MatrixDiffOp keeps one such matrix per monomial in the derivations.


def mat_scalar(c, zero, r: int):
    """The r x r matrix c I."""
    return tuple(tuple(c if i == j else zero for j in range(r)) for i in range(r))


def identity_matrix(ring: PolyRing, r: int):
    return mat_scalar(ring.one(), ring.zero(), r)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(f: Poly, a):
    return tuple(tuple(f * x for x in row) for row in a)


def _packs(ring: PolyRing, rank: int) -> bool:
    """Whether rank x rank matrix arithmetic over ``ring`` runs on packed
    ints, on all three routes: :func:`~pcurv.poly.kronecker_mat_mul` for
    ``mat_mul``, :func:`~pcurv.poly.katz_recurrence` for the p-curvature
    and :func:`~pcurv.poly.operator_word` for the oracle's words in
    :func:`represent_operator`: over one variable at rank above 1.  At
    rank 1 a matrix product is one polynomial product, which packing
    slows: packing rank 1 too gave a ``bundled`` ``job_p50_s`` of 0.0030 s
    against 0.0027 s (worse in 10 of 10 alternating pairs, 2-core host,
    Python 3.11).  Over several variables an entry packs into one int per
    monomial in the other variables, and only the characteristic
    polynomial is measured to gain from that."""
    return rank > 1 and ring.nvars == 1


def mat_mul(a, b):
    """The matrix product a . b: one big-int product per entry pair where
    :func:`_packs`, else the row-by-column dot product of the entries'
    * and +."""
    if _packs(a[0][0].ring, len(a)):
        return kronecker_mat_mul(a, b)
    columns = tuple(zip(*b))
    return tuple(tuple(reduce(add, map(mul, row, col)) for col in columns) for row in a)


def mat_pow(a, k: int, ring: PolyRing):
    return power(a, k, identity_matrix(ring, len(a)), mat_mul)


def mat_commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def mat_trace(a):
    return reduce(add, (row[i] for i, row in enumerate(a)))


def mat_map(fn, a):
    """Apply ``fn`` to every entry (a derivation, a change of ring, ...)."""
    return tuple(tuple(fn(x) for x in row) for row in a)


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_str(a) -> str:
    return "[" + "; ".join(", ".join(str(x) for x in row) for row in a) + "]"


# -- matrix differential operators -------------------------------------------


class MatrixDiffOp:
    """A square matrix of Weyl-algebra elements, acting on polynomial
    vectors with the derivations applied coefficient-wise, stored as
    sum_beta W_beta d^beta: ``coeffs`` maps each multi-index beta over the
    coordinate derivations to its nonzero r x r polynomial matrix W_beta."""

    __slots__ = ("weyl", "rank", "coeffs")

    def __init__(self, weyl: AlgebroidPresentation, rank: int, coeffs: dict):
        self.weyl = weyl
        self.rank = rank
        self.coeffs = {beta: w for beta, w in coeffs.items() if not mat_is_zero(w)}

    @classmethod
    def identity(cls, weyl, r):
        return cls.from_matrix(weyl, identity_matrix(weyl.ring, r))

    @classmethod
    def from_matrix(cls, weyl, matrix):
        return cls(weyl, len(matrix), {(0,) * weyl.rank: matrix})

    def __eq__(self, other):
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        return (self.weyl, self.rank, self.coeffs) == (other.weyl, other.rank, other.coeffs)

    def __add__(self, other):
        coeffs = dict(self.coeffs)
        for beta, w in other.coeffs.items():
            coeffs[beta] = mat_add(coeffs[beta], w) if beta in coeffs else w
        return MatrixDiffOp(self.weyl, self.rank, coeffs)

    def __neg__(self):
        coeffs = {b: mat_map(neg, w) for b, w in self.coeffs.items()}
        return MatrixDiffOp(self.weyl, self.rank, coeffs)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        """Leibniz: (U d^beta)(W d^gamma) is the sum over delta <= beta of
        C(beta, delta) U . d^delta(W) d^(beta - delta + gamma), with the
        binomials mod p.  A scalar U = c I scales instead of multiplying."""
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        ring = self.weyl.ring
        one = ring.one()
        coeffs = {}
        for beta, u in self.coeffs.items():
            c = u[0][0]
            scalar = u == mat_scalar(c, ring.zero(), self.rank)
            for delta in product(*(range(k + 1) for k in beta)):
                n = ring.constant(prod(map(comb, beta, delta)))
                if n.is_zero():
                    continue
                f = c * n if scalar else n
                for gamma, w in other.coeffs.items():
                    v = _derive(w, delta, ring)
                    if not scalar:
                        v = mat_mul(u, v)
                    if f != one:
                        v = mat_scale(f, v)
                    key = tuple(b - d + g for b, d, g in zip(beta, delta, gamma))
                    coeffs[key] = mat_add(coeffs[key], v) if key in coeffs else v
        return MatrixDiffOp(self.weyl, self.rank, coeffs)

    def __pow__(self, k: int):
        return left_power(self, k, MatrixDiffOp.identity(self.weyl, self.rank))

    def scale(self, f: Poly):
        coeffs = {b: mat_scale(f, w) for b, w in self.coeffs.items()}
        return MatrixDiffOp(self.weyl, self.rank, coeffs)

    def commutator(self, other):
        return self * other - other * self

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        """Largest |beta| with W_beta nonzero; -1 if zero."""
        return max(map(sum, self.coeffs), default=-1)

    def reduce_action(self) -> "MatrixDiffOp":
        """Drop the terms that act as zero on polynomial vectors: the d^beta
        in which some coordinate derivation has exponent >= p."""
        p = self.weyl.p
        coeffs = {b: w for b, w in self.coeffs.items() if all(k < p for k in b)}
        return MatrixDiffOp(self.weyl, self.rank, coeffs)

    def as_matrix(self):
        """W_0 as a plain polynomial matrix; requires order at most 0."""
        if self.order() > 0:
            raise ValueError(f"operator has order {self.order()} > 0")
        zero = self.weyl.ring.zero()
        return self.coeffs.get((0,) * self.weyl.rank, mat_scalar(zero, zero, self.rank))

    def apply(self, section):
        """Act on a polynomial vector (coefficient-wise derivations)."""
        ring = self.weyl.ring
        column = tuple((s,) for s in section)
        out = mat_scale(ring.zero(), column)
        for beta, w in self.coeffs.items():
            out = mat_add(out, mat_mul(w, _derive(column, beta, ring)))
        return tuple(s for (s,) in out)

    def __str__(self):
        """The matrix of Weyl-algebra elements, entry by entry."""

        def entry(i, j):
            terms = {b: w[i][j] for b, w in self.coeffs.items() if w[i][j]}
            return ops.OperatorElement(self.weyl, terms)

        cells = range(self.rank)
        return mat_str(tuple(tuple(entry(i, j) for j in cells) for i in cells))


def _derive(a, beta, ring: PolyRing):
    """d^beta applied to every entry of a, beta over the coordinates."""
    for j, k in zip(ring.coordinate_indices(), beta):
        for _ in range(k):
            a = mat_map(lambda f: f.derive(j), a)
    return a


# -- connection modules -------------------------------------------------------


@dataclass(frozen=True)
class ConnectionModule:
    """A free rank-r module with a connection matrix per generator."""

    algebroid: AlgebroidPresentation
    rank: int
    matrices: tuple  # matrices[a] = r x r Poly matrix

    def __post_init__(self):
        matrices = tuple(tuple(tuple(row) for row in m) for m in self.matrices)
        object.__setattr__(self, "matrices", matrices)
        if len(matrices) != self.algebroid.rank:
            raise ValueError("one connection matrix per generator required")
        r = self.rank
        for m in matrices:
            if len(m) != r or any(len(row) != r for row in m):
                raise ValueError("connection matrices must be rank x rank")
            if any(c.ring != self.ring for row in m for c in row):
                raise ValueError("matrix entry from a different ring")

    @property
    def ring(self) -> PolyRing:
        return self.algebroid.ring

    @cached_property
    def weyl(self) -> AlgebroidPresentation:
        """The Weyl-type algebra acting on the trivialized module."""
        return tangent_algebroid(self.ring)

    @cached_property
    def actions(self) -> tuple:
        """The generator actions nabla_{e_a} = delta_a + A_a as matrix
        operators: A_a at d^0 and, for each coordinate j, the scalar matrix
        of the anchor's j-th component at d_j."""
        weyl, r = self.weyl, self.rank
        coords = self.ring.coordinate_indices()
        actions = []
        for derivation, matrix in zip(self.algebroid.anchor, self.matrices):
            coeffs = {(0,) * weyl.rank: matrix}
            for k, j in enumerate(coords):
                unit = tuple(int(i == k) for i in range(weyl.rank))
                coeffs[unit] = mat_scalar(derivation.components[j], self.ring.zero(), r)
            actions.append(MatrixDiffOp(weyl, r, coeffs))
        return tuple(actions)

    @cached_property
    def flatness(self) -> ValidationReport:
        """:func:`validate_flatness` of this module, run once."""
        return validate_flatness(self)


def represent_operator(M: ConnectionModule, op: ops.OperatorElement) -> MatrixDiffOp:
    """The action of an arbitrary enveloping-algebra element, sending each
    normal-form word e^beta to the product of the generator actions
    (nabla_{e_1})^{beta_1} ... (nabla_{e_m})^{beta_m}.

    Each word is built from the identity by left-multiplying by one
    order-1 action at a time, from the last generator to the first; no
    two words of positive order are ever multiplied.  Left-multiplying an
    operator by an order-1 action takes one matrix product A_a . W_gamma
    per monomial d^gamma of the operator; the scalar anchor part only
    derives and shifts the W_gamma.  On the line a word of length k
    therefore costs O(k^2) matrix products, O(p^2) for the e_a^p of the
    p-curvature oracle.  Square-and-multiply would multiply two
    order-k/2 operators, (k/2)^2 pairs of monomials with up to k/2 + 1
    Leibniz terms each: O(p^3).

    Where :func:`_packs` holds, a word is built by
    :func:`~pcurv.poly.operator_word`: the W_gamma stay packed between
    steps, each step's entries are reduced mod p in one conversion, and
    the word is unpacked once.  The product ``MatrixDiffOp.__mul__``
    builds the words on every other ring and rank, and is the named test
    oracle of the packed ones."""
    weyl = M.weyl
    packs = _packs(M.ring, M.rank)
    out = MatrixDiffOp(weyl, M.rank, {})
    for beta, f in op.terms.items():
        if packs:
            word = _packed_word(M, beta)
        else:
            word = MatrixDiffOp.identity(weyl, M.rank)
            for a in reversed(range(len(beta))):
                word = left_power(M.actions[a], beta[a], word)
        out = out + word.scale(f)
    return out


def _packed_word(M: ConnectionModule, beta) -> MatrixDiffOp:
    """The word e^beta of :func:`represent_operator` by
    :func:`~pcurv.poly.operator_word`, each action nabla_{e_a} the pair
    (A_a, g_a) with g_a the anchor's one component.  A ring whose one
    variable is the deformation variable has no coordinate derivation
    (weyl.rank 0): its anchor is 0, and the word is W_0 alone, keyed ()."""
    factors = [(m, d.components[0]) for m, d in zip(M.matrices, M.algebroid.anchor)]
    coeffs = {(gamma,) * M.weyl.rank: w for gamma, w in enumerate(operator_word(factors, beta))}
    return MatrixDiffOp(M.weyl, M.rank, coeffs)


def validate_flatness(M: ConnectionModule) -> ValidationReport:
    """[nabla_{e_a}, nabla_{e_b}] = nabla_{[e_a, e_b]} for all pairs."""
    rep = ValidationReport(f"flatness of rank-{M.rank} module over {M.algebroid}")
    A = M.algebroid
    bad = []
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            bracket = ops.from_h_element(A, A.bracket[a][b])
            curvature = M.actions[a].commutator(M.actions[b]) - represent_operator(M, bracket)
            if not curvature.is_zero():
                bad.append(f"(e{a + 1},e{b + 1}): {curvature}")
    rep.check("flatness", bad, shown=2, pairs=A.rank * (A.rank - 1) // 2)
    return rep


@dataclass(frozen=True)
class PCurvature:
    """The p-curvature matrices psi_a = (nabla_{e_a})^p - nabla_{e_a^[p]}."""

    module: ConnectionModule
    psi: tuple  # psi[a] = r x r Poly matrix

    @property
    def algebroid(self) -> AlgebroidPresentation:
        return self.module.algebroid

    @property
    def ring(self) -> PolyRing:
        return self.module.ring

    @cached_property
    def commutativity(self) -> ValidationReport:
        """:func:`check_higgs_commutativity` of these matrices, run once."""
        return check_higgs_commutativity(self)


def _constant_action(M: ConnectionModule, f: Poly, coeffs):
    """f I + sum_k g_k A_k: the action of f + sum_k g_k e_k on the unit
    sections, which every anchor derivation kills."""
    out = mat_scalar(f, M.ring.zero(), M.rank)
    for g, matrix in zip(coeffs, M.matrices):
        if not g.is_zero():
            out = mat_add(out, mat_scale(g, matrix))
    return out


def _katz_psi(M: ConnectionModule, coeffs):
    """psi(D) = (nabla_D)^p - nabla_{D^[p]} for D = sum_k g_k e_k, with
    D^[p] = f + sum_k h_k e_k read from the module's algebroid, its shift
    included, by :func:`~pcurv.operators.p_operation_lambda1`.

    Returns the matrix X_p - (f I + sum_k h_k A_k) of the recurrence
    X_1 = B, X_{k+1} = delta_D(X_k) + B . X_k with B = sum_k g_k A_k, and
    the derivation delta_D^p - anchor(h), the differential part of psi(D)
    (zero exactly when psi(D) is O_X-linear)."""
    A = M.algebroid
    target = ops.p_operation_lambda1(ops.from_h_element(A, coeffs))
    f, h = target.lambda1_parts()
    delta = A.anchor_of(coeffs)
    B = _constant_action(M, M.ring.zero(), coeffs)
    if _packs(M.ring, M.rank):
        X = katz_recurrence(B, delta.components[0], A.p)
    else:
        X = B
        for _ in range(A.p - 1):
            X = mat_add(mat_map(delta, X), mat_mul(B, X))
    residue = delta.pth_power() + A.anchor_of(h).scale(M.ring.constant(-1))
    return mat_sub(X, _constant_action(M, f, h)), residue


def p_curvature(M: ConnectionModule) -> PCurvature:
    """Compute the p-curvature of a flat module.

    psi_a is O_X-linear, so it is computed on the unit sections by Katz's
    recurrence X_1 = A_a, X_{k+1} = delta_a(X_k) + A_a . X_k, as
    psi_a = X_p - (f I + sum_k h_k A_k) with e_a^[p] = f + sum_k h_k e_k
    (the shifted value when the algebroid's p-structure is shifted).
    By Jacobson's formula the only possible differential part of
    (nabla_{e_a})^p - nabla_{e_a^[p]} is the scalar derivation
    delta_a^p - anchor(h); a nonzero one signals a p-operation that is
    incompatible with the anchor and raises.
    """
    A = M.algebroid
    if not M.flatness.passed:
        raise ValueError("module is not flat")
    psi = []
    for a in range(A.rank):
        matrix, residue = _katz_psi(M, A.h_basis(a))
        if not residue.is_zero():
            raise ValueError(
                f"p-curvature of e{a + 1} has a differential part of order 1: {residue}"
            )
        psi.append(matrix)
    return PCurvature(M, tuple(psi))


def check_abstract_action_oracle(C: PCurvature) -> ValidationReport:
    """Independent route to the same matrices: form the central element
    e_a^p - e_a^[p] abstractly in the enveloping algebra of the
    presentation, represent it on the module word by word, and compare."""
    rep = ValidationReport("p-curvature against the abstract central element")
    M, A = C.module, C.algebroid
    bad = []
    for a in range(A.rank):
        central = ops.p_curvature_element(ops.generator(A, a))
        represented = represent_operator(M, central).reduce_action()
        if represented.order() > 0:
            bad.append(f"e{a + 1}: represented element has positive order")
            continue
        if represented.as_matrix() != C.psi[a]:
            bad.append(
                f"e{a + 1}: {mat_str(represented.as_matrix())} != {mat_str(C.psi[a])}"
            )
    rep.check("abstract_action_oracle", bad, shown=2)
    return rep


def check_p_linearity(C: PCurvature, panel) -> ValidationReport:
    """psi(f * e_a), computed from scratch by the same recurrence in the
    direction f * delta_a with matrix f * A_a, against the twisted scaling
    rule for (f e_a)^[p], must equal f^p * psi_a."""
    rep = ValidationReport("p-linearity of the p-curvature")
    M, A = C.module, C.algebroid
    p = A.p
    bad = []
    for f in panel:
        for a in range(A.rank):
            matrix, residue = _katz_psi(M, A.h_scale(f, A.h_basis(a)))
            if not residue.is_zero():
                bad.append(f"f={f}, e{a + 1}: positive order")
            elif matrix != mat_scale(f**p, C.psi[a]):
                bad.append(f"f={f}, e{a + 1}")
    rep.check("p_linearity", bad, shown=2, panel=len(panel))
    return rep


def check_higgs_commutativity(C: PCurvature) -> ValidationReport:
    """The p-curvature matrices commute pairwise."""
    rep = ValidationReport("commutativity of the p-curvature matrices")
    bad = []
    m = C.algebroid.rank
    for a in range(m):
        for b in range(a + 1, m):
            if not mat_is_zero(mat_commutator(C.psi[a], C.psi[b])):
                bad.append(f"[psi_{a + 1}, psi_{b + 1}]")
    rep.check("pairwise_commuting", bad, pairs=m * (m - 1) // 2)
    return rep


def check_flat_commutation(C: PCurvature) -> ValidationReport:
    """Each psi_a commutes with the full module action: as operators,
    [psi_a, nabla_{e_b}] = 0.  The anchor part of nabla_{e_b} is scalar, so
    that commutator is [psi_a, A_b] - delta_b . psi_a (the anchor applied
    entrywise) at d^0 and 0 at every d_j.  Both checks read that one
    matrix: the operator form, and the matrix form
    [psi_a, A_b] = delta_b . psi_a."""
    rep = ValidationReport("commutation of the p-curvature with the module action")
    M, A = C.module, C.algebroid
    bad_op, bad_matrix = [], []
    for a, psi in enumerate(C.psi):
        for b in range(A.rank):
            commutator = mat_sub(mat_commutator(psi, M.matrices[b]), mat_map(A.anchor[b], psi))
            if not mat_is_zero(commutator):
                bad_op.append(f"[psi_{a + 1}, nabla_{b + 1}]")
                bad_matrix.append(f"(a={a + 1}, b={b + 1})")
    rep.check("commutes_with_module_action", bad_op, shown=2)
    rep.check("matrix_commutation_identity", bad_matrix, shown=2)
    return rep
