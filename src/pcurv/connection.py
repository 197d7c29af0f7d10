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

That psi_a has no differential part is checked on derivations alone.  By
Jacobson's formula (delta_a I + A_a)^p - delta_a^p I - A_a^p is a sum of
Lie polynomials in delta_a I and A_a; every bracket of those two is a
plain matrix, so the only part of order > 0 left in psi_a is the scalar
derivation (delta_a^p - anchor(h)) I.  It vanishes exactly when the
p-operation is compatible with the anchor.

The independent route is the Weyl-algebra one.  The action of an arbitrary
enveloping-algebra element is a matrix whose entries are crystalline
differential operators over the same ring (a Weyl-type algebra);
:class:`MatrixDiffOp` realizes those endomorphism-valued operators with
exact normal-form entries.  The coefficient action of the Weyl algebra on
polynomials has a kernel: any monomial containing a p-th power of a
coordinate derivation acts as zero (the p-th coefficient-wise derivative
vanishes identically), and monomials with all exponents below p act
faithfully.  Reducing modulo that kernel
(:meth:`MatrixDiffOp.reduce_action`) gives a normal form for the
endomorphism an operator induces.  :func:`check_abstract_action_oracle`
represents the central element e_a^p - e_a^[p] that way and compares.

The validators check that the psi_a agree with that oracle, are p-linear
in the generator direction, pairwise commuting, and commute with the
module action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul

from . import operators as ops
from .algebroid import AlgebroidPresentation, PStructureShift, tangent_algebroid
from .poly import Derivation, Poly, PolyRing, power
from .report import ValidationReport

# -- exact matrix helpers -----------------------------------------------------
#
# The only matrix arithmetic.  A matrix is a tuple of rows; its entries may
# be of any ring type with + - * (polynomials, or the Weyl-algebra operators
# of MatrixDiffOp), and mat_scalar takes that type's zero.


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


def mat_mul(a, b):
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
    vectors with the derivations applied coefficient-wise.  Its arithmetic
    is the ``mat_*`` helpers on the entries."""

    __slots__ = ("weyl", "entries")

    def __init__(self, weyl: AlgebroidPresentation, entries):
        self.weyl = weyl
        self.entries = tuple(tuple(row) for row in entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, weyl, r):
        return cls(weyl, mat_scalar(ops.one(weyl), ops.zero(weyl), r))

    @classmethod
    def from_matrix(cls, weyl, matrix):
        return cls(weyl, mat_map(lambda f: ops.from_poly(weyl, f), matrix))

    def __eq__(self, other):
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        return self.weyl == other.weyl and self.entries == other.entries

    def __add__(self, other):
        return MatrixDiffOp(self.weyl, mat_add(self.entries, other.entries))

    def __sub__(self, other):
        return MatrixDiffOp(self.weyl, mat_sub(self.entries, other.entries))

    def __mul__(self, other):
        if not isinstance(other, MatrixDiffOp):
            return NotImplemented
        return MatrixDiffOp(self.weyl, mat_mul(self.entries, other.entries))

    def __pow__(self, k: int):
        return power(self, k, MatrixDiffOp.identity(self.weyl, self.rank))

    def scale(self, f: Poly):
        return MatrixDiffOp(self.weyl, mat_map(lambda x: x.scale(f), self.entries))

    def commutator(self, other):
        return MatrixDiffOp(self.weyl, mat_commutator(self.entries, other.entries))

    def is_zero(self) -> bool:
        return mat_is_zero(self.entries)

    def order(self) -> int:
        """Largest filtration degree among the entries; -1 if zero."""
        return max((x.degree() for row in self.entries for x in row), default=-1)

    def reduce_action(self) -> "MatrixDiffOp":
        """Drop the terms that act as zero on polynomial vectors: monomials
        in which some coordinate derivation appears with exponent >= p."""
        p = self.weyl.p

        def acting_part(x):
            terms = {b: f for b, f in x.terms.items() if all(k < p for k in b)}
            return ops.OperatorElement(self.weyl, terms)

        return MatrixDiffOp(self.weyl, mat_map(acting_part, self.entries))

    def as_matrix(self):
        """The entries as plain polynomials; requires order at most 0."""
        if self.order() > 0:
            raise ValueError(f"operator has order {self.order()} > 0")
        return mat_map(ops.OperatorElement.function_part, self.entries)

    def apply(self, section):
        """Act on a polynomial vector (coefficient-wise derivations)."""
        coords = self.weyl.ring.coordinate_indices()
        out = []
        for row in self.entries:
            total = self.weyl.ring.zero()
            for x, s in zip(row, section):
                for beta, f in x.terms.items():
                    value = s
                    for a, k in enumerate(beta):
                        for _ in range(k):
                            value = value.derive(coords[a])
                    total = total + f * value
            out.append(total)
        return tuple(out)

    def __str__(self):
        return mat_str(self.entries)


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

    def weyl(self) -> AlgebroidPresentation:
        """The Weyl-type algebra acting on the trivialized module."""
        return tangent_algebroid(self.ring)

    def anchor_op(self, derivation: Derivation) -> ops.OperatorElement:
        """Embed a derivation as a degree-1 Weyl-algebra element."""
        weyl = self.weyl()
        coords = self.ring.coordinate_indices()
        ri = self.ring.rees_index
        if ri is not None and not derivation.components[ri].is_zero():
            raise ValueError("derivation acts on the deformation variable")
        coeffs = tuple(derivation.components[j] for j in coords)
        return ops.from_h_element(weyl, coeffs)

    def generator_action(self, a: int) -> MatrixDiffOp:
        """nabla_{e_a} = delta_a + A_a as a matrix operator."""
        weyl = self.weyl()
        d_op = self.anchor_op(self.algebroid.anchor[a])
        diag = MatrixDiffOp(weyl, mat_scalar(d_op, ops.zero(weyl), self.rank))
        return diag + MatrixDiffOp.from_matrix(weyl, self.matrices[a])


def represent_operator(M: ConnectionModule, op: ops.OperatorElement) -> MatrixDiffOp:
    """The action of an arbitrary enveloping-algebra element, sending each
    normal-form word e^beta to the product of the generator-action powers
    (nabla_{e_a})^{beta_a}."""
    weyl = M.weyl()
    zero = ops.zero(weyl)
    out = MatrixDiffOp(weyl, mat_scalar(zero, zero, M.rank))
    for beta, f in op.terms.items():
        word = MatrixDiffOp.identity(weyl, M.rank)
        for a, k in enumerate(beta):
            if k:
                word = word * M.generator_action(a) ** k
        out = out + word.scale(f)
    return out


def validate_flatness(M: ConnectionModule) -> ValidationReport:
    """[nabla_{e_a}, nabla_{e_b}] = nabla_{[e_a, e_b]} for all pairs."""
    rep = ValidationReport(f"flatness of rank-{M.rank} module over {M.algebroid}")
    A = M.algebroid
    actions = [M.generator_action(a) for a in range(A.rank)]
    bad = []
    for a in range(A.rank):
        for b in range(a + 1, A.rank):
            bracket = ops.from_h_element(A, A.bracket[a][b])
            curvature = actions[a].commutator(actions[b]) - represent_operator(M, bracket)
            if not curvature.is_zero():
                bad.append(f"(e{a + 1},e{b + 1}): {curvature}")
    rep.add("flatness", not bad, witness="; ".join(bad[:2]) or None, pairs=A.rank * (A.rank - 1) // 2)
    return rep


@dataclass(frozen=True)
class PCurvature:
    """The p-curvature matrices psi_a = (nabla_{e_a})^p - nabla_{e_a^[p]}."""

    module: ConnectionModule
    structure: object  # AlgebroidPresentation or PStructureShift
    psi: tuple  # psi[a] = r x r Poly matrix

    @property
    def algebroid(self) -> AlgebroidPresentation:
        return self.module.algebroid

    @property
    def ring(self) -> PolyRing:
        return self.module.ring


def _constant_action(M: ConnectionModule, f: Poly, coeffs):
    """f I + sum_k g_k A_k: the action of f + sum_k g_k e_k on the unit
    sections, which every anchor derivation kills."""
    out = mat_scalar(f, M.ring.zero(), M.rank)
    for g, matrix in zip(coeffs, M.matrices):
        if not g.is_zero():
            out = mat_add(out, mat_scale(g, matrix))
    return out


def _katz_psi(M: ConnectionModule, coeffs, target: ops.OperatorElement):
    """psi(D) = (nabla_D)^p - nabla_{D^[p]} for D = sum_k g_k e_k, where
    ``target`` is D^[p] = f + sum_k h_k e_k.

    Returns the matrix X_p - (f I + sum_k h_k A_k) of the recurrence
    X_1 = B, X_{k+1} = delta_D(X_k) + B . X_k with B = sum_k g_k A_k, and
    the derivation delta_D^p - anchor(h), the differential part of psi(D)
    (zero exactly when psi(D) is O_X-linear)."""
    A = M.algebroid
    f, h = target.lambda1_parts()
    delta = A.anchor_of(coeffs)
    B = _constant_action(M, M.ring.zero(), coeffs)
    X = B
    for _ in range(A.p - 1):
        X = mat_add(mat_map(delta, X), mat_mul(B, X))
    residue = delta.pth_power() + A.anchor_of(h).scale(M.ring.constant(-1))
    return mat_sub(X, _constant_action(M, f, h)), residue


def p_curvature(M: ConnectionModule, structure=None) -> PCurvature:
    """Compute the p-curvature of a flat module.

    psi_a is O_X-linear, so it is computed on the unit sections by Katz's
    recurrence X_1 = A_a, X_{k+1} = delta_a(X_k) + A_a . X_k, as
    psi_a = X_p - (f I + sum_k h_k A_k) with e_a^[p] = f + sum_k h_k e_k
    (the shifted value when ``structure`` is a :class:`PStructureShift`).
    By Jacobson's formula the only possible differential part of
    (nabla_{e_a})^p - nabla_{e_a^[p]} is the scalar derivation
    delta_a^p - anchor(h); a nonzero one signals a p-operation that is
    incompatible with the anchor and raises.
    """
    if structure is None:
        structure = M.algebroid
    A = M.algebroid
    if not validate_flatness(M).passed:
        raise ValueError("module is not flat")
    psi = []
    for a in range(A.rank):
        if isinstance(structure, PStructureShift):
            target = structure.shifted_p_op(a)
        else:
            target = ops.from_h_element(A, A.p_op[a])
        matrix, residue = _katz_psi(M, A.h_basis(a), target)
        if not residue.is_zero():
            raise ValueError(
                f"p-curvature of e{a + 1} has a differential part of order 1: {residue}"
            )
        psi.append(matrix)
    return PCurvature(M, structure, tuple(psi))


def check_abstract_action_oracle(C: PCurvature) -> ValidationReport:
    """Independent route to the same matrices: form the central element
    e_a^p - e_a^[p] abstractly in the enveloping algebra of the
    presentation, represent it on the module word by word, and compare."""
    rep = ValidationReport("p-curvature against the abstract central element")
    M, A = C.module, C.algebroid
    bad = []
    for a in range(A.rank):
        central = ops.p_curvature_element(C.structure, ops.generator(A, a))
        represented = represent_operator(M, central).reduce_action()
        if represented.order() > 0:
            bad.append(f"e{a + 1}: represented element has positive order")
            continue
        if represented.as_matrix() != C.psi[a]:
            bad.append(
                f"e{a + 1}: {mat_str(represented.as_matrix())} != {mat_str(C.psi[a])}"
            )
    rep.add("abstract_action_oracle", not bad, witness="; ".join(bad[:2]) or None)
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
            coeffs = A.h_scale(f, A.h_basis(a))
            target = ops.p_operation_lambda1(C.structure, ops.from_h_element(A, coeffs))
            matrix, residue = _katz_psi(M, coeffs, target)
            if not residue.is_zero():
                bad.append(f"f={f}, e{a + 1}: positive order")
            elif matrix != mat_scale(f**p, C.psi[a]):
                bad.append(f"f={f}, e{a + 1}")
    rep.add("p_linearity", not bad, witness="; ".join(bad[:2]) or None, panel=len(panel))
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
    rep.add("pairwise_commuting", not bad, witness="; ".join(bad) or None, pairs=m * (m - 1) // 2)
    return rep


def check_flat_commutation(C: PCurvature) -> ValidationReport:
    """Each psi_a commutes with the full module action: as operators,
    [psi_a, nabla_{e_b}] = 0, which in matrix form reads

        [psi_a, A_b] = delta_b . psi_a

    with the anchor applied entrywise on the right-hand side."""
    rep = ValidationReport("commutation of the p-curvature with the module action")
    M, A = C.module, C.algebroid
    weyl = M.weyl()
    bad_op, bad_matrix = [], []
    for a in range(A.rank):
        psi_op = MatrixDiffOp.from_matrix(weyl, C.psi[a])
        for b in range(A.rank):
            if not psi_op.commutator(M.generator_action(b)).is_zero():
                bad_op.append(f"[psi_{a + 1}, nabla_{b + 1}]")
            lhs = mat_commutator(C.psi[a], M.matrices[b])
            rhs = mat_map(A.anchor[b], C.psi[a])
            if lhs != rhs:
                bad_matrix.append(f"(a={a + 1}, b={b + 1})")
    rep.add("commutes_with_module_action", not bad_op, witness="; ".join(bad_op[:2]) or None)
    rep.add("matrix_commutation_identity", not bad_matrix, witness="; ".join(bad_matrix[:2]) or None)
    return rep
