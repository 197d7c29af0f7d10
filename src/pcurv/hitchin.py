"""Characteristic-polynomial invariants of the p-curvature and their
Frobenius descent.

The p-curvature matrices psi_1, ..., psi_m commute pairwise, so the
universal combination Psi(y) = sum_a y_a psi_a over formal dual variables
y_a has a well-behaved characteristic polynomial

    det(lam * I - Psi(y)) = sum_k (-1)^k e_k(y) lam^(r-k).

The invariants recorded here are the e_k: homogeneous degree-k polynomials
in the dual variables whose coefficients are ring elements.  (The sign
normalization is a convention; e_k is the k-th elementary symmetric
function of the eigenvalues, e_1 the trace and e_r the determinant.)

Descent asks whether every coefficient is a Frobenius pullback, i.e. has
all ordinary exponents divisible by p.  For modules over an algebroid
whose anchor is generically surjective this always succeeds (that is the
content of the descent theorem checked by the acceptance suite); a zero
anchor admits counterexamples, and failures are reported coefficient by
coefficient with the offending monomials.

The section-level machinery is Cartier-type: on a trivialized Frobenius
pullback the canonical connection differentiates coefficients, a section
descends exactly when all its canonical derivatives vanish, and descent is
implemented by dividing exponents by p (coefficients are their own p-th
roots over the prime field).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .algebroid import AlgebroidPresentation, anchor_generic_surjectivity
from .connection import PCurvature, mat_add, mat_map, mat_scale, mat_trace
from .poly import Derivation, NotDescendable, Poly, PolyRing, charpoly_coefficients
from .poly import render_monomial, render_terms
from .report import ValidationReport

# Unused here; bench/selftest.py checks that the benchmark tracer patches it.
from .poly import det  # noqa: F401


@dataclass(frozen=True)
class CharPoly:
    """det(lam*I - sum_a y_a psi_a) = sum_k c_k lam^(r-k), over the ring
    extended by the dual variables and lam; coefficients[k] is c_k, free
    of lam."""

    ring: PolyRing  # extended ring
    coefficients: tuple
    lam: str
    duals: tuple

    @cached_property
    def value(self) -> Poly:
        lam, r = self.ring.variable(self.lam), len(self.coefficients) - 1
        return sum((c * lam ** (r - k) for k, c in enumerate(self.coefficients)), self.ring.zero())

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class HitchinInvariants:
    """The elementary symmetric invariants e_1, ..., e_r of the universal
    p-curvature combination; coefficients[k-1] maps each dual-variable
    exponent tuple to its ring coefficient."""

    rank: int
    duals: tuple  # dual-variable names: y1, ..., ym, or as PolyRing.adjoin renamed them
    ring: PolyRing  # base ring of the module
    coefficients: tuple  # coefficients[k-1]: dict[y-exponents, Poly]

    def items(self):
        for k, table in enumerate(self.coefficients, start=1):
            for yexp in sorted(table):
                yield k, yexp, table[yexp]

    def render(self, k: int) -> str:
        return render_terms(self.duals, self.coefficients[k - 1])

    def monomial(self, yexp) -> str:
        """The dual-variable monomial with these exponents, "1" for none."""
        return render_monomial(self.duals, yexp) or "1"

    def __str__(self):
        return "; ".join(f"e{k} = {self.render(k)}" for k in range(1, self.rank + 1))


def characteristic_polynomial(C: PCurvature) -> CharPoly:
    """Expand det(lam*I - sum_a y_a psi_a) exactly, by Berkowitz's
    division-free algorithm on Psi = sum_a y_a psi_a.  The p-curvature
    matrices must commute pairwise (they do for any valid input; this is
    checked, not assumed)."""
    if not C.commutativity.passed:
        raise ValueError("p-curvature matrices do not commute")
    ext, (*duals, lam) = C.ring.adjoin(*(f"y{a + 1}" for a in range(C.algebroid.rank)), "lam")
    matrix = reduce(mat_add, (
        mat_scale(ext.variable(y), mat_map(lambda c: c.map_to(ext), psi))
        for y, psi in zip(duals, C.psi)
    ))
    return CharPoly(ext, tuple(charpoly_coefficients(matrix)), lam, tuple(duals))


def hitchin_invariants(C: PCurvature) -> HitchinInvariants:
    """Read the invariants e_k = (-1)^k c_k off the coefficients c_k of
    lam^(r-k) in the characteristic polynomial."""
    cp = characteristic_polynomial(C)
    coefficients = tuple({} for _ in range(C.module.rank))
    for k, c in enumerate(cp.coefficients[1:], start=1):
        # c is free of lam; splitting lam off too leaves the module's ring.
        for (_, *yexp), coeff in c.split_variables(cp.lam, *cp.duals).items():
            coefficients[k - 1][tuple(yexp)] = -coeff if k % 2 == 1 else coeff
    return HitchinInvariants(C.module.rank, cp.duals, C.ring, coefficients)


# -- canonical connection and Cartier descent --------------------------------


def canonical_derivative(section, derivation: Derivation):
    """The canonical connection on a trivialized Frobenius pullback
    differentiates coefficients."""
    return tuple(derivation(f) for f in section)


def section_descends(section) -> bool:
    """True iff all canonical derivatives in coordinate directions vanish."""
    ring = section[0].ring
    return all(
        canonical_derivative(section, Derivation.coordinate(ring, j))
        == tuple(ring.zero() for _ in section)
        for j in ring.coordinate_indices()
    )


def descend_section(section):
    """Invert the Frobenius pullback on a section, entry by entry; the
    first entry that is not a p-th power is returned as the failure."""
    out = []
    for f in section:
        root = f.pth_root()
        if isinstance(root, NotDescendable):
            return root
        out.append(root)
    return tuple(out)


# -- trace flatness ------------------------------------------------------------


def validate_trace_flatness(C: PCurvature, invariants: HitchinInvariants) -> ValidationReport:
    """Anchor derivatives of all invariant coefficients vanish; ``invariants``
    are those of ``C``, as :func:`hitchin_invariants` returns them.

    Taking the trace of the commutation identity [psi_a, A_b] = delta_b . psi_a
    kills the left side, so delta_b(tr psi_a) = 0; the same holds for every
    coefficient of the higher invariants.  A zero anchor makes the check
    vacuous; that is flagged rather than hidden.
    """
    if C.ring.p <= 2:
        raise ValueError("trace flatness requires p > 2")
    rep = ValidationReport("anchor flatness of the invariants")
    A = C.algebroid
    anchors = [(b, d) for b, d in enumerate(A.anchor) if not d.is_zero()]
    details = {} if anchors else {"anchor": "degenerate (all zero)"}
    bad = []
    for a in range(A.rank):
        trace = mat_trace(C.psi[a])
        for b, d in anchors:
            if not d(trace).is_zero():
                bad.append(f"delta_{b + 1}(tr psi_{a + 1}) = {d(trace)}")
    rep.check("anchor_derivatives_of_traces", bad, shown=2, **details)
    bad = []
    for k, yexp, coeff in invariants.items():
        for b, d in anchors:
            if not d(coeff).is_zero():
                bad.append(f"delta_{b + 1} on e{k}[{yexp}]")
    rep.check("anchor_derivatives_of_invariants", bad, shown=2, **details)
    return rep


# -- descent of the invariants ---------------------------------------------------


@dataclass(frozen=True)
class DescentReport:
    """Per-coefficient outcome of Frobenius descent of the invariants."""

    invariants: HitchinInvariants
    entries: tuple  # ((k, yexp, Poly-or-NotDescendable), ...)
    anchor_surjective: bool

    @property
    def all_descend(self) -> bool:
        return all(not isinstance(v, NotDescendable) for _, _, v in self.entries)

    def witnesses(self):
        return [
            (k, yexp, v) for k, yexp, v in self.entries if isinstance(v, NotDescendable)
        ]

    def descended(self):
        """The image invariants, for the entries that descended."""
        return [
            (k, yexp, v) for k, yexp, v in self.entries if not isinstance(v, NotDescendable)
        ]


def descend_invariants(I: HitchinInvariants, A: AlgebroidPresentation) -> DescentReport:
    """Extract p-th roots of every invariant coefficient.

    When the anchor is generically surjective (and the module was flat),
    total success is the theorem; otherwise partial failure is possible
    and every failure carries its offending monomials.  Over a deformation
    ring only the ordinary exponents are tested, matching the Frobenius
    acting trivially on the parameter.
    """
    if I.ring.p <= 2:
        raise ValueError("descent requires p > 2")
    entries = []
    for k, yexp, coeff in I.items():
        root = coeff.pth_root()
        if not isinstance(root, NotDescendable):
            if root.frobenius() != coeff:
                raise AssertionError("descended coefficient does not pull back")
        entries.append((k, yexp, root))
    surjective, _ = anchor_generic_surjectivity(A)
    return DescentReport(I, tuple(entries), surjective)
