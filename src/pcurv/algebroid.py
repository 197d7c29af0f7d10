"""Restricted Lie algebroids on free modules, given by structure constants.

A presentation consists of a free module H of rank m over a polynomial
ring R, a bracket table [e_a, e_b] = sum_k c_ab^k e_k, an anchor derivation
delta(e_a) for each basis element, and a p-operation table
e_a^[p] = sum_k q_a^k e_k.  Elements of H are plain tuples of m
polynomials (the coefficient vector in the chosen basis).

The bracket of two general elements is forced by the tables together with
the Leibniz rule:

    [D, E] = sum_ab D_a E_b [e_a, e_b] + delta_D(E_b) e_b - delta_E(D_a) e_a

and the p-operation extends from the basis by the two restricted axioms
(additivity up to the universal Lie polynomials of Jacobson's formula, and
the twisted scaling rule for function multiples).  None of the axioms are
assumed: :func:`validate_algebroid` and :func:`validate_p_structure` check
them on monomial-plus-random panels and report each one separately.

Constructors are provided for the standard families: the tangent algebroid
(anchor the identity, p-operation the p-th power of vector fields), Higgs
algebroids (zero bracket and anchor, p-operation any p-linear map), the
one-parameter Rees deformation connecting the two, and p-structure shifts
by central elements, which a presentation carries as its ``shift`` and
which act only in the enveloping algebra.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import cached_property

from .panels import poly_panel, random_poly, random_vector
from .poly import Derivation, Poly, PolyRing, det
from .report import ValidationReport


@dataclass(frozen=True)
class AlgebroidPresentation:
    """(H, bracket, anchor, p-operation, shift) on a free module of rank m."""

    ring: PolyRing
    rank: int
    bracket: tuple  # bracket[a][b] = coefficient vector of [e_a, e_b]
    anchor: tuple   # anchor[a] = Derivation delta(e_a)
    p_op: tuple     # p_op[a] = coefficient vector of e_a^[p]
    shift: tuple = ()  # empty, or shift[a] = (function, coefficient vector) of phi_a

    def __post_init__(self):
        m = self.rank
        if m < 1:
            raise ValueError("rank must be at least 1")
        bracket = tuple(tuple(tuple(row) for row in table) for table in self.bracket)
        p_op = tuple(tuple(row) for row in self.p_op)
        anchor = tuple(self.anchor)
        shift = tuple((f, tuple(vec)) for f, vec in self.shift)
        object.__setattr__(self, "bracket", bracket)
        object.__setattr__(self, "p_op", p_op)
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "shift", shift)
        if len(bracket) != m or any(len(t) != m for t in bracket):
            raise ValueError("bracket table must be rank x rank")
        if any(len(v) != m for t in bracket for v in t):
            raise ValueError("bracket entries must be coefficient vectors of length rank")
        if len(anchor) != m:
            raise ValueError("one anchor derivation per basis element required")
        if len(p_op) != m or any(len(v) != m for v in p_op):
            raise ValueError("p-operation table must be rank x rank")
        if len(shift) not in (0, m) or any(len(vec) != m for _, vec in shift):
            raise ValueError("one shift value per basis element required")
        for table in bracket:
            for vec in table:
                for c in vec:
                    if c.ring != self.ring:
                        raise ValueError("bracket coefficient from a different ring")
        for d in anchor:
            if d.ring != self.ring:
                raise ValueError("anchor derivation over a different ring")
        for vec in p_op:
            for c in vec:
                if c.ring != self.ring:
                    raise ValueError("p-operation coefficient from a different ring")
        if any(c.ring != self.ring for f, vec in shift for c in (f, *vec)):
            raise ValueError("shift value from a different ring")
        ri = self.ring.rees_index
        if ri is not None and any(d.components[ri] for d in anchor):
            raise ValueError("anchor acts on the deformation variable")

    @property
    def p(self) -> int:
        return self.ring.p

    # -- elements of H ----------------------------------------------------

    def h_zero(self):
        return tuple(self.ring.zero() for _ in range(self.rank))

    def h_basis(self, a: int):
        return tuple(
            self.ring.one() if k == a else self.ring.zero() for k in range(self.rank)
        )

    def h_add(self, D, E):
        return tuple(d + e for d, e in zip(D, E))

    def h_scale(self, f: Poly, D):
        return tuple(f * d for d in D)

    def h_is_zero(self, D) -> bool:
        return all(c.is_zero() for c in D)

    def anchor_of(self, D) -> Derivation:
        """The anchor of a general element, sum g_a * delta(e_a), summed
        component by component into one derivation."""
        comps = []
        for j in range(self.ring.nvars):
            terms = [g * d.components[j] for g, d in zip(D, self.anchor) if g and d.components[j]]
            comps.append(sum(terms[1:], terms[0]) if terms else self.ring.zero())
        return Derivation(self.ring, comps)

    def h_bracket(self, D, E):
        """Bracket of two coefficient vectors: the H part of
        :meth:`lambda1_bracket`."""
        zero = self.ring.zero()
        return self.lambda1_bracket((zero, D), (zero, E))[1]

    def lambda1_bracket(self, x, y):
        """Commutator of two degree-one elements f + D, g + E given as
        (function, H-vector) pairs:

            [f + D, g + E] = (delta_D(g) - delta_E(f)) + [D, E],

        with [D, E] the bracket table extended by the Leibniz rule.  The
        anchors delta_D and delta_E are formed once, for both parts."""
        (f, D), (g, E) = x, y
        delta_D, delta_E = self.anchor_of(D), self.anchor_of(E)
        function = self.ring.zero()
        if not g.is_zero():
            function = delta_D(g)
        if not f.is_zero():
            function = function - delta_E(f)
        out = list(self.h_zero())
        for a, u in enumerate(D):
            if u.is_zero():
                continue
            for b, v in enumerate(E):
                if v.is_zero():
                    continue
                uv = u * v
                for k, c in enumerate(self.bracket[a][b]):
                    if not c.is_zero():
                        out[k] = out[k] + uv * c
        for b, v in enumerate(E):
            if not v.is_zero():
                out[b] = out[b] + delta_D(v)
        for a, u in enumerate(D):
            if not u.is_zero():
                out[a] = out[a] - delta_E(u)
        return function, tuple(out)

    def lie_polynomials(self, x, y):
        """The universal Lie polynomials s_1, ..., s_{p-1} of Jacobson's
        formula (x + y)^p = x^p + y^p + sum_i s_i(x, y), for degree-one
        elements given as (function, H-vector) pairs; the s_i are again
        such pairs, and elements of H (function 0) give elements of H.

        They are read off from the expansion
        ad(tau*x + y)^(p-1)(x) = sum_i i*s_i(x, y)*tau^(i-1)
        over the ring extended by a fresh central variable tau.
        """
        p = self.p
        big, tau_name = self._tau_extension
        tau = big.ring.variable(tau_name)

        def lift(pair):
            f, D = pair
            return f.map_to(big.ring), tuple(c.map_to(big.ring) for c in D)

        x_big, y_big = lift(x), lift(y)
        z = (tau * x_big[0] + y_big[0], big.h_add(big.h_scale(tau, x_big[1]), y_big[1]))
        w = x_big
        for _ in range(p - 1):
            w = big.lambda1_bracket(z, w)
        zero = self.ring.zero()
        function_parts = w[0].split_variable(tau_name)
        vector_parts = [c.split_variable(tau_name) for c in w[1]]
        out = []
        for i in range(1, p):
            inv_i = self.ring.field.inv(i)
            out.append((
                function_parts.get(i - 1, zero) * inv_i,
                tuple(parts.get(i - 1, zero) * inv_i for parts in vector_parts),
            ))
        return out

    @cached_property
    def _tau_extension(self):
        """This presentation over the ring with a fresh central variable tau
        adjoined, and tau's name: built once, for :meth:`lie_polynomials`."""
        big_ring, (tau_name,) = self.ring.adjoin("tau")
        return self.map_to(big_ring), tau_name

    def p_operation(self, D):
        """e -> e^[p] on a general element, extended from the basis table.

        A single-term element g*e_a maps to g^p e_a^[p] + (g delta_a)^{p-1}(g) e_a;
        multi-term elements are folded with Jacobson's correction terms
        sum_i s_i between the partial sum and the next term.
        """
        p, zero = self.p, self.ring.zero()
        result = partial = self.h_zero()
        for a, g in enumerate(D):
            if g.is_zero():
                continue
            term = self.h_scale(g, self.h_basis(a))
            correction = self.anchor[a].scale(g).apply_iter(g, p - 1)
            result = self.h_add(result, self.h_scale(g**p, self.p_op[a]))
            result = self.h_add(result, self.h_scale(correction, self.h_basis(a)))
            if not self.h_is_zero(partial):
                for _, s in self.lie_polynomials((zero, partial), (zero, term)):
                    result = self.h_add(result, s)
            partial = self.h_add(partial, term)
        return result

    # -- transport --------------------------------------------------------

    def map_polys(self, ring: PolyRing, fn) -> "AlgebroidPresentation":
        """This presentation over ``ring``, with ``fn`` applied to every
        polynomial of the bracket table, the p-operation table and the
        shift.  Each anchor keeps its component at every variable the two
        rings share and gets 0 at a new variable."""

        def vec(v):
            return tuple(fn(c) for c in v)

        def lift(d):
            comps = dict(zip(self.ring.variables, vec(d.components)))
            return Derivation(ring, tuple(comps.get(v, ring.zero()) for v in ring.variables))

        bracket = tuple(tuple(vec(v) for v in table) for table in self.bracket)
        anchor = tuple(lift(d) for d in self.anchor)
        p_op = tuple(vec(v) for v in self.p_op)
        shift = tuple((fn(f), vec(v)) for f, v in self.shift)
        return AlgebroidPresentation(ring, self.rank, bracket, anchor, p_op, shift)

    def map_to(self, big_ring: PolyRing) -> "AlgebroidPresentation":
        """The same presentation over a ring with extra variables, which are
        central: no anchor acts on them, so the shift values stay central."""
        return self.map_polys(big_ring, lambda c: c.map_to(big_ring))

    def __str__(self):
        return (
            f"algebroid of rank {self.rank} over "
            f"F_{self.p}[{', '.join(self.ring.variables)}]"
        )


# -- validators -------------------------------------------------------------


def validate_algebroid(A: AlgebroidPresentation, *, trials=10, seed=0, max_degree=3) -> ValidationReport:
    """Check the Lie algebroid axioms of a presentation.

    Antisymmetry and Jacobi are checked on all basis pairs/triples;
    the Leibniz rule on basis pairs against a monomial-plus-random panel;
    anchor compatibility delta([D1, D2]) = [delta(D1), delta(D2)] on all
    basis pairs.
    """
    rep = ValidationReport(f"algebroid axioms: {A}")
    m = A.rank

    bad = []
    for a in range(m):
        for b in range(m):
            for k in range(m):
                want = -A.bracket[b][a][k] if a != b else A.ring.zero()
                if A.bracket[a][b][k] != want:
                    bad.append(f"[e{a + 1},e{b + 1}] component {k + 1}")
    rep.check("antisymmetry", bad, pairs=m * m)

    bad = []
    for a in range(m):
        for b in range(a, m):
            for c in range(b, m):
                ea, eb, ec = A.h_basis(a), A.h_basis(b), A.h_basis(c)
                total = A.h_bracket(ea, A.h_bracket(eb, ec))
                total = A.h_add(total, A.h_bracket(eb, A.h_bracket(ec, ea)))
                total = A.h_add(total, A.h_bracket(ec, A.h_bracket(ea, eb)))
                if not A.h_is_zero(total):
                    bad.append(f"(e{a + 1},e{b + 1},e{c + 1})")
    rep.check("jacobi", bad)

    panel = poly_panel(A.ring, trials, seed=seed, max_degree=max_degree)
    bad = []
    for a in range(m):
        for b in range(m):
            ea, eb = A.h_basis(a), A.h_basis(b)
            for f in panel:
                lhs = A.h_bracket(ea, A.h_scale(f, eb))
                rhs = A.h_add(
                    A.h_scale(f, A.h_bracket(ea, eb)),
                    A.h_scale(A.anchor[a](f), eb),
                )
                if lhs != rhs:
                    bad.append(f"[e{a + 1}, ({f})*e{b + 1}]")
    rep.check("leibniz", bad, shown=3, panel=len(panel))

    bad = [
        f"(e{a + 1},e{b + 1})"
        for a, b in itertools.product(range(m), repeat=2)
        if A.anchor_of(A.bracket[a][b]) != A.anchor[a].commutator(A.anchor[b])
    ]
    rep.check("anchor_bracket_compatibility", bad)
    return rep


def validate_p_structure(A: AlgebroidPresentation, *, trials=10, seed=0, max_degree=3) -> ValidationReport:
    """Check the restricted-structure axioms of the p-operation table.

    Assumes :func:`validate_algebroid` passed.  The compatibility of the
    anchor with the p-operation, delta(D^[p]) = delta(D)^p, is reported in
    its own section: it holds in all the families built here but is
    validated separately rather than assumed.
    """
    rep = ValidationReport(f"restricted structure: {A}")
    m, p = A.rank, A.p
    rng = random.Random(seed)

    bad = []
    for a in range(m):
        for b in range(m):
            lhs = A.h_bracket(A.p_op[a], A.h_basis(b))
            ea, rhs = A.h_basis(a), A.h_basis(b)
            for _ in range(p):
                rhs = A.h_bracket(ea, rhs)
            if lhs != rhs:
                bad.append(f"ad(e{a + 1}^[p])(e{b + 1})")
    rep.check("ad_axiom_on_basis", bad)

    def additivity_with_lie_polynomials():
        d1 = random_vector(rng, A.ring, m, max_degree)
        d2 = random_vector(rng, A.ring, m, max_degree)
        lhs = A.p_operation(A.h_add(d1, d2))
        rhs = A.h_add(A.p_operation(d1), A.p_operation(d2))
        for _, s in A.lie_polynomials((A.ring.zero(), d1), (A.ring.zero(), d2)):
            rhs = A.h_add(rhs, s)
        if lhs != rhs:
            return f"D1=({', '.join(map(str, d1))}), D2=({', '.join(map(str, d2))})"

    def function_multiple_rule():
        f = random_poly(rng, A.ring, max_degree)
        D = random_vector(rng, A.ring, m, max_degree)
        lhs = A.p_operation(A.h_scale(f, D))
        correction = A.anchor_of(A.h_scale(f, D)).apply_iter(f, p - 1)
        rhs = A.h_add(A.h_scale(f**p, A.p_operation(D)), A.h_scale(correction, D))
        if lhs != rhs:
            return f"f={f}, D=({', '.join(map(str, D))})"

    # (f delta_D)^{p-1}(f) = -f delta_D^{p-1}(f^{p-1}): the sign is
    # (p-1)! = -1 by Wilson's theorem.
    def iterated_anchor_identity():
        f = random_poly(rng, A.ring, max_degree)
        D = random_vector(rng, A.ring, m, max_degree)
        nu = A.anchor_of(D)
        if nu.scale(f).apply_iter(f, p - 1) != -(f * nu.apply_iter(f ** (p - 1), p - 1)):
            return f"f={f}, D=({', '.join(map(str, D))})"

    rep.run_cases(
        [additivity_with_lie_polynomials, function_multiple_rule, iterated_anchor_identity],
        trials,
    )

    bad = [f"e{a + 1}" for a in range(m) if A.anchor_of(A.p_op[a]) != A.anchor[a].pth_power()]
    rep.check("anchor_restricted_compatibility", bad, section="anchor_compatibility")
    return rep


# -- standard families -------------------------------------------------------


def tangent_algebroid(ring: PolyRing) -> AlgebroidPresentation:
    """Coordinate vector fields with the identity anchor and the p-th power
    of derivations as p-operation.  On a ring with a deformation variable
    only the ordinary coordinate directions appear."""
    coords = ring.coordinate_indices()
    m = len(coords)
    zero_vec = tuple(ring.zero() for _ in range(m))
    bracket = tuple(tuple(zero_vec for _ in range(m)) for _ in range(m))
    anchor = tuple(Derivation.coordinate(ring, j) for j in coords)
    # (d/dx_j)^p kills every variable, so each p-th power is the zero field
    p_op = tuple(zero_vec for _ in range(m))
    return AlgebroidPresentation(ring, m, bracket, anchor, p_op)


def higgs_algebroid(ring: PolyRing, rank: int, alpha) -> AlgebroidPresentation:
    """Zero bracket and anchor; the p-operation is the p-linear map with
    basis values alpha[a] = coefficient vector of e_a^[p]."""
    zero_vec = tuple(ring.zero() for _ in range(rank))
    bracket = tuple(tuple(zero_vec for _ in range(rank)) for _ in range(rank))
    anchor = tuple(Derivation.zero(ring) for _ in range(rank))
    p_op = tuple(tuple(row) for row in alpha)
    return AlgebroidPresentation(ring, rank, bracket, anchor, p_op)


def rees_algebroid(A: AlgebroidPresentation) -> AlgebroidPresentation:
    """The one-parameter deformation over the ring extended by t: bracket
    and anchor are scaled by t, the p-operation by t^(p-1).  At t = 1 this
    recovers A; at t = 0 the bracket and anchor vanish and the p-operation
    becomes the trivial one."""
    if A.shift:
        raise ValueError("the Rees deformation of a shifted p-structure is not supported")
    if A.ring.rees_variable is not None:
        raise ValueError("deformation variable already present")
    if "t" in A.ring.variables:
        raise ValueError("variable 't' already used by the ring")
    big_ring = PolyRing(A.ring.field, A.ring.variables + ("t",), "t")
    big = A.map_to(big_ring)
    t = big_ring.variable("t")
    bracket = tuple(
        tuple(tuple(t * c for c in vec) for vec in table) for table in big.bracket
    )
    anchor = tuple(d.scale(t) for d in big.anchor)
    tp = t ** (A.p - 1)
    p_op = tuple(tuple(tp * c for c in vec) for vec in big.p_op)
    return AlgebroidPresentation(big_ring, A.rank, bracket, anchor, p_op)


def specialize_t(A: AlgebroidPresentation, value: int) -> AlgebroidPresentation:
    """Substitute a field constant for the deformation variable and drop it."""
    if A.shift:
        raise ValueError("specializing a shifted p-structure is not supported")
    name = A.ring.rees_variable
    if name is None:
        raise ValueError("no deformation variable to specialize")
    return A.map_polys(A.ring.without(name), lambda c: c.substitute_constant(name, value))


# -- p-structure shifts ------------------------------------------------------


def shift_p_structure(A: AlgebroidPresentation, phi) -> AlgebroidPresentation:
    """A with its p-operation shifted on basis elements,
    e_a^[p]' = e_a^[p] + phi_a, one value per basis element given as a
    polynomial or a degree-at-most-1 operator over A (often a function
    whose ordinary exponents are all divisible by p).

    Each value is checked to be central in the enveloping algebra; a
    non-central value is rejected, since the shifted operation would
    violate the ad-axiom.
    """
    from . import operators

    if A.shift:
        raise ValueError("the p-structure is already shifted")
    shift = []
    for v in phi:
        if isinstance(v, Poly):
            v = operators.from_poly(A, v)
        if v.algebroid != A:
            raise ValueError("shift value over a different algebroid")
        if v.degree() > 1:
            raise ValueError("shift values must have filtration degree at most 1")
        if not v.is_central():
            raise ValueError(f"shift value {v} is not central")
        shift.append(v.lambda1_parts())
    return replace(A, shift=tuple(shift))


# -- anchor surjectivity -----------------------------------------------------


def anchor_generic_surjectivity(A: AlgebroidPresentation):
    """Whether the anchor hits all coordinate directions at the generic
    point: true iff some maximal minor of the coordinate-by-generator
    anchor matrix is a nonzero polynomial.  Returns (flag, witness minor).
    """
    coords = A.ring.coordinate_indices()
    n = len(coords)
    matrix = [[A.anchor[a].components[j] for a in range(A.rank)] for j in coords]
    for cols in itertools.combinations(range(A.rank), n):
        minor = det([[matrix[i][c] for c in cols] for i in range(n)])
        if not minor.is_zero():
            return True, minor
    return False, None
