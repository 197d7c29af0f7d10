"""The universal enveloping algebra of a Lie algebroid, in PBW normal form.

An element is a finite sum  sum_beta f_beta(x) * e^beta  where beta runs
over multi-indices in the generators e_1 < ... < e_m, each monomial
e^beta = e_1^b1 * ... * e_m^bm is written with generators in ascending
order, and the polynomial coefficients sit on the left.  Multiplication
rewrites out-of-order products using

    e_a * f    ->  f * e_a + delta_a(f)          (anchor action)
    e_b * e_a  ->  e_a * e_b + [e_b, e_a]        (for b > a)

until the normal form is reached; termination follows from the usual
filtration-plus-inversion-count descent and the normal form is unique for
presentations on free modules.  Over the tangent algebroid this is the
algebra of crystalline differential operators (a Weyl algebra).

The filtration degree of an element is the largest |beta| with nonzero
coefficient; degree-0 elements are the ring functions, degree-(at most)-1
elements f + sum g_a e_a are the ones a p-structure acts on.
"""

from __future__ import annotations

import random
from itertools import chain

from .algebroid import AlgebroidPresentation
from .panels import random_poly, random_vector
from .poly import Poly, ResourceLimitError, left_power, render_terms
from .report import ValidationReport

# Normal forms larger than this abort; guards runaway rewriting only.
TERM_LIMIT = 10**6


class OperatorElement:
    """An enveloping-algebra element in PBW normal form.  Treat as immutable."""

    __slots__ = ("algebroid", "terms")

    def __init__(self, algebroid: AlgebroidPresentation, terms: dict):
        self.algebroid = algebroid
        self.terms = terms

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Filtration degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(sum(beta) for beta in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        return (
            self.algebroid is other.algebroid or self.algebroid == other.algebroid
        ) and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebroid, frozenset(self.terms.items())))

    def _check(self, other):
        if self.algebroid is not other.algebroid and self.algebroid != other.algebroid:
            raise ValueError("operators over different algebroids")

    # -- additive structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        self._check(other)
        return _collect(self.algebroid, chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        return OperatorElement(self.algebroid, {b: -f for b, f in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        return self + (-other)

    def scale(self, f: Poly) -> "OperatorElement":
        """Left multiplication by a function (acts on coefficients)."""
        return _collect(self.algebroid, ((beta, f * g) for beta, g in self.terms.items()))

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, OperatorElement):
            return NotImplemented
        self._check(other)
        A = self.algebroid
        return _collect(A, (
            (gamma, f * g)
            for beta, f in self.terms.items()
            for gamma, g in _monomial_times(A, beta, other).terms.items()
        ))

    def __pow__(self, k: int) -> "OperatorElement":
        return left_power(self, k, one(self.algebroid))

    def commutator(self, other) -> "OperatorElement":
        return self * other - other * self

    # -- filtration pieces -----------------------------------------------------

    def function_part(self) -> Poly:
        """The degree-0 coefficient."""
        zero_beta = (0,) * self.algebroid.rank
        return self.terms.get(zero_beta, self.algebroid.ring.zero())

    def lambda1_parts(self):
        """Split a degree-at-most-1 element as (function, H coefficient vector)."""
        if self.degree() > 1:
            raise ValueError(f"operator has filtration degree {self.degree()} > 1")
        A = self.algebroid
        coeffs = list(A.h_zero())
        for beta, f in self.terms.items():
            if sum(beta) == 1:
                coeffs[beta.index(1)] = f
        return self.function_part(), tuple(coeffs)

    def top_symbol(self) -> Poly:
        """The image in the top graded piece Sym^k(H), k the filtration
        degree: a homogeneous polynomial of degree k in symbol variables
        e1, ..., em adjoined to the ring."""
        A = self.algebroid
        k = max(self.degree(), 0)
        ring, _ = A.ring.adjoin(*(f"e{a + 1}" for a in range(A.rank)))
        lift = (0,) * A.ring.nvars
        out = ring.zero()
        for beta, f in self.terms.items():
            if sum(beta) == k:
                out = out + f.map_to(ring) * ring.monomial(lift + beta)
        return out

    def is_central(self) -> bool:
        """True iff the element commutes with all ring variables and all
        generators (these generate the algebra)."""
        A = self.algebroid
        probes = [from_poly(A, A.ring.variable(name)) for name in A.ring.variables]
        probes += [generator(A, a) for a in range(A.rank)]
        return all(self.commutator(e).is_zero() for e in probes)

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        A = self.algebroid
        _, names = A.ring.adjoin(*(f"e{a + 1}" for a in range(A.rank)))
        return render_terms(names, self.terms)

    def __repr__(self):
        return f"OperatorElement({self})"


# -- constructors ---------------------------------------------------------------


def one(A: AlgebroidPresentation) -> OperatorElement:
    return from_poly(A, A.ring.one())


def from_poly(A: AlgebroidPresentation, f: Poly) -> OperatorElement:
    if f.ring != A.ring:
        raise ValueError("polynomial from a different ring")
    return _collect(A, [((0,) * A.rank, f)])


def generator(A: AlgebroidPresentation, a: int) -> OperatorElement:
    return from_h_element(A, A.h_basis(a))


def from_h_element(A: AlgebroidPresentation, coeffs) -> OperatorElement:
    units = (tuple(int(k == a) for k in range(A.rank)) for a in range(A.rank))
    return _collect(A, zip(units, coeffs))


def from_lambda1(A: AlgebroidPresentation, f: Poly, coeffs) -> OperatorElement:
    return from_poly(A, f) + from_h_element(A, coeffs)


# -- rewriting core ---------------------------------------------------------------


def _collect(A: AlgebroidPresentation, pairs) -> OperatorElement:
    """The sum of the (beta, coefficient) pairs: coefficients of equal
    multi-indices added, zero sums dropped.  Every merge of terms in this
    module goes through here."""
    out = {}
    get = out.get
    for beta, f in pairs:
        s = get(beta)
        if s is not None:
            f = s + f
        elif len(out) >= TERM_LIMIT:
            raise ResourceLimitError("normal form exceeds the configured size bound")
        out[beta] = f
    return OperatorElement(A, {beta: f for beta, f in out.items() if f})


def _monomial_times(A: AlgebroidPresentation, beta, op: OperatorElement) -> OperatorElement:
    """e^beta * op in normal form, peeled from the innermost (largest) generator."""
    for a in reversed(range(A.rank)):
        for _ in range(beta[a]):
            op = _collect(A, _generator_times(A, a, op.terms))
    return op


def _generator_times(A: AlgebroidPresentation, a: int, terms: dict):
    """The terms of e_a * sum(terms), in normal form but not collected."""
    delta_a = A.anchor[a]
    for beta, f in terms.items():
        # e_a * f e^beta = f * (e_a e^beta) + delta_a(f) e^beta
        for gamma, g in _generator_times_monomial(A, a, beta).items():
            yield gamma, f * g
        yield beta, delta_a(f)


def _generator_times_monomial(A: AlgebroidPresentation, a: int, beta) -> dict:
    """e_a * e^beta in normal form, as a dict {gamma: coefficient}: read
    from the presentation's PBW table ``A._pbw_table``, or derived and
    stored there.  Callers must not change the dict."""
    terms = A._pbw_table.get((a, beta))
    if terms is not None:
        return terms
    support = [c for c, k in enumerate(beta) if k]
    if not support or a <= support[0]:
        terms = {tuple(k + 1 if c == a else k for c, k in enumerate(beta)): A.ring.one()}
    else:
        b = support[0]
        rest = tuple(k - 1 if c == b else k for c, k in enumerate(beta))
        # e_a e^beta = e_b (e_a e^rest) + [e_a, e_b] e^rest
        pairs = _generator_times(A, b, _generator_times_monomial(A, a, rest))
        bracket_ab = from_h_element(A, A.bracket[a][b])
        if not bracket_ab.is_zero():
            pairs = chain(pairs, (bracket_ab * OperatorElement(A, {rest: A.ring.one()})).terms.items())
        terms = _collect(A, pairs).terms
    A._pbw_table[a, beta] = terms
    return terms


# -- p-structure on degree-at-most-1 elements ------------------------------------


def p_operation_lambda1(op: OperatorElement) -> OperatorElement:
    """The p-operation extended to filtration degree 1:

        (f + D)^[p] = f^p + D^[p] + delta_D^{p-1}(f)

    with D^[p] taken from the presentation ``op.algebroid``: for
    D = sum_a g_a e_a, its p-operation on H plus the central shift values
    sum_a g_a^p phi_a when the p-structure is shifted."""
    A = op.algebroid
    p = A.p
    f, coeffs = op.lambda1_parts()
    h_value = A.p_operation(coeffs)
    correction = A.anchor_of(coeffs).apply_iter(f, p - 1)
    out = from_lambda1(A, f**p + correction, h_value)
    for g, (phi_f, phi_h) in zip(coeffs, A.shift):
        if not g.is_zero():
            out = out + from_lambda1(A, phi_f, phi_h).scale(g**p)
    return out


def p_curvature_element(op: OperatorElement, check_central=True) -> OperatorElement:
    """op^p - op^[p]: the central element whose action on any module is the
    p-curvature in the direction of op.  Functions map to 0; over the
    tangent algebroid the coordinate fields map to their plain p-th powers.
    """
    value = op**op.algebroid.p - p_operation_lambda1(op)
    if check_central and not value.is_central():
        raise ValueError(
            f"p-curvature element of {op} is not central; the supplied "
            "p-operation does not satisfy the restricted axioms"
        )
    return value


def lie_polynomials(x: OperatorElement, y: OperatorElement):
    """The universal Lie polynomials s_1, ..., s_{p-1} of Jacobson's formula

        (x + y)^p = x^p + y^p + sum_i s_i(x, y)

    for inputs of filtration degree at most 1, computed on their
    (function, H-vector) parts by
    :meth:`~pcurv.algebroid.AlgebroidPresentation.lie_polynomials`.
    """
    x._check(y)
    A = x.algebroid
    pairs = A.lie_polynomials(x.lambda1_parts(), y.lambda1_parts())
    return [from_lambda1(A, f, coeffs) for f, coeffs in pairs]


# -- battery of enveloping-algebra identities -------------------------------------


def check_enveloping_p_structure(A: AlgebroidPresentation, *, trials=10, seed=0, max_degree=3) -> ValidationReport:
    """Verify, inside the normal-form algebra, that the presentation's
    p-operation, its shift included, extends to a p-structure on filtration
    degree 1, together with the classical associated identities (Jacobson's
    formula, the twisted scaling rules for derivations, and the behaviour
    of the universal Lie polynomials against functions).

    All checks are exact on seeded random panels.  Note that the scaling
    identity relating (f*D)^p to D^p carries the constant (p-1)! = -1
    (Wilson's theorem) in front of the f*delta^{p-1}(f^{p-1})*D term.
    """
    rep = ValidationReport(f"enveloping p-structure: {A}")
    p = A.p
    rng = random.Random(seed)

    def rand_poly():
        return random_poly(rng, A.ring, max_degree, 2)

    def rand_h():
        return random_vector(rng, A.ring, A.rank, max_degree)

    def rand_lambda1():
        return from_lambda1(A, rand_poly(), rand_h())

    probes = [from_poly(A, A.ring.variable(v)) for v in A.ring.variables]
    probes += [generator(A, a) for a in range(A.rank)]

    def ad_axiom_on_degree_one():
        d = rand_lambda1()
        dp = p_operation_lambda1(d)
        for e in probes:
            rhs = e
            for _ in range(p):
                rhs = d.commutator(rhs)
            if dp.commutator(e) != rhs:
                return f"D={d}, E={e}"

    def jacobson_identity():
        x, y = rand_lambda1(), rand_lambda1()
        if (x + y) ** p != sum(lie_polynomials(x, y), x**p + y**p):
            return f"x={x}, y={y}"

    def additivity_with_lie_polynomials():
        x, y = rand_lambda1(), rand_lambda1()
        lhs = p_operation_lambda1(x + y)
        rhs = p_operation_lambda1(x) + p_operation_lambda1(y)
        if lhs != sum(lie_polynomials(x, y), rhs):
            return f"x={x}, y={y}"

    def function_multiple_rule():
        f, d = rand_poly(), rand_lambda1()
        correction = A.anchor_of(d.lambda1_parts()[1]).scale(f).apply_iter(f, p - 1)
        rhs = p_operation_lambda1(d).scale(f**p) + d.scale(correction)
        if p_operation_lambda1(d.scale(f)) != rhs:
            return f"f={f}, D={d}"

    def deligne_identity():
        f, d = rand_poly(), from_h_element(A, rand_h())
        nu = A.anchor_of(d.lambda1_parts()[1])
        rhs = (d**p).scale(f**p) - d.scale(f * nu.apply_iter(f ** (p - 1), p - 1))
        if d.scale(f) ** p != rhs:
            return f"f={f}, D={d}"

    def hochschild_identity():
        f, nu = rand_poly(), A.anchor_of(rand_h())
        correction = nu.scale(f).apply_iter(f, p - 1)
        rhs = tuple(
            f**p * cp + correction * c
            for cp, c in zip(nu.pth_power().components, nu.components)
        )
        if nu.scale(f).pth_power().components != rhs:
            return f"f={f}, nu={nu}"

    def iterated_anchor_identity():
        f, nu = rand_poly(), A.anchor_of(rand_h())
        if nu.scale(f).apply_iter(f, p - 1) != -(f * nu.apply_iter(f ** (p - 1), p - 1)):
            return f"f={f}, nu={nu}"

    def lie_polynomials_against_functions():
        f, d = rand_poly(), from_h_element(A, rand_h())
        nu = A.anchor_of(d.lambda1_parts()[1])
        ss = lie_polynomials(d, from_poly(A, f))
        for i, s in enumerate(ss[:-1], start=1):
            if not s.is_zero():
                return f"s_{i}(D={d}, f={f}) = {s}"
        if ss[-1] != from_poly(A, nu.apply_iter(f, p - 1)):
            return f"s_{p - 1}(D={d}, f={f}) = {ss[-1]}"

    def induced_additivity():
        f1, f2 = rand_poly(), rand_poly()
        d1, d2 = from_h_element(A, rand_h()), from_h_element(A, rand_h())
        nu1 = A.anchor_of(d1.lambda1_parts()[1])
        nu2 = A.anchor_of(d2.lambda1_parts()[1])
        lhs = from_poly(A, nu1.apply_iter(f1, p - 1) + nu2.apply_iter(f2, p - 1))
        lhs = sum(lie_polynomials(d1 + from_poly(A, f1), d2 + from_poly(A, f2)), lhs)
        rhs = from_poly(A, (nu1 + nu2).apply_iter(f1 + f2, p - 1))
        if lhs != sum(lie_polynomials(d1, d2), rhs):
            return f"f1={f1}, f2={f2}, D1={d1}, D2={d2}"

    def iterated_delta_distributive():
        f, g = rand_poly(), rand_poly()
        nu = A.anchor_of(rand_h())
        gnu = nu.scale(g)
        rhs = g**p * nu.apply_iter(f, p - 1) + gnu.apply_iter(g, p - 1) * f
        if gnu.apply_iter(g * f, p - 1) != rhs:
            return f"f={f}, g={g}, nu={nu}"

    rep.run_cases(
        [
            ad_axiom_on_degree_one,
            jacobson_identity,
            additivity_with_lie_polynomials,
            function_multiple_rule,
            deligne_identity,
            hochschild_identity,
            iterated_anchor_identity,
            lie_polynomials_against_functions,
            induced_additivity,
            iterated_delta_distributive,
        ],
        trials,
    )

    # The four p-curvature-element checks share one draw per trial.
    bad_central, bad_add, bad_scale, bad_symbol = [], [], [], []
    for _ in range(trials):
        d1, d2 = rand_lambda1(), rand_lambda1()
        f = rand_poly()
        i1 = p_curvature_element(d1, check_central=False)
        i2 = p_curvature_element(d2, check_central=False)
        if not i1.is_central():
            bad_central.append(f"D={d1}")
        if p_curvature_element(d1 + d2, check_central=False) != i1 + i2:
            bad_add.append(f"D1={d1}, D2={d2}")
        if p_curvature_element(d1.scale(f), check_central=False) != i1.scale(f**p):
            bad_scale.append(f"f={f}, D={d1}")
        h = from_h_element(A, rand_h())
        if not h.is_zero():
            ih = p_curvature_element(h, check_central=False)
            if ih.top_symbol() != h.top_symbol() ** p:
                bad_symbol.append(f"D={h}")
    rep.check("p_curvature_element_central", bad_central, shown=1, trials=trials)
    rep.check("p_curvature_element_additive", bad_add, shown=1, trials=trials)
    rep.check("p_curvature_element_p_linear", bad_scale, shown=1, trials=trials)
    rep.check("top_symbol_of_p_curvature_element", bad_symbol, shown=1, trials=trials)
    return rep
