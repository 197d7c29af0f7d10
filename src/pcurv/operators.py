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

from .algebroid import AlgebroidPresentation, PStructureShift
from .poly import Poly, ResourceLimitError, power, render_terms
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
        return self.algebroid == other.algebroid and self.terms == other.terms

    def __hash__(self):
        return hash((self.algebroid, frozenset(self.terms.items())))

    def _check(self, other):
        if self.algebroid != other.algebroid:
            raise ValueError("operators over different algebroids")

    # -- additive structure --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Poly):
            other = from_poly(self.algebroid, other)
        if not isinstance(other, OperatorElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for beta, f in other.terms.items():
            s = out.get(beta)
            s = f if s is None else s + f
            if s.is_zero():
                out.pop(beta, None)
            else:
                out[beta] = s
        return OperatorElement(self.algebroid, out)

    __radd__ = __add__

    def __neg__(self):
        return OperatorElement(self.algebroid, {b: -f for b, f in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Poly):
            other = from_poly(self.algebroid, other)
        if not isinstance(other, OperatorElement):
            return NotImplemented
        return self + (-other)

    def scale(self, f: Poly) -> "OperatorElement":
        """Left multiplication by a function (acts on coefficients)."""
        out = {}
        for beta, g in self.terms.items():
            fg = f * g
            if not fg.is_zero():
                out[beta] = fg
        return OperatorElement(self.algebroid, out)

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Poly):
            other = from_poly(self.algebroid, other)
        if not isinstance(other, OperatorElement):
            return NotImplemented
        self._check(other)
        A = self.algebroid
        out = zero(A)
        for beta, f in self.terms.items():
            acc = other
            # e^beta * other, peeled from the innermost (largest) generator
            for a in reversed(_expand_multi_index(beta)):
                acc = _generator_times(A, a, acc)
            out = out + acc.scale(f)
            if len(out.terms) > TERM_LIMIT:
                raise ResourceLimitError("normal form exceeds the configured size bound")
        return out

    def __rmul__(self, other):
        if isinstance(other, Poly):
            return from_poly(self.algebroid, other) * self
        return NotImplemented

    def __pow__(self, k: int) -> "OperatorElement":
        return power(self, k, one(self.algebroid))

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

    def top_symbol(self) -> "SymbolElement":
        """The image in the top graded piece Sym^k(H), k the filtration degree."""
        k = max(self.degree(), 0)
        terms = {b: f for b, f in self.terms.items() if sum(b) == k}
        return SymbolElement(self.algebroid, k, terms)

    def is_central(self) -> bool:
        """True iff the element commutes with all ring variables and all
        generators (these generate the algebra)."""
        A = self.algebroid
        for name in A.ring.variables:
            if not self.commutator(from_poly(A, A.ring.variable(name))).is_zero():
                return False
        for a in range(A.rank):
            if not self.commutator(generator(A, a)).is_zero():
                return False
        return True

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        return render_terms([f"e{a + 1}" for a in range(self.algebroid.rank)], self.terms)

    def __repr__(self):
        return f"OperatorElement({self})"


class SymbolElement:
    """A homogeneous element of Sym^k(H): commutative monomials in the
    generator symbols with polynomial coefficients."""

    __slots__ = ("algebroid", "sym_degree", "terms")

    def __init__(self, algebroid, sym_degree: int, terms: dict):
        self.algebroid = algebroid
        self.sym_degree = sym_degree
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SymbolElement):
            return NotImplemented
        return (
            self.algebroid == other.algebroid
            and self.sym_degree == other.sym_degree
            and self.terms == other.terms
        )

    def __mul__(self, other):
        if self.algebroid != other.algebroid:
            raise ValueError("symbols over different algebroids")
        out: dict = {}
        for ba, fa in self.terms.items():
            for bb, fb in other.terms.items():
                b = tuple(i + j for i, j in zip(ba, bb))
                f = fa * fb
                s = out.get(b)
                s = f if s is None else s + f
                if s.is_zero():
                    out.pop(b, None)
                else:
                    out[b] = s
        return SymbolElement(self.algebroid, self.sym_degree + other.sym_degree, out)

    def __pow__(self, k: int):
        A = self.algebroid
        return power(self, k, SymbolElement(A, 0, {(0,) * A.rank: A.ring.one()}))

    def __str__(self):
        op = OperatorElement(self.algebroid, self.terms)
        return str(op)

    def __repr__(self):
        return f"SymbolElement(degree {self.sym_degree}: {self})"


# -- constructors ---------------------------------------------------------------


def zero(A: AlgebroidPresentation) -> OperatorElement:
    return OperatorElement(A, {})


def one(A: AlgebroidPresentation) -> OperatorElement:
    return from_poly(A, A.ring.one())


def from_poly(A: AlgebroidPresentation, f: Poly) -> OperatorElement:
    if f.ring != A.ring:
        raise ValueError("polynomial from a different ring")
    if f.is_zero():
        return zero(A)
    return OperatorElement(A, {(0,) * A.rank: f})


def generator(A: AlgebroidPresentation, a: int) -> OperatorElement:
    beta = tuple(1 if k == a else 0 for k in range(A.rank))
    return OperatorElement(A, {beta: A.ring.one()})


def from_h_element(A: AlgebroidPresentation, coeffs) -> OperatorElement:
    out = {}
    for a, g in enumerate(coeffs):
        if not g.is_zero():
            out[tuple(1 if k == a else 0 for k in range(A.rank))] = g
    return OperatorElement(A, out)


def from_lambda1(A: AlgebroidPresentation, f: Poly, coeffs) -> OperatorElement:
    return from_poly(A, f) + from_h_element(A, coeffs)


# -- rewriting core ---------------------------------------------------------------


def _expand_multi_index(beta):
    out = []
    for a, k in enumerate(beta):
        out.extend([a] * k)
    return out


def _generator_times(A: AlgebroidPresentation, a: int, op: OperatorElement) -> OperatorElement:
    """e_a * op in normal form."""
    out = zero(A)
    delta_a = A.anchor[a]
    for beta, f in op.terms.items():
        # e_a * f e^beta = f * (e_a e^beta) + delta_a(f) e^beta
        out = out + _generator_times_monomial(A, a, beta).scale(f)
        df = delta_a(f)
        if not df.is_zero():
            out = out + OperatorElement(A, {beta: df})
    return out


def _generator_times_monomial(A: AlgebroidPresentation, a: int, beta) -> OperatorElement:
    """e_a * e^beta in normal form."""
    support = [c for c, k in enumerate(beta) if k]
    if not support or a <= support[0]:
        bumped = tuple(k + 1 if c == a else k for c, k in enumerate(beta))
        return OperatorElement(A, {bumped: A.ring.one()})
    b = support[0]
    rest = tuple(k - 1 if c == b else k for c, k in enumerate(beta))
    # e_a e^beta = e_b (e_a e^rest) + [e_a, e_b] e^rest
    result = _generator_times(A, b, _generator_times_monomial(A, a, rest))
    bracket_ab = from_h_element(A, A.bracket[a][b])
    if not bracket_ab.is_zero():
        result = result + bracket_ab * OperatorElement(A, {rest: A.ring.one()})
    return result


# -- p-structure on degree-at-most-1 elements ------------------------------------


def _base_algebroid(structure) -> AlgebroidPresentation:
    if isinstance(structure, PStructureShift):
        return structure.base
    return structure


def p_operation_lambda1(structure, op: OperatorElement) -> OperatorElement:
    """The p-operation extended to filtration degree 1:

        (f + D)^[p] = f^p + D^[p] + delta_D^{p-1}(f)

    with D^[p] taken from the presentation (plus the central shift values
    when ``structure`` is a :class:`PStructureShift`)."""
    A = _base_algebroid(structure)
    if op.algebroid != A:
        raise ValueError("operator over a different algebroid")
    p = A.p
    f, coeffs = op.lambda1_parts()
    h_value = A.p_operation(coeffs)
    correction = A.anchor_of(coeffs).apply_iter(f, p - 1)
    out = from_lambda1(A, f**p + correction, h_value)
    if isinstance(structure, PStructureShift):
        for g, phi_a in zip(coeffs, structure.phi):
            if not g.is_zero():
                out = out + phi_a.scale(g**p)
    return out


def p_curvature_element(structure, op: OperatorElement, check_central=True) -> OperatorElement:
    """op^p - op^[p]: the central element whose action on any module is the
    p-curvature in the direction of op.  Functions map to 0; over the
    tangent algebroid the coordinate fields map to their plain p-th powers.
    """
    A = _base_algebroid(structure)
    value = op**A.p - p_operation_lambda1(structure, op)
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
    if x.algebroid != y.algebroid:
        raise ValueError("operators over different algebroids")
    A = x.algebroid
    pairs = A.lie_polynomials(x.lambda1_parts(), y.lambda1_parts())
    return [from_lambda1(A, f, coeffs) for f, coeffs in pairs]


# -- battery of enveloping-algebra identities -------------------------------------


def check_enveloping_p_structure(structure, *, trials=10, seed=0, max_degree=3) -> ValidationReport:
    """Verify, inside the normal-form algebra, that the presentation's
    p-operation extends to a p-structure on filtration degree 1, together
    with the classical associated identities (Jacobson's formula, the
    twisted scaling rules for derivations, and the behaviour of the
    universal Lie polynomials against functions).

    All checks are exact on seeded random panels.  Note that the scaling
    identity relating (f*D)^p to D^p carries the constant (p-1)! = -1
    (Wilson's theorem) in front of the f*delta^{p-1}(f^{p-1})*D term.
    """
    import random as _random

    from .panels import random_poly, random_vector

    A = _base_algebroid(structure)
    rep = ValidationReport(f"enveloping p-structure: {A}")
    p = A.p
    rng = _random.Random(seed)

    def rand_h(max_terms=2):
        return random_vector(rng, A.ring, A.rank, max_degree, max_terms)

    def rand_lambda1():
        return from_lambda1(A, random_poly(rng, A.ring, max_degree, 2), rand_h())

    probes = [from_poly(A, A.ring.variable(v)) for v in A.ring.variables]
    probes += [generator(A, a) for a in range(A.rank)]

    bad = []
    for _ in range(trials):
        d = rand_lambda1()
        dp = p_operation_lambda1(structure, d)
        for e in probes:
            lhs = dp.commutator(e)
            rhs = e
            for _ in range(p):
                rhs = d.commutator(rhs)
            if lhs != rhs:
                bad.append(f"D={d}, E={e}")
    rep.add("ad_axiom_on_degree_one", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        x, y = rand_lambda1(), rand_lambda1()
        lhs = (x + y) ** p
        rhs = x**p + y**p
        for s in lie_polynomials(x, y):
            rhs = rhs + s
        if lhs != rhs:
            bad.append(f"x={x}, y={y}")
    rep.add("jacobson_identity", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        x, y = rand_lambda1(), rand_lambda1()
        lhs = p_operation_lambda1(structure, x + y)
        rhs = p_operation_lambda1(structure, x) + p_operation_lambda1(structure, y)
        for s in lie_polynomials(x, y):
            rhs = rhs + s
        if lhs != rhs:
            bad.append(f"x={x}, y={y}")
    rep.add("additivity_with_lie_polynomials", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        f = random_poly(rng, A.ring, max_degree, 2)
        d = rand_lambda1()
        _, coeffs = d.lambda1_parts()
        delta_fd = A.anchor_of(coeffs).scale(f)
        lhs = p_operation_lambda1(structure, d.scale(f))
        rhs = p_operation_lambda1(structure, d).scale(f**p) + d.scale(
            delta_fd.apply_iter(f, p - 1)
        )
        if lhs != rhs:
            bad.append(f"f={f}, D={d}")
    rep.add("function_multiple_rule", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        f = random_poly(rng, A.ring, max_degree, 2)
        d = from_h_element(A, rand_h())
        _, coeffs = d.lambda1_parts()
        nu = A.anchor_of(coeffs)
        lhs = d.scale(f) ** p
        rhs = (d**p).scale(f**p) - d.scale(f * nu.apply_iter(f ** (p - 1), p - 1))
        if lhs != rhs:
            bad.append(f"f={f}, D={d}")
    rep.add("deligne_identity", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        f = random_poly(rng, A.ring, max_degree, 2)
        nu = A.anchor_of(rand_h())
        lhs = nu.scale(f).pth_power()
        rhs_components = tuple(
            f**p * c for c in nu.pth_power().components
        )
        correction = nu.scale(f).apply_iter(f, p - 1)
        rhs_components = tuple(
            rc + correction * c for rc, c in zip(rhs_components, nu.components)
        )
        if lhs.components != rhs_components:
            bad.append(f"f={f}, nu={nu}")
    rep.add("hochschild_identity", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        f = random_poly(rng, A.ring, max_degree, 2)
        nu = A.anchor_of(rand_h())
        lhs = nu.scale(f).apply_iter(f, p - 1)
        rhs = -(f * nu.apply_iter(f ** (p - 1), p - 1))
        if lhs != rhs:
            bad.append(f"f={f}, nu={nu}")
    rep.add("iterated_anchor_identity", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        f = random_poly(rng, A.ring, max_degree, 2)
        d = from_h_element(A, rand_h())
        _, coeffs = d.lambda1_parts()
        nu = A.anchor_of(coeffs)
        ss = lie_polynomials(d, from_poly(A, f))
        for i, s in enumerate(ss[:-1], start=1):
            if not s.is_zero():
                bad.append(f"s_{i}(D={d}, f={f}) = {s}")
        if ss[-1] != from_poly(A, nu.apply_iter(f, p - 1)):
            bad.append(f"s_{p - 1}(D={d}, f={f}) = {ss[-1]}")
    rep.add("lie_polynomials_against_functions", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        f1 = random_poly(rng, A.ring, max_degree, 2)
        f2 = random_poly(rng, A.ring, max_degree, 2)
        d1 = from_h_element(A, rand_h())
        d2 = from_h_element(A, rand_h())
        nu1 = A.anchor_of(d1.lambda1_parts()[1])
        nu2 = A.anchor_of(d2.lambda1_parts()[1])
        nu12 = nu1 + nu2
        lhs = from_poly(A, nu1.apply_iter(f1, p - 1) + nu2.apply_iter(f2, p - 1))
        for s in lie_polynomials(d1 + from_poly(A, f1), d2 + from_poly(A, f2)):
            lhs = lhs + s
        rhs = from_poly(A, nu12.apply_iter(f1 + f2, p - 1))
        for s in lie_polynomials(d1, d2):
            rhs = rhs + s
        if lhs != rhs:
            bad.append(f"f1={f1}, f2={f2}, D1={d1}, D2={d2}")
    rep.add("induced_additivity", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad = []
    for _ in range(trials):
        f = random_poly(rng, A.ring, max_degree, 2)
        g = random_poly(rng, A.ring, max_degree, 2)
        nu = A.anchor_of(rand_h())
        gnu = nu.scale(g)
        lhs = gnu.apply_iter(g * f, p - 1)
        rhs = g**p * nu.apply_iter(f, p - 1) + gnu.apply_iter(g, p - 1) * f
        if lhs != rhs:
            bad.append(f"f={f}, g={g}, nu={nu}")
    rep.add("iterated_delta_distributive", not bad, witness="; ".join(bad[:1]) or None, trials=trials)

    bad_central, bad_add, bad_scale, bad_symbol = [], [], [], []
    for _ in range(trials):
        d1, d2 = rand_lambda1(), rand_lambda1()
        f = random_poly(rng, A.ring, max_degree, 2)
        i1 = p_curvature_element(structure, d1, check_central=False)
        i2 = p_curvature_element(structure, d2, check_central=False)
        if not i1.is_central():
            bad_central.append(f"D={d1}")
        if p_curvature_element(structure, d1 + d2, check_central=False) != i1 + i2:
            bad_add.append(f"D1={d1}, D2={d2}")
        if p_curvature_element(structure, d1.scale(f), check_central=False) != i1.scale(f**p):
            bad_scale.append(f"f={f}, D={d1}")
        h = from_h_element(A, rand_h())
        if not h.is_zero():
            ih = p_curvature_element(structure, h, check_central=False)
            if ih.top_symbol() != h.top_symbol() ** p:
                bad_symbol.append(f"D={h}")
    rep.add("p_curvature_element_central", not bad_central, witness="; ".join(bad_central[:1]) or None, trials=trials)
    rep.add("p_curvature_element_additive", not bad_add, witness="; ".join(bad_add[:1]) or None, trials=trials)
    rep.add("p_curvature_element_p_linear", not bad_scale, witness="; ".join(bad_scale[:1]) or None, trials=trials)
    rep.add("top_symbol_of_p_curvature_element", not bad_symbol, witness="; ".join(bad_symbol[:1]) or None, trials=trials)
    return rep
