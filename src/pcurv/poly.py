"""Exact sparse multivariate polynomial arithmetic over a prime field F_p.

A polynomial in F_p[x_1, ..., x_n] is stored as a dictionary mapping
exponent tuples to nonzero coefficients in {1, ..., p-1}:

    2*x*y + 4*y   over F_5, variables (x, y)
        ->  {(1, 1): 2, (0, 1): 4}

The zero polynomial is the empty dictionary.  Every operation reduces
coefficients modulo p and drops zero terms, so structural equality of the
term dictionaries is semantic equality.  Values are never mutated after
construction and every operation returns a fresh value; they can be shared
freely between threads.

A ring may flag one variable as a deformation parameter (``rees_variable``,
conventionally named ``t``).  The Frobenius pullback multiplies every
ordinary exponent by p but leaves the deformation exponent alone, and
p-th-root extraction correspondingly only requires divisibility of the
ordinary exponents.  Over the prime field each coefficient is its own p-th
root (a^p = a), so root extraction is purely an exponent operation; a
failed extraction is reported as a :class:`NotDescendable` value carrying
the offending monomials, not as an exception.

The text grammar accepted by :func:`parse_poly` (and produced by ``str``):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := INT | VAR | VAR '^' UINT | '(' expr ')'

A single leading sign is also accepted on input.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass

# Degrees past this bound abort with ResourceLimitError; exact arithmetic
# never overflows, the bound only stops runaway computations.
DEGREE_LIMIT = 10**6


class ResourceLimitError(RuntimeError):
    """A computation exceeded the configured degree or size bound."""


class PolyParseError(ValueError):
    """Syntax error in a polynomial expression, with source position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def power(base, k: int, one, mul=operator.mul):
    """base ** k by square-and-multiply, starting from ``one``; the one
    power loop behind every element type's ``**``."""
    if k < 0:
        raise ValueError("negative exponent")
    result = one
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def render_monomial(names, exponents) -> str:
    """``x*y^2`` for the exponents (1, 2) of the names (x, y); empty for
    the unit monomial."""
    return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, exponents) if k)


def render_terms(names, terms: dict) -> str:
    """A sum of coefficient * monomial terms, keyed by exponent tuples over
    ``names``: total degree descending, then exponents descending.  A unit
    coefficient is dropped and a coefficient that is itself a sum is
    bracketed."""
    chunks = []
    for e, c in sorted(terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True):
        mono, cs = render_monomial(names, e), str(c)
        if not mono:
            chunks.append(cs)
        elif cs == "1":
            chunks.append(mono)
        elif "+" in cs:
            chunks.append(f"({cs})*{mono}")
        else:
            chunks.append(f"{cs}*{mono}")
    return " + ".join(chunks) or "0"


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p.  Descent theorems require p > 2; p = 2 is
    accepted for plain algebra but flagged with a warning.  A prime above
    ``DEGREE_LIMIT`` raises :class:`ResourceLimitError`: no p-th power
    could be formed over it."""

    p: int

    def __post_init__(self):
        if self.p > DEGREE_LIMIT:
            raise ResourceLimitError(
                f"p = {self.p} exceeds the degree bound {DEGREE_LIMIT}: x^p cannot be formed"
            )
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.p == 2:
            warnings.warn(
                "p = 2: algebra operations are available but the descent "
                "theorems require an odd prime",
                stacklevel=3,
            )

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in prime field")
        return pow(a, self.p - 2, self.p)


@dataclass(frozen=True)
class PolyRing:
    """F_p[x_1, ..., x_n], optionally with one flagged deformation variable."""

    field: PrimeField
    variables: tuple[str, ...]
    rees_variable: str | None = None

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        if len(names) == 0:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"invalid variable name {name!r}")
        if self.rees_variable is not None and self.rees_variable not in names:
            raise ValueError(
                f"deformation variable {self.rees_variable!r} is not a ring variable"
            )

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def rees_index(self) -> int | None:
        if self.rees_variable is None:
            return None
        return self.variables.index(self.rees_variable)

    def coordinate_indices(self) -> tuple[int, ...]:
        """Indices of the ordinary (non-deformation) variables."""
        ri = self.rees_index
        return tuple(j for j in range(self.nvars) if j != ri)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        c %= self.p
        if c == 0:
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def variable(self, name_or_index) -> "Poly":
        if isinstance(name_or_index, str):
            j = self.variables.index(name_or_index)
        else:
            j = name_or_index
        exp = [0] * self.nvars
        exp[j] = 1
        return Poly(self, {tuple(exp): 1})

    def monomial(self, exponents, coefficient: int = 1) -> "Poly":
        c = coefficient % self.p
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        if c == 0:
            return Poly(self, {})
        return Poly(self, {exponents: c})

    def extended(self, *new_names: str) -> "PolyRing":
        """A ring with additional variables (appended after the existing ones)."""
        for name in new_names:
            if name in self.variables:
                raise ValueError(f"variable {name!r} already present")
        return PolyRing(self.field, self.variables + tuple(new_names), self.rees_variable)

    def without(self, *names: str) -> "PolyRing":
        """The ring with the named variables removed; the deformation flag
        goes with its variable."""
        for name in names:
            if name not in self.variables:
                raise ValueError(f"variable {name!r} is not a ring variable")
        keep = tuple(v for v in self.variables if v not in names)
        rees = self.rees_variable if self.rees_variable in keep else None
        return PolyRing(self.field, keep, rees)


class Poly:
    """A sparse multivariate polynomial.  Treat as immutable."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exp) for exp in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- ring operations -------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __neg__(self):
        p = self.ring.p
        return Poly(self.ring, {e: p - c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        p = self.ring.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = (out.get(e, 0) + c) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        if not self.terms or not other.terms:
            return Poly(self.ring, {})
        if self.total_degree() + other.total_degree() > DEGREE_LIMIT:
            raise ResourceLimitError("product degree exceeds the configured bound")
        p = self.ring.p
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                s = (out.get(e, 0) + ca * cb) % p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if self.terms and self.total_degree() * k > DEGREE_LIMIT:
            raise ResourceLimitError("power degree exceeds the configured bound")
        return power(self, k, self.ring.one())

    # -- calculus --------------------------------------------------------

    def derive(self, j: int) -> "Poly":
        """Formal partial derivative with respect to the j-th variable."""
        if not 0 <= j < self.ring.nvars:
            raise ValueError(f"variable index {j} out of range")
        p = self.ring.p
        out: dict = {}
        for e, c in self.terms.items():
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
        return Poly(self.ring, out)

    # -- Frobenius -------------------------------------------------------

    def frobenius(self) -> "Poly":
        """Pullback under the absolute Frobenius: every ordinary exponent is
        multiplied by p; the deformation exponent and all coefficients are
        fixed."""
        p = self.ring.p
        ri = self.ring.rees_index
        out = {}
        for e, c in self.terms.items():
            e2 = tuple(k if j == ri else k * p for j, k in enumerate(e))
            out[e2] = c
        return Poly(self.ring, out)

    def pth_root(self):
        """The polynomial g with g.frobenius() == self, if it exists.

        Requires every ordinary exponent to be divisible by p; otherwise a
        :class:`NotDescendable` listing the offending monomials is returned.
        """
        p = self.ring.p
        ri = self.ring.rees_index
        bad = []
        out = {}
        for e, c in sorted(self.terms.items()):
            if any(k % p for j, k in enumerate(e) if j != ri):
                bad.append((e, c))
                continue
            e2 = tuple(k if j == ri else k // p for j, k in enumerate(e))
            out[e2] = c
        if bad:
            return NotDescendable(self, tuple(bad))
        return Poly(self.ring, out)

    # -- substitution ----------------------------------------------------

    def map_to(self, ring: PolyRing) -> "Poly":
        """Reinterpret in a ring that contains all of this ring's variables."""
        if ring.field != self.ring.field:
            raise ValueError("rings have different prime fields")
        positions = [ring.variables.index(v) for v in self.ring.variables]
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * ring.nvars
            for pos, k in zip(positions, e):
                e2[pos] = k
            out[tuple(e2)] = c
        return Poly(ring, out)

    def split_variables(self, *names: str) -> dict:
        """Decompose as a polynomial in the named variables: a map from
        their exponent tuples to coefficients over the ring without them."""
        small = self.ring.without(*names)
        idxs = [self.ring.variables.index(n) for n in names]
        keep = [j for j in range(self.ring.nvars) if j not in idxs]
        parts: dict = {}
        for e, c in self.terms.items():
            key = tuple(e[j] for j in idxs)
            parts.setdefault(key, {})[tuple(e[j] for j in keep)] = c
        return {key: Poly(small, terms) for key, terms in parts.items()}

    def split_variable(self, name: str) -> dict:
        """:meth:`split_variables` for one variable, keyed by its exponent."""
        return {k: c for (k,), c in self.split_variables(name).items()}

    def substitute_constant(self, name: str, value: int) -> "Poly":
        """Substitute a field constant for one variable and drop it from the
        ring."""
        p = self.ring.p
        out = self.ring.without(name).zero()
        for (k,), coeff in self.split_variables(name).items():
            out = out + coeff * pow(value, k, p)
        return out

    # -- rendering -------------------------------------------------------

    def __str__(self):
        return render_terms(self.ring.variables, self.terms)

    def __repr__(self):
        return f"Poly({self})"


@dataclass(frozen=True)
class NotDescendable:
    """Failure value of p-th-root extraction: the monomials whose ordinary
    exponents are not divisible by p."""

    source: Poly
    offending: tuple

    def witness(self) -> str:
        ring = self.source.ring
        parts = [str(Poly(ring, {e: c})) for e, c in self.offending]
        return ", ".join(parts)

    def __str__(self):
        return f"NotDescendable({self.witness()})"


@dataclass(frozen=True)
class Derivation:
    """An F_p-linear derivation of the ring, sum(components[j] * d/dx_j).

    Determined by its values on the coordinates; acts on polynomials by the
    Leibniz rule.
    """

    ring: PolyRing
    components: tuple

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.ring.nvars:
            raise ValueError("one component per ring variable required")
        for c in self.components:
            if c.ring != self.ring:
                raise ValueError("component from a different ring")

    @classmethod
    def zero(cls, ring: PolyRing) -> "Derivation":
        return cls(ring, tuple(ring.zero() for _ in range(ring.nvars)))

    @classmethod
    def coordinate(cls, ring: PolyRing, j: int) -> "Derivation":
        comps = [ring.zero()] * ring.nvars
        comps[j] = ring.one()
        return cls(ring, tuple(comps))

    def __call__(self, f: Poly) -> Poly:
        if f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        out = self.ring.zero()
        for j, comp in enumerate(self.components):
            if comp:
                out = out + comp * f.derive(j)
        return out

    def apply_iter(self, f: Poly, k: int) -> Poly:
        for _ in range(k):
            f = self(f)
        return f

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "Derivation") -> "Derivation":
        if self.ring != other.ring:
            raise ValueError("derivations over different rings")
        return Derivation(
            self.ring, tuple(a + b for a, b in zip(self.components, other.components))
        )

    def scale(self, f: Poly) -> "Derivation":
        return Derivation(self.ring, tuple(f * c for c in self.components))

    def commutator(self, other: "Derivation") -> "Derivation":
        """[self, other], again a derivation."""
        comps = tuple(
            self(b) - other(a) for a, b in zip(self.components, other.components)
        )
        return Derivation(self.ring, comps)

    def pth_power(self) -> "Derivation":
        """The p-th power of the derivation.

        In characteristic p the p-fold composite of a derivation satisfies
        the Leibniz rule again, so it is the derivation determined by
        applying self p times to each coordinate.
        """
        p = self.ring.p
        comps = []
        for j in range(self.ring.nvars):
            comps.append(self.apply_iter(self.ring.variable(j), p))
        return Derivation(self.ring, tuple(comps))

    def map_to(self, ring: PolyRing) -> "Derivation":
        """Lift to a larger ring; the new variables are not acted on."""
        comps = {v: c.map_to(ring) for v, c in zip(self.ring.variables, self.components)}
        return Derivation(
            ring, tuple(comps.get(v, ring.zero()) for v in ring.variables)
        )

    def __str__(self):
        parts = [
            f"({c})*d/d{v}"
            for v, c in zip(self.ring.variables, self.components)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


# -- parsing ---------------------------------------------------------------


class _Parser:
    def __init__(self, src: str, ring: PolyRing):
        self.src = src
        self.ring = ring
        self.pos = 0

    def error(self, message):
        raise PolyParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.src[start : self.pos])

    def take_name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.src) and (
            self.src[self.pos].isalpha() or self.src[self.pos] == "_"
        ):
            self.pos += 1
            while self.pos < len(self.src) and (
                self.src[self.pos].isalnum() or self.src[self.pos] == "_"
            ):
                self.pos += 1
        if self.pos == start:
            self.error("expected a name")
        return self.src[start : self.pos]

    def parse_expr(self) -> Poly:
        sign = 1
        ch = self.peek()
        if ch in "+-":
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

    def parse_term(self) -> Poly:
        value = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.parse_expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return value
        if ch.isdigit():
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


def parse_poly(src: str, ring: PolyRing) -> Poly:
    """Parse a polynomial expression; coefficients are reduced mod p."""
    parser = _Parser(src, ring)
    value = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(src):
        parser.error("trailing input")
    return value


def det(matrix) -> Poly:
    """Exact determinant of a square matrix of polynomials, by cofactor
    expansion along the first row.  Intended for the small matrices that
    arise here (rank at most a handful)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return matrix[0][0]
    ring = matrix[0][0].ring
    total = ring.zero()
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [
            [matrix[i][k] for k in range(n) if k != j] for i in range(1, n)
        ]
        cofactor = entry * det(minor)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total
