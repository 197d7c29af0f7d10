"""Exact sparse multivariate polynomial arithmetic over a prime field F_p.

A polynomial in F_p[x_1, ..., x_n] is stored as a dictionary mapping
packed monomials to nonzero coefficients in {1, ..., p-1}.  A monomial is
one int: its total degree in the top field, then x_1, ..., x_n in fields
of ``FIELD_BITS`` bits each, x_1 highest (after Monagan & Pearce,
*Polynomial division using dynamic arrays, heaps, and packed exponent
vectors*, CASC 2007):

    x*y^2 over (x, y)  ->  3 << 2B  |  1 << B  |  2        (B = FIELD_BITS)

so that

- a product of monomials is one int addition, and d/dx_j one subtraction;
- the total degree is ``key >> (n * FIELD_BITS)``;
- descending int order is total degree descending, then exponents
  descending: the order ``str`` prints terms in.

No field ever carries into the next: every way in, from exponent tuples
(:class:`Poly`, :meth:`PolyRing.monomial`, :meth:`Poly.map_to`) and from
the degree-raising operations (``*``, ``**``, :meth:`Poly.frobenius`,
:func:`kronecker_mat_mul`, :func:`katz_recurrence`, :func:`operator_word`,
:func:`charpoly_coefficients`), checks the total degree against
``DEGREE_LIMIT`` first and raises :class:`ResourceLimitError` above it;
every exponent is then at most the total degree, which fits in
``FIELD_BITS``.  ``Poly.terms`` shows the
same terms keyed by exponent tuples:

    2*x*y + 4*y   over F_5, variables (x, y)
        ->  terms {(1, 1): 2, (0, 1): 4}

The zero polynomial has no terms.  Every operation reduces coefficients
modulo p and drops zero terms, so structural equality of the term
dictionaries is semantic equality.  Values are never mutated after
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

A single leading sign is also accepted on input.  The input is read as
tokens: a run of ASCII digits (INT), a run of word characters (``str.isalnum``
or ``_``; a VAR starts with a letter or ``_``) or one other character, with
whitespace only between tokens; so ``x^²`` fails at ``²`` and ``2x`` at ``x``.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import struct
from collections.abc import Mapping
from dataclasses import dataclass

# Degrees past this bound abort with ResourceLimitError; exact arithmetic
# never overflows, the bound only stops runaway computations.
DEGREE_LIMIT = 10**6
# Width of one exponent field of a packed monomial: holds 0..DEGREE_LIMIT.
FIELD_BITS = DEGREE_LIMIT.bit_length()
FIELD_MASK = (1 << FIELD_BITS) - 1
# Parser bounds: deeper nesting or a longer integer literal is bad input,
# rejected before it can exhaust the stack or the int conversion limit.
NESTING_LIMIT = 200
LITERAL_DIGITS = 1000
# The packed terms of the polynomial 1: the unit monomial packs to key 0.
_UNIT = {0: 1}
# struct codes of little-endian unsigned ints: digits of these byte widths
# (every benchmark workload packs at 1 or 2) convert in C, not one by one.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


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
    """base ** k by square-and-multiply, starting from ``one``; the power
    loop of the commutative kernels (polynomials and polynomial matrices)."""
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


def left_power(base, k: int, one):
    """base * (base * ... (base * one)) with k factors: the power loop of
    the filtered, non-commutative element types (operators and matrices
    of operators).  Left-multiplying by an order-1 base costs about the
    size of the running product, so k factors cost O(k^2) generator
    rewrites, where squaring two order-k/2 products costs O(k^3).
    ``one`` may be any right factor, which then ends the product."""
    if k < 0:
        raise ValueError("negative exponent")
    result = one
    for _ in range(k):
        result = base * result
    return result


def render_monomial(names, exponents) -> str:
    """``x*y^2`` for the exponents (1, 2) of the names (x, y); empty for
    the unit monomial."""
    return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, exponents) if k)


def render_terms(names, terms: dict) -> str:
    """A sum of coefficient * monomial terms, keyed by exponent tuples over
    ``names``: total degree descending, then exponents descending."""
    return join_terms(
        names, sorted(terms.items(), key=lambda ec: (sum(ec[0]), ec[0]), reverse=True)
    )


def join_terms(names, items) -> str:
    """The sum of (exponent tuple, coefficient) pairs, in the order given.
    A unit coefficient is dropped and a coefficient that is itself a sum is
    bracketed."""
    chunks = []
    for e, c in items:
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
    """The prime field F_p.  p = 2 is accepted like any other prime; the
    descent entry points refuse it (``hitchin.validate_trace_flatness`` and
    ``hitchin.descend_invariants``, the ``hitchin``, ``descend`` and ``rees``
    commands).  A prime above ``DEGREE_LIMIT`` raises
    :class:`ResourceLimitError`: no p-th power could be formed over it."""

    p: int

    def __post_init__(self):
        if self.p > DEGREE_LIMIT:
            raise ResourceLimitError(
                f"p = {self.p} exceeds the degree bound {DEGREE_LIMIT}: x^p cannot be formed"
            )
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

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
        # Packed monomials: _offsets[j] is the bit position of x_j's field,
        # _steps[j] the key of x_j itself (degree 1, exponent 1 at x_j).
        n = len(names)
        offsets = tuple(FIELD_BITS * (n - 1 - j) for j in range(n))
        object.__setattr__(self, "_shift", FIELD_BITS * n)
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_steps", tuple((1 << self._shift) | (1 << o) for o in offsets))

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

    def _pack(self, exponents) -> int:
        """The packed key of an exponent tuple.  Every tuple becomes a key
        here, so every tuple is checked against the degree bound."""
        exponents = tuple(exponents)
        if len(exponents) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        if min(exponents) < 0:
            raise ValueError(f"negative exponent in {exponents}")
        key = sum(exponents)
        if key > DEGREE_LIMIT:
            raise ResourceLimitError(
                f"monomial degree {key} exceeds the degree bound {DEGREE_LIMIT}"
            )
        for k in exponents:
            key = (key << FIELD_BITS) | k
        return key

    def _unpack(self, key: int) -> tuple[int, ...]:
        return tuple((key >> o) & FIELD_MASK for o in self._offsets)

    def zero(self) -> "Poly":
        return _poly(self, {})

    def one(self) -> "Poly":
        return self.constant(1)

    def constant(self, c: int) -> "Poly":
        c %= self.p
        return _poly(self, {0: c} if c else {})

    def variable(self, name_or_index) -> "Poly":
        if isinstance(name_or_index, str):
            j = self.variables.index(name_or_index)
        else:
            j = name_or_index
        return _poly(self, {self._steps[j]: 1})

    def monomial(self, exponents, coefficient: int = 1) -> "Poly":
        return Poly(self, {tuple(exponents): coefficient})

    def adjoin(self, *bases: str) -> tuple["PolyRing", tuple[str, ...]]:
        """The ring with one fresh variable per base name appended, and the
        names chosen: each base itself if it is not taken yet, else the
        first of base0, base1, ... that is not."""
        names = list(self.variables)
        for base in bases:
            name, k = base, 0
            while name in names:
                name, k = f"{base}{k}", k + 1
            names.append(name)
        ring = PolyRing(self.field, tuple(names), self.rees_variable)
        return ring, tuple(names[self.nvars :])

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
    """A sparse multivariate polynomial.  Treat as immutable.

    ``Poly(ring, terms)`` takes a dictionary from exponent tuples to
    integer coefficients; the coefficients are reduced mod p."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PolyRing, terms: dict):
        p, pack = ring.p, ring._pack
        packed = {}
        for e, c in terms.items():
            key, c = pack(e), c % p
            if c:
                packed[key] = c
        self.ring = ring
        self._terms = packed

    @property
    def terms(self) -> "Terms":
        """The terms keyed by exponent tuples, a read-only view."""
        return Terms(self.ring, self._terms)

    # -- basic structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> self.ring._shift

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    # -- ring operations -------------------------------------------------

    def _check_ring(self, other: "Poly"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("polynomials from different rings")

    def __neg__(self):
        p = self.ring.p
        return _poly(self.ring, {k: p - c for k, c in self._terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        # Values are immutable, so a sum with 0 can be the other operand.
        if not other._terms:
            return self
        if not self._terms:
            return other
        p = self.ring.p
        out = dict(self._terms)
        for k, c in other._terms.items():
            s = (out.get(k, 0) + c) % p
            if s:
                out[k] = s
            else:
                del out[k]
        return _poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        big, small = self._terms, other._terms
        # Values are immutable, so a product by 1 can be the other factor.
        if small == _UNIT:
            return self
        if big == _UNIT:
            return other
        if not big or not small:
            return _poly(self.ring, {})
        # Within the bound every exponent fits its field, so adding keys
        # adds exponents field by field.
        if self.total_degree() + other.total_degree() > DEGREE_LIMIT:
            raise ResourceLimitError("product degree exceeds the configured bound")
        if len(big) < len(small):
            big, small = small, big
        p = self.ring.p
        if len(small) == 1:
            # Adding one key is injective and p is prime: nothing collects
            # and no coefficient vanishes.
            ((kb, cb),) = small.items()
            return _poly(self.ring, {ka + kb: ca * cb % p for ka, ca in big.items()})
        small = tuple(small.items())
        out: dict = {}
        get = out.get
        for ka, ca in big.items():
            for kb, cb in small:
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return _poly(self.ring, {k: r for k, c in out.items() if (r := c % p)})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if self._terms and self.total_degree() * k > DEGREE_LIMIT:
            raise ResourceLimitError("power degree exceeds the configured bound")
        return power(self, k, self.ring.one())

    # -- calculus --------------------------------------------------------

    def derive(self, j: int) -> "Poly":
        """Formal partial derivative with respect to the j-th variable."""
        if not 0 <= j < self.ring.nvars:
            raise ValueError(f"variable index {j} out of range")
        p = self.ring.p
        offset, step = self.ring._offsets[j], self.ring._steps[j]
        out = {}
        # Lowering x_j by one is injective on monomials: nothing collects.
        for key, c in self._terms.items():
            cc = c * ((key >> offset) & FIELD_MASK) % p
            if cc:
                out[key - step] = cc
        return _poly(self.ring, out)

    # -- Frobenius -------------------------------------------------------

    def frobenius(self) -> "Poly":
        """Pullback under the absolute Frobenius: every ordinary exponent is
        multiplied by p; the deformation exponent and all coefficients are
        fixed."""
        ring, p = self.ring, self.ring.p
        ri = ring.rees_index
        offset, step = (0, 0) if ri is None else (ring._offsets[ri], ring._steps[ri])
        out = {}
        for key, c in self._terms.items():
            # Scaling the key scales every field; the deformation exponent
            # is then put back, in its own field and in the degree.
            fixed = (key >> offset) & FIELD_MASK if step else 0
            if p * (key >> ring._shift) - (p - 1) * fixed > DEGREE_LIMIT:
                raise ResourceLimitError("Frobenius pullback degree exceeds the configured bound")
            out[p * key - (p - 1) * fixed * step] = c
        return _poly(ring, out)

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
        unpack = self.ring._unpack
        graded = sorted(self._terms.items(), reverse=True)
        return join_terms(self.ring.variables, ((unpack(key), c) for key, c in graded))

    def __repr__(self):
        return f"Poly({self})"


def _poly(ring: PolyRing, packed: dict) -> Poly:
    """A Poly straight from packed keys and reduced coefficients."""
    f = object.__new__(Poly)
    f.ring = ring
    f._terms = packed
    return f


class Terms(Mapping):
    """The terms of a :class:`Poly` keyed by exponent tuples: a read-only
    view that unpacks keys as it goes, with ``len`` in O(1)."""

    __slots__ = ("_ring", "_packed")

    def __init__(self, ring: PolyRing, packed: dict):
        self._ring = ring
        self._packed = packed

    def __len__(self):
        return len(self._packed)

    def __iter__(self):
        return map(self._ring._unpack, self._packed)

    def __getitem__(self, exponents):
        return self._packed[self._ring._pack(exponents)]

    def items(self):
        unpack = self._ring._unpack
        return [(unpack(key), c) for key, c in self._packed.items()]


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
        ring = self.ring
        if len(self.components) != ring.nvars:
            raise ValueError("one component per ring variable required")
        for c in self.components:
            if c.ring is not ring and c.ring != ring:
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
        if f.ring is not self.ring and f.ring != self.ring:
            raise ValueError("polynomial from a different ring")
        out = None
        for j, comp in enumerate(self.components):
            if not comp:
                continue
            term = f.derive(j) if comp._terms == _UNIT else comp * f.derive(j)
            out = term if out is None else out + term
        return self.ring.zero() if out is None else out

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

    def __str__(self):
        parts = [
            f"({c})*d/d{v}"
            for v, c in zip(self.ring.variables, self.components)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


# -- parsing ---------------------------------------------------------------

# The token rule of the module docstring: \w matches exactly where
# str.isalnum() or '_' holds, and \s where str.isspace() does.
_TOKEN = re.compile(r"[0-9]+|\w+|\S")


class _Parser:
    """Recursive descent over the tokens of ``src``, lexed lazily with one
    token of lookahead: ``tok`` is the next token and ``pos`` its position;
    at the end of input ``tok`` is "" and ``pos`` is len(src)."""

    def __init__(self, src: str, ring: PolyRing):
        self.ring = ring
        self.depth = 0
        self.end = len(src)
        self.tokens = _TOKEN.finditer(src)
        self.tok = ""
        self.advance()

    def advance(self) -> str:
        """Move past the next token and return its text."""
        tok = self.tok
        match = next(self.tokens, None)
        self.pos, self.tok = (match.start(), match.group()) if match else (self.end, "")
        return tok

    def error(self, message):
        raise PolyParseError(message, self.pos)

    def take_int(self) -> int:
        # ASCII only: str.isdigit takes '²' (int() rejects it) and '٣' (read as 3)
        if not "0" <= self.tok[:1] <= "9":
            self.error("expected an integer")
        if len(self.tok) > LITERAL_DIGITS:
            self.error(f"integer literal longer than {LITERAL_DIGITS} digits")
        return int(self.advance())

    def parse_expr(self) -> Poly:
        # a leading sign applies to the first term: -x is 0 - x
        value = self.ring.zero() if self.tok in ("+", "-") else self.parse_term()
        while self.tok in ("+", "-"):
            op = operator.add if self.advance() == "+" else operator.sub
            value = op(value, self.parse_term())
        return value

    def parse_term(self) -> Poly:
        value = self.parse_factor()
        while self.tok == "*":
            self.advance()
            value = value * self.parse_factor()
        return value

    def parse_factor(self) -> Poly:
        if self.tok == "(":
            if self.depth == NESTING_LIMIT:
                self.error(f"parentheses nested deeper than {NESTING_LIMIT}")
            self.advance()
            self.depth += 1
            value = self.parse_expr()
            if self.tok != ")":
                self.error("expected ')'")
            self.advance()
            self.depth -= 1
            return value
        if "0" <= self.tok[:1] <= "9":
            return self.ring.constant(self.take_int())
        if self.tok[:1].isalpha() or self.tok[:1] == "_":
            if self.tok not in self.ring.variables:
                self.error(f"unknown variable {self.tok!r}")
            value = self.ring.variable(self.advance())
            if self.tok != "^":
                return value
            self.advance()
            return value ** self.take_int()
        self.error("expected a factor")


def parse_poly(src: str, ring: PolyRing) -> Poly:
    """Parse a polynomial expression; coefficients are reduced mod p."""
    parser = _Parser(src, ring)
    value = parser.parse_expr()
    if parser.tok:
        parser.error("trailing input")
    return value


def _pack_first(f: Poly, w: int) -> dict:
    """f as a map from the packed key of each monomial's part without the
    first variable x to one int: sum c_e 2^(w e) over the x-degrees e of
    the terms with that part.  In a one-variable ring the only key is 0."""
    offset, step = f.ring._offsets[0], f.ring._steps[0]
    out = {}
    for key, c in f._terms.items():
        e = (key >> offset) & FIELD_MASK
        rest = key - e * step
        out[rest] = out.get(rest, 0) | c << w * e
    return out


def _digits(n: int, nbytes: int, p: int) -> list:
    """The base-2^(8 nbytes) digits of the int n >= 0, lowest first, each
    reduced mod p."""
    data = n.to_bytes(-(-n.bit_length() // (8 * nbytes)) * nbytes, "little")
    if nbytes in _FORMATS:
        return [d % p for d in struct.unpack(f"<{len(data) // nbytes}{_FORMATS[nbytes]}", data)]
    return [int.from_bytes(data[i : i + nbytes], "little") % p for i in range(0, len(data), nbytes)]


def _from_digits(digits: list, nbytes: int) -> int:
    """The int with these base-2^(8 nbytes) digits, lowest first."""
    if nbytes in _FORMATS:
        return int.from_bytes(struct.pack(f"<{len(digits)}{_FORMATS[nbytes]}", *digits), "little")
    return int.from_bytes(b"".join([d.to_bytes(nbytes, "little") for d in digits]), "little")


def _reduce(sums: list, nbytes: int, p: int):
    """The base-2^(8 nbytes) digits of the ints ``sums`` >= 0 reduced mod p
    in one conversion, lowest first, each int in a slot of ``size`` digits
    padded with zeros, and ``size``; :func:`_slots` reads the slots back."""
    size = max(sums, default=0).bit_length() // (8 * nbytes) + 1
    data = b"".join([n.to_bytes(size * nbytes, "little") for n in sums])
    digits = _digits(int.from_bytes(data, "little"), nbytes, p)
    return digits + [0] * (size * len(sums) - len(digits)), size


def _slots(digits: list, size: int, nbytes: int, start: int = 0) -> list:
    """One int per slot of ``size`` digits of ``digits``, read from the
    slot's digit ``start`` on: start 1 drops each slot's lowest digit."""
    data = _from_digits(digits, nbytes).to_bytes(len(digits) * nbytes, "little")
    step, skip = size * nbytes, start * nbytes
    return [int.from_bytes(data[k + skip : k + step], "little") for k in range(0, len(data), step)]


def _unpack_first(ring: PolyRing, packed: dict, nbytes: int) -> Poly:
    """The polynomial whose coefficients are the digits of ``packed``, as
    :func:`_pack_first` lays them out, reduced mod p."""
    step = ring._steps[0]
    return _poly(ring, {
        rest + e * step: c
        for rest, n in packed.items()
        for e, c in enumerate(_digits(n, nbytes, ring.p))
        if c
    })


def _packed_sum(pairs, nbytes: int, p: int) -> dict:
    """sum a * b over the pairs of packed entries, reduced mod p: one int
    product per pair of keys, then one :func:`_reduce` for all keys."""
    acc = {}
    get = acc.get
    for a, b in pairs:
        for ka, na in a.items():
            for kb, nb in b.items():
                k = ka + kb
                acc[k] = get(k, 0) + na * nb
    reduced = _slots(*_reduce(list(acc.values()), nbytes, p), nbytes)
    return {k: n for k, n in zip(acc, reduced) if n}


def kronecker_mat_mul(a, b):
    """The matrix product a . b of two matrices of polynomials over one
    one-variable ring, by Kronecker substitution (Harvey, *Faster
    polynomial multiplication via multipoint Kronecker substitution*,
    J. Symb. Comput. 2009): each entry sum c_e x^e becomes the int
    sum c_e 2^(w e), each result entry is one integer dot product of a row
    with a column, and its base-2^w digits, reduced mod p, are the result's
    coefficients.

    No digit carries into the next: a coefficient of a result entry sums
    at most r (min(d_a, d_b) + 1) products of two coefficients in 0..p-1,
    where r is the inner dimension and d_a, d_b are the largest entry
    degrees of a and b.  The width w is the least whole number of bytes
    with 2^w > r (min(d_a, d_b) + 1) (p - 1)^2.

    The checks are those of ``Poly.__mul__``: entries from different rings
    raise ValueError, and d_a + d_b above ``DEGREE_LIMIT`` raises
    :class:`ResourceLimitError` before any int is built."""
    ring = a[0][0].ring
    if ring.nvars != 1:
        raise ValueError("Kronecker substitution needs a one-variable ring")
    if any(x.ring is not ring and x.ring != ring for m in (a, b) for row in m for x in row):
        raise ValueError("polynomials from different rings")
    da = max(x.total_degree() for row in a for x in row)
    db = max(x.total_degree() for row in b for x in row)
    if da + db > DEGREE_LIMIT:
        raise ResourceLimitError("product degree exceeds the configured bound")
    nbytes = ((len(b) * (min(da, db) + 1) * (ring.p - 1) ** 2).bit_length() + 7) // 8 or 1
    w = 8 * nbytes
    rows = [[_pack_first(x, w).get(0, 0) for x in row] for row in a]
    columns = [[_pack_first(x, w).get(0, 0) for x in column] for column in zip(*b)]
    return tuple(
        tuple(_unpack_first(ring, {0: sum(map(operator.mul, row, c))}, nbytes) for c in columns)
        for row in rows
    )


def katz_recurrence(b, g: Poly, steps: int):
    """X_steps of Katz's recurrence X_1 = b, X_{k+1} = g X_k' + b . X_k,
    for a square matrix b of polynomials over a one-variable ring and the
    derivation g d/dx, with every X_k packed as in
    :func:`kronecker_mat_mul`.  b and g are packed once (B, G); each step
    forms every entry sum_k B_ik X_kj + G X_ij' as one int and reduces the
    digits of all r^2 entries mod p in one :func:`_reduce`; only X_steps is
    unpacked.  X_ij' comes from the digits that reduction produced: digit
    e becomes e c_e mod p, one place lower.

    One width serves every step.  A digit of B_ik X_kj sums at most
    d_b + 1 products of two coefficients in 0..p-1, and a digit of G X_ij'
    at most d_g + 1, so no digit exceeds (r (d_b + 1) + d_g + 1) (p - 1)^2,
    with r the rank and d_b, d_g the largest degrees in b and of g (-1
    when zero).  The width is the least whole number of bytes above that.

    Before each step, with d_X the largest degree in X_k read off the
    packed ints, d_b + d_X above ``DEGREE_LIMIT``, or d_g + d_X - 1 for a
    nonzero g, raises :class:`ResourceLimitError`: the products
    ``Poly.__mul__`` and :func:`kronecker_mat_mul` would refuse."""
    ring = g.ring
    if ring.nvars != 1:
        raise ValueError("Kronecker substitution needs a one-variable ring")
    p, d_g, r = ring.p, g.total_degree(), len(b)
    d_b = max(x.total_degree() for row in b for x in row)
    nbytes = (((r * (d_b + 1) + d_g + 1) * (p - 1) ** 2).bit_length() + 7) // 8 or 1
    w = 8 * nbytes
    rows = [[_pack_first(x, w).get(0, 0) for x in row] for row in b]
    packed_g = _pack_first(g, w).get(0, 0)
    # X_k,ij is x[i r + j], and its reduced digits are slot i r + j of digits.
    x = [n for row in rows for n in row]
    digits, size = _reduce(x, nbytes, p)
    for _ in range(steps - 1):
        d_x = (max(x).bit_length() - 1) // w
        if d_b + d_x > DEGREE_LIMIT or packed_g and d_g + d_x - 1 > DEGREE_LIMIT:
            raise ResourceLimitError("product degree exceeds the configured bound")
        columns = [x[j::r] for j in range(r)]
        sums = [sum(map(operator.mul, row, c)) for row in rows for c in columns]
        if packed_g:
            ramp = itertools.cycle(range(size))
            derivative = _slots([e * c % p for e, c in zip(ramp, digits)], size, nbytes, 1)
            sums = [n + packed_g * d for n, d in zip(sums, derivative)]
        digits, size = _reduce(sums, nbytes, p)
        x = _slots(digits, size, nbytes)
    entries = [_unpack_first(ring, {0: n}, nbytes) for n in x]
    return tuple(tuple(entries[i : i + r]) for i in range(0, r * r, r))


def operator_word(factors, exponents) -> list:
    """The coefficient matrices W_0, W_1, ... of d^0, d^1, ... of the word
    L_1^(k_1) ... L_m^(k_m) of the first-order operators L_a = b_a + g_a d
    on vectors over a one-variable ring, d = d/dx acting entrywise; each
    factor is a pair (b_a, g_a) of a square matrix of polynomials and a
    polynomial, and k_a = ``exponents[a]``.

    The word is built from the identity by left-multiplying by one factor
    at a time, the last factor first, with every W_gamma packed as in
    :func:`kronecker_mat_mul`.  Each factor's b and g are packed once (B,
    G), before its first step.  L = b + g d maps W_gamma d^gamma to
    (B . W_gamma + G W_gamma') d^gamma + G W_gamma d^(gamma + 1), so each
    new entry sum_k B_ik W_gamma,kj + G (W_gamma,ij' + W_gamma-1,ij) is
    one int.  The digits of all of a step's entries are reduced mod p
    once (:func:`_reduce`), so a step costs a few conversions however many
    entries it has.  W_gamma,ij' comes from the digits that reduction
    produced: digit e becomes e c_e mod p, one place lower.  Only the
    finished word is unpacked.

    One width serves the whole word.  A digit of B_ik W_kj sums at most
    d_b + 1 products of two coefficients in 0..p-1, and one of G W' or of
    G W_gamma-1 at most d_g + 1, so no digit exceeds
    (r (d_b + 1) + 2 (d_g + 1)) (p - 1)^2, with r the rank and d_b, d_g
    the largest degrees in the b_a and of the g_a (-1 when zero) over the
    factors the word uses.  The width is the least whole number of bytes
    above that.

    Before each step, with d_X the largest degree among the W_gamma read
    off the packed ints, d_b + d_X above ``DEGREE_LIMIT``, or d_g + d_X
    for a nonzero g, raises :class:`ResourceLimitError`, before that
    step's factor is packed: the products ``Poly.__mul__`` and
    :func:`kronecker_mat_mul` would refuse."""
    ring = factors[0][1].ring
    if ring.nvars != 1:
        raise ValueError("Kronecker substitution needs a one-variable ring")
    p, r = ring.p, len(factors[0][0])
    degrees = [
        (max(x.total_degree() for row in b for x in row), g.total_degree())
        for b, g in factors
    ]
    used = [degrees[a] for a, k in enumerate(exponents) if k]
    d_b = max((d for d, _ in used), default=-1)
    d_g = max((d for _, d in used), default=-1)
    nbytes = (((r * (d_b + 1) + 2 * (d_g + 1)) * (p - 1) ** 2).bit_length() + 7) // 8 or 1
    w = 8 * nbytes
    cells, rr = range(r), r * r
    # W_gamma,ij is word[gamma r^2 + i r + j]; digits holds the reduced
    # digits of every entry in slots of ``size`` digits, one per entry.
    word = [int(i == j) for i in cells for j in cells]
    digits, size = word, 1
    for a in reversed(range(len(exponents))):
        (b, g), bound = factors[a], max(degrees[a])
        for step in range(exponents[a]):
            d_x = (max(n.bit_length() for n in word) - 1) // w
            if bound + d_x > DEGREE_LIMIT:
                raise ResourceLimitError("product degree exceeds the configured bound")
            if not step:
                rows = [[_pack_first(x, w).get(0, 0) for x in row] for row in b]
                packed_g = _pack_first(g, w).get(0, 0)
            sums = []
            for k in range(0, len(word), rr):
                columns = [word[k + j : k + rr : r] for j in cells]
                sums += [sum(map(operator.mul, row, c)) for row in rows for c in columns]
            if packed_g:
                # G (W_gamma' + W_gamma-1) at every gamma up to the new top.
                ramp = itertools.cycle(range(size))
                derivative = _slots([e * c % p for e, c in zip(ramp, digits)], size, nbytes, 1)
                sums = [
                    n + packed_g * (d + v)
                    for n, d, v in zip(sums + [0] * rr, derivative + [0] * rr, [0] * rr + word)
                ]
            digits, size = _reduce(sums, nbytes, p)
            word = _slots(digits, size, nbytes)
    entries = [_unpack_first(ring, {0: n}, nbytes) for n in word]
    return [
        tuple(tuple(entries[k + i : k + i + r]) for i in range(0, rr, r))
        for k in range(0, len(entries), rr)
    ]


def charpoly_coefficients(matrix) -> list:
    """The coefficients c_0 = 1, c_1, ..., c_n of det(lam I - M) =
    sum_k c_k lam^(n-k), for a square matrix M of polynomials over one
    ring, by Berkowitz's division-free algorithm (S. J. Berkowitz, IPL 18,
    1984), with no lam variable: for a leading block A with coefficients q
    and s_j = r A^j c, det(lam I - [[A, c], [r, a]]) = (lam - a)
    det(lam I - A) - r adj(lam I - A) c gives those of the next block as
    c_m = sum_l t_l q_(m-l), with t = (1, -a, -s_0, -s_1, ...).

    Entries are packed by the first variable x (:func:`_pack_first`), and
    each dot product and Toeplitz sum is reduced mod p once
    (:func:`_packed_sum`).  The width: a sum has at most n products, each
    with a factor of j <= h = floor(n / 2) entries, whose x-degree is at
    most j d and which has at most C(s + j - 1, j) keys (d the largest
    x-degree, s the number of distinct keys among the entries); so no
    digit exceeds n C(s + h - 1, h) (h d + 1) (p - 1)^2.

    Entries from different rings raise ValueError, and n times the largest
    entry degree above ``DEGREE_LIMIT`` raises :class:`ResourceLimitError`
    before any int is built."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    ring = matrix[0][0].ring
    if any(x.ring is not ring and x.ring != ring for row in matrix for x in row):
        raise ValueError("polynomials from different rings")
    if n * max(x.total_degree() for row in matrix for x in row) > DEGREE_LIMIT:
        raise ResourceLimitError("product degree exceeds the configured bound")
    # s and d off the entries packed at the least width that keeps their
    # coefficients apart: the top digit of each int is its x-degree.
    p, h = ring.p, n // 2
    c_bits = (p - 1).bit_length()
    tight = [_pack_first(x, c_bits) for row in matrix for x in row]
    s = len(set().union(*tight)) or 1
    d = max(((v.bit_length() - 1) // c_bits for x in tight for v in x.values()), default=0)
    # The digit bound n C(s + h - 1, h) (h d + 1) (p - 1)^2 derived above.
    nbytes = ((n * math.comb(s + h - 1, h) * (h * d + 1) * (p - 1) ** 2).bit_length() + 7) // 8 or 1
    w = 8 * nbytes
    m = [[_pack_first(x, w) for x in row] for row in matrix]
    q = [_UNIT]
    for k in range(n):
        # The block [[A, c], [r, a]] of size k + 1; q holds det(lam I - A).
        columns = list(zip(*(row[:k] for row in m[:k])))
        # c and a are packed negated, so that t_(j+2) = r A^j (-c) = -s_j.
        r, c = m[k][:k], [_pack_first(-row[k], w) for row in matrix[:k]]
        t = [_UNIT, _pack_first(-matrix[k][k], w)]
        for j in range(k):
            if j:
                r = [_packed_sum(zip(r, col), nbytes, p) for col in columns]
            t.append(_packed_sum(zip(r, c), nbytes, p))
        q = [
            _packed_sum(((t[l], q[i - l]) for l in range(max(0, i - k), i + 1)), nbytes, p)
            for i in range(k + 2)
        ]
    return [_unpack_first(ring, packed, nbytes) for packed in q]


def det(matrix) -> Poly:
    """Exact determinant of a square matrix of polynomials: (-1)^n c_n of
    :func:`charpoly_coefficients`, with no division."""
    c = charpoly_coefficients(matrix)[-1]
    return -c if len(matrix) % 2 else c
