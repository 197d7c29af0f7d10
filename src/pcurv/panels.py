"""Deterministic and seeded-random input panels for the validators.

The identities being checked are polynomial in the coefficients of their
inputs, so a panel of all monomials up to a fixed degree together with a
batch of seeded random polynomials is conclusive at desk scale.  All
randomness is driven by an explicit ``random.Random`` instance so reports
are reproducible.
"""

from __future__ import annotations

import itertools
import math
import random

from .poly import Poly, PolyRing, ResourceLimitError

# Most monomials a panel may have.  The identity battery over 8 coordinates
# took 5 s at 495 monomials (degree 4), 12 s at 1,287 (degree 5) and 37 s at
# 3,003 (degree 6); `validate` over one coordinate took 0.3 s at 1,891 and
# did not finish in 90 s at 100,001 (2-core host, Python 3.11, --trials 1).
PANEL_LIMIT = 2000


def monomial_panel(ring: PolyRing, max_degree: int = 3) -> list[Poly]:
    """All monomials of total degree at most ``max_degree`` (including 1):
    C(max_degree + n, n) of them in n variables, refused with
    ResourceLimitError above ``PANEL_LIMIT`` before any is built."""
    n = ring.nvars
    size = math.comb(max_degree + n, n)
    if size > PANEL_LIMIT:
        # str() refuses an int of more than 4300 digits
        shown = size if size <= 10**30 else "more than 10^30"
        raise ResourceLimitError(
            f"monomial panel of degree {max_degree} in n = {n} variables: "
            f"{shown} monomials, above the bound {PANEL_LIMIT}"
        )
    # each degree's variable multisets, reversed: the last variable's powers come first
    return [
        ring.monomial(tuple(picks.count(i) for i in range(n)))
        for total in range(max_degree + 1)
        for picks in reversed(list(itertools.combinations_with_replacement(range(n), total)))
    ]


def random_poly(rng: random.Random, ring: PolyRing, max_degree: int = 3, max_terms: int = 3) -> Poly:
    out = ring.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = [0] * ring.nvars
        for _ in range(rng.randrange(max_degree + 1)):
            e[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(tuple(e), rng.randrange(1, ring.p))
    return out


def poly_panel(ring: PolyRing, trials: int, seed: int = 0, max_degree: int = 3) -> list[Poly]:
    """Monomial panel plus ``trials`` seeded random polynomials."""
    rng = random.Random(seed)
    out = monomial_panel(ring, max_degree)
    out.extend(random_poly(rng, ring, max_degree) for _ in range(trials))
    return out


def random_vector(rng, ring, length, max_degree=3, max_terms=2):
    return tuple(random_poly(rng, ring, max_degree, max_terms) for _ in range(length))


def random_matrix(rng, ring, rows, max_degree=2, max_terms=2):
    return tuple(random_vector(rng, ring, rows, max_degree, max_terms) for _ in range(rows))
