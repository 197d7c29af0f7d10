import itertools
import math

import pytest

from pcurv.panels import PANEL_LIMIT, monomial_panel, poly_panel
from pcurv.poly import PolyRing, PrimeField, ResourceLimitError


def ring(n):
    return PolyRing(PrimeField(3), tuple(f"x{i + 1}" for i in range(n)))


def stars_and_bars_exponents(n, total):
    """Oracle for the panel's order: the exponent vectors of degree
    ``total`` in n variables, read off the places of n - 1 bars among
    total + n - 1 slots, the places in lexicographic order."""
    out = []
    for cuts in itertools.combinations(range(total + n - 1), n - 1):
        exps = []
        prev = -1
        for c in cuts:
            exps.append(c - prev - 1)
            prev = c
        exps.append(total + n - 2 - prev)
        out.append(tuple(exps))
    return out


class TestMonomialPanel:
    @pytest.mark.parametrize("n, degree", [(1, 0), (1, 5), (2, 4), (3, 3)])
    def test_all_monomials_up_to_the_degree(self, n, degree):
        panel = monomial_panel(ring(n), degree)
        assert len(panel) == len(set(panel)) == math.comb(degree + n, n)
        assert all(f.total_degree() <= degree for f in panel)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_order_matches_the_stars_and_bars_oracle(self, n):
        # the order sets which witness a failing p-linearity or Leibniz check shows first
        R = ring(n)
        for degree in range(5):
            expected = [
                R.monomial(exps) for total in range(degree + 1) for exps in stars_and_bars_exponents(n, total)
            ]
            assert monomial_panel(R, degree) == expected

    def test_largest_panel_under_the_bound_is_built(self):
        assert len(monomial_panel(ring(1), PANEL_LIMIT - 1)) == PANEL_LIMIT

    @pytest.mark.parametrize("n, degree", [(1, PANEL_LIMIT), (8, 6), (2, 10**4000)])
    def test_panel_past_the_bound_is_refused_before_it_is_built(self, monkeypatch, n, degree):
        R = ring(n)

        def no_monomial(*args):
            raise AssertionError("a monomial was built")

        monkeypatch.setattr(PolyRing, "monomial", no_monomial)
        with pytest.raises(ResourceLimitError, match=f"in n = {n} variables: .* above the bound {PANEL_LIMIT}"):
            monomial_panel(R, degree)
        with pytest.raises(ResourceLimitError):
            poly_panel(R, 1, max_degree=degree)
