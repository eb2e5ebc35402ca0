import random
from fractions import Fraction

import pytest

from icstalks.errors import NonIntegralExponent
from icstalks.polynomials import (
    BiLaurentPolynomial,
    K_INV,
    K_INV_PLUS_L_INV,
    L_INV,
    LaurentPolynomial,
    bipoly_from_triples,
    poly_from_pairs,
)

L = LaurentPolynomial
B = BiLaurentPolynomial


def random_laurent(rng, max_terms=5):
    return L({rng.randint(-6, 6): rng.randint(-4, 4) for _ in range(rng.randint(0, max_terms))})


def random_bilaurent(rng, max_terms=5):
    return B(
        {
            (rng.randint(-5, 5), rng.randint(-5, 5)): rng.randint(-4, 4)
            for _ in range(rng.randint(0, max_terms))
        }
    )


def test_substitute_constant_is_fixed():
    p = L({0: 1})
    assert p.substitute(B.monomial(-1, 1)) == B.one()


def test_substitute_monomialwise():
    # q^-3 + q^-1 under q -> K^{-1/2} L
    p = L({-3: 1, -1: 1})
    image = p.substitute(B.monomial(-1, 1))
    assert image == bipoly_from_triples([(3, -3, 1), (1, -1, 1)])
    # q + q^-1 under q -> L^{-1} K^{1/2}
    p2 = L({1: 1, -1: 1})
    image2 = p2.substitute(B.monomial(1, -1))
    assert image2 == bipoly_from_triples([(1, -1, 1), (-1, 1, 1)])


def test_substitute_with_coefficient_and_rational_power():
    p = L({2: 1, -1: 3})
    image = p.substitute(B.monomial(0, 1, 2))  # q -> 2L
    assert image == B({(0, 2): 4, (0, -1): Fraction(3, 2)})


def test_mirror_examples():
    assert L({1: 1, -1: 1}).mirror() == L({1: 1, -1: 1})
    assert L({-3: 1, -1: 1}).mirror() == L({3: 1, 1: 1})
    assert L().mirror() == L()


def test_mirror_is_involution():
    rng = random.Random(11)
    for _ in range(50):
        p = random_laurent(rng)
        assert p.mirror().mirror() == p


def test_bilaurent_binomial_square():
    s = K_INV + L_INV
    assert s**2 == bipoly_from_triples([(-4, 0, 1), (-2, -1, 2), (0, -2, 1)])
    assert s**0 == B.one()
    assert B.monomial(0, -3) * (B.one() + B.monomial(-2, 1)) == bipoly_from_triples(
        [(0, -3, 1), (-2, -2, 1)]
    )


def test_ring_axioms_randomized():
    rng = random.Random(7)
    for _ in range(40):
        p, r, s = (random_laurent(rng) for _ in range(3))
        assert (p + r) * s == p * s + r * s
        assert p * r == r * p
        assert (p * r) * s == p * (r * s)
        a, b, c = (random_bilaurent(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_substitution_is_multiplicative():
    rng = random.Random(23)
    m = B.monomial(-1, 1)
    for _ in range(40):
        p = random_laurent(rng)
        r = random_laurent(rng)
        assert (p * r).substitute(m) == p.substitute(m) * r.substitute(m)


def test_zero_purging():
    p = L({2: 1}) - L({2: 1})
    assert p.is_zero
    assert p == 0
    assert not list(p.items())
    assert L.one() != B.one()
    assert B.one() == 1
    assert 1 - L.term(1) == L({0: 1, 1: -1})
    assert hash(L({0: 1, 1: 2})) == hash(L.one() + L.term(1, 2))
    assert hash(B({(1, -1): 2})) == hash(B.monomial(1, -1) * 2)


def test_integrality_flag():
    half = B.monomial(-1, 1)
    assert not half.is_integral
    with pytest.raises(NonIntegralExponent):
        half.assert_integral()
    assert (half * half).is_integral


def test_text_rendering():
    assert L({-3: 1, -1: 1}).to_text() == "q^-3 + q^-1"
    assert L({2: 1, 0: 5, -2: 1}).to_text() == "q^-2 + 5 + q^2"
    assert L().to_text() == "0"
    assert L({0: -1, 1: -1}).to_text("y") == "-1 - y"
    assert bipoly_from_triples([(0, -3, 1), (-2, -1, 1)]).to_text() == "K^-1*L^-1 + L^-3"
    assert B.monomial(-3, 2).to_text() == "K^(-3/2)*L^2"
    assert B.one().to_text() == "1"
    assert B.monomial(2, 0).to_text() == "K"
    assert B({(-2, 0): -1, (0, 1): 2}).to_text() == "-K^-1 + 2*L"
    assert B.monomial(-2, 0, Fraction(3, 2)).to_text() == "3/2*K^-1"


def test_json_rendering():
    obj = bipoly_from_triples([(-2, -1, 1), (1, 0, 1)]).to_json_obj()
    assert obj == [{"k": -1, "l": -1, "c": "1"}, {"k": 0.5, "l": 0, "c": "1"}]
    assert L({-1: Fraction(1, 2)}).to_json_obj() == [{"q": -1, "c": "1/2"}]


def test_chi_y_substitution():
    # L^{-n} -> (-1)^n
    assert B.monomial(0, -3).chi_y() == L({0: -1})
    # (K^{-1}+L^{-1})^n -> (-y-1)^n
    n = 3
    expected = (L({1: -1, 0: -1})) ** n
    assert (K_INV_PLUS_L_INV**n).chi_y() == expected


def test_shift_and_pow():
    p = poly_from_pairs([(2, 1), (0, 6), (4, 1)])
    assert p.shift(-3) == L({-1: 1, -3: 6, 1: 1})
    assert (L({2: 1, 0: -1})) ** 2 == L({4: 1, 2: -2, 0: 1})
