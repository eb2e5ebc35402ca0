import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icstalks.errors import NonIntegralExponent
from icstalks.polynomials import (
    BiLaurentPolynomial,
    K_INV,
    K_INV_PLUS_L_INV,
    L_INV,
    LaurentPolynomial,
    _coeff,
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


def test_substitute_with_coefficient_three_is_exact():
    # q^-1 under q -> 3L is 1/3 L^-1; 3 ** -1 would be a float
    image = L({-1: 1}).substitute(B.monomial(0, 1, 3))
    assert image.coefficient(0, -1) == Fraction(1, 3)
    assert type(image.coefficient(0, -1)) is Fraction
    assert image.to_text() == "1/3*L^-1"


def test_coefficients_are_ints_when_integral_and_never_floats():
    p = L({0: Fraction(4, 2), 1: Fraction(1, 2)})
    assert type(p.coefficient(0)) is int
    assert type(p.coefficient(1)) is Fraction
    assert type((p + p).coefficient(1)) is int
    assert type(p.coefficient(5)) is int
    with pytest.raises(TypeError):
        _coeff(0.5)
    with pytest.raises(TypeError):
        L({0: 0.5})
    with pytest.raises(TypeError):
        B({(0, 0): 1.0})
    with pytest.raises(TypeError):
        p * 0.5
    with pytest.raises(TypeError):
        poly_from_pairs([(0, 2.0)])


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


@pytest.mark.parametrize("cls", [L, B])
@pytest.mark.parametrize("c", [0, 1, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(4, 2)])
def test_constant_polynomial_hashes_like_its_value(cls, c):
    p = cls.one() * c
    assert p == c
    assert hash(p) == hash(c)
    assert {c: "a"}.get(p) == "a"


def test_constant_polynomials_in_sets():
    assert len({L.one(), 1}) == 1
    assert len({L.one(), B.one()}) == 2  # equal hashes, but never equal


# -- the ring against a naive dict-of-Fraction reference -----------------------

COEFFS = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
KEYS = {
    L: st.integers(-5, 5),
    B: st.tuples(st.integers(-5, 5), st.integers(-4, 4)),
}
ZERO_EXP = {L: 0, B: (0, 0)}
RING = settings(max_examples=30, derandomize=True, database=None, deadline=None)


def _add_keys(a, b):
    return a + b if isinstance(a, int) else (a[0] + b[0], a[1] + b[1])


def _poly(cls, max_size=4):
    return st.dictionaries(KEYS[cls], COEFFS, max_size=max_size).map(cls)


def _ref(p) -> dict:
    return {e: Fraction(c) for e, c in p.items()}


def _purge(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0}


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = _add_keys(e1, e2)
            out[e] = out.get(e, 0) + c1 * c2
    return _purge(out)


def _ref_combine(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _purge(out)


def _assert_matches(p, ref: dict) -> None:
    """``p`` has the terms of ``ref``, stored canonically."""
    assert _ref(p) == ref
    for c in dict(p.items()).values():
        assert type(c) in (int, Fraction)
        assert c != 0
        assert (type(c) is int) == (Fraction(c).denominator == 1)


@pytest.mark.parametrize("cls", [L, B])
def test_add_sub_neg_match_reference(cls):
    @RING
    @given(_poly(cls), _poly(cls), COEFFS)
    def check(p, r, c):
        const = {ZERO_EXP[cls]: Fraction(c)}
        _assert_matches(p + r, _ref_combine(_ref(p), _ref(r), 1))
        _assert_matches(p - r, _ref_combine(_ref(p), _ref(r), -1))
        _assert_matches(-p, _ref_combine({}, _ref(p), -1))
        _assert_matches(p + c, _ref_combine(_ref(p), const, 1))
        _assert_matches(c + p, _ref_combine(_ref(p), const, 1))
        _assert_matches(c - p, _ref_combine(const, _ref(p), -1))
        _assert_matches(p - p, {})

    check()


@pytest.mark.parametrize("cls", [L, B])
def test_mul_and_sum_of_products_match_reference(cls):
    @RING
    @given(_poly(cls), _poly(cls), COEFFS, st.lists(st.tuples(_poly(cls), _poly(cls)), max_size=3))
    def check(p, r, c, pairs):
        _assert_matches(p * r, _ref_mul(_ref(p), _ref(r)))
        _assert_matches(p * c, _ref_mul(_ref(p), _purge({ZERO_EXP[cls]: Fraction(c)})))
        _assert_matches(c * p, _ref_mul(_ref(p), _purge({ZERO_EXP[cls]: Fraction(c)})))
        total: dict = {}
        for a, b in pairs:
            total = _ref_combine(total, _ref_mul(_ref(a), _ref(b)), 1)
        _assert_matches(cls.sum_of_products(pairs), total)

    check()


@pytest.mark.parametrize("cls", [L, B])
def test_pow_matches_reference(cls):
    @RING
    @given(_poly(cls, max_size=3), st.integers(0, 6))
    def check(p, n):
        ref = {ZERO_EXP[cls]: Fraction(1)}
        for _ in range(n):
            ref = _ref_mul(ref, _ref(p))
        _assert_matches(p**n, ref)

    check()


@RING
@given(_poly(L), st.integers(-4, 4), st.integers(-3, 3), st.integers(-3, 3), COEFFS.filter(bool))
def test_shift_mirror_substitute_match_reference(p, k, kt, l, c):
    _assert_matches(p.shift(k), {e + k: x for e, x in _ref(p).items()})
    _assert_matches(p.mirror(), {-e: x for e, x in _ref(p).items()})
    image: dict = {}
    for e, x in _ref(p).items():
        key = (kt * e, l * e)
        image[key] = image.get(key, 0) + x * Fraction(c) ** e
    _assert_matches(p.substitute(B.monomial(kt, l, c)), _purge(image))


@pytest.mark.parametrize(
    "build",
    [
        lambda: L({Fraction(1, 2): 1}),
        lambda: L({0.5: 1}),
        lambda: L({"1": 1}),
        lambda: L({True: 1}),
        lambda: poly_from_pairs([(1.9, 2)]),
        lambda: poly_from_pairs([(1, 2), (1.0, 3)]),
        lambda: B({(2.5, 0): 1, (2, 0): 3}),
        lambda: B({(2, "0"): 1}),
        lambda: L.term(1.0),
        lambda: B.monomial(2, True),
        lambda: bipoly_from_triples([(0, 0.5, 1)]),
        lambda: bipoly_from_triples([(2, 0, 1), (2.0, 0, 3)]),
        # an exponent is checked even where its coefficient is zero
        lambda: L({0.5: 0}),
    ],
    ids=[
        "fraction", "float", "str", "bool", "pairs", "pairs-merged", "bi-float",
        "bi-str", "term", "monomial", "triples", "triples-merged", "zero-coefficient",
    ],
)
def test_exponents_must_be_ints(build):
    # int() would truncate these, merging or moving a term
    with pytest.raises(TypeError, match="exponent"):
        build()


def test_ring_results_reject_float_scalars():
    p = L({0: 1, 1: Fraction(1, 2)})
    for bad in (lambda: p + 0.5, lambda: 0.5 - p, lambda: p * 0.5):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(TypeError):
        L.sum_of_products([(p, B.one())])
