"""Polynomials spelled out term by term, and constants, for expected values.

The library makes its polynomials from term maps; these helpers sum a list
of terms into one.  The constructors check every exponent and coefficient.
"""

from icstalks.polynomials import BiLaurentPolynomial, LaurentPolynomial


def monomial(k, l, c=1) -> BiLaurentPolynomial:
    """The monomial c * K^k * L^l."""
    return BiLaurentPolynomial({(k, l): c})


K_INV = monomial(-1, 0)  # K^{-1}
L_VAR = monomial(0, 1)  # L
L_INV = monomial(0, -1)  # L^{-1}
K_INV_PLUS_L_INV = K_INV + L_INV


def poly_from_pairs(pairs) -> LaurentPolynomial:
    """The one-variable polynomial with these (exponent, coefficient) terms, summed."""
    out: dict = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return LaurentPolynomial(out)


def bipoly_from_triples(triples) -> BiLaurentPolynomial:
    """The two-variable polynomial with these (k, l, coefficient) terms, summed."""
    out: dict = {}
    for k, l, c in triples:
        out[k, l] = out.get((k, l), 0) + c
    return BiLaurentPolynomial(out)
