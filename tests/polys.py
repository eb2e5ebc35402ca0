"""Polynomials spelled out term by term, and constants, for expected values.

The library makes its polynomials from term maps; these helpers sum a list
of terms into one.  The constructors check every exponent and coefficient.
"""

from icstalks.polynomials import BiLaurentPolynomial, LaurentPolynomial

K_INV = BiLaurentPolynomial.monomial(-2, 0)  # K^{-1}
L_VAR = BiLaurentPolynomial.monomial(0, 1)  # L
L_INV = BiLaurentPolynomial.monomial(0, -1)  # L^{-1}
K_INV_PLUS_L_INV = K_INV + L_INV
# q -> L*K^{-1/2}, the substitution of the stalk-to-de Rham map
L_K_INV_HALF = BiLaurentPolynomial.monomial(-1, 1)


def poly_from_pairs(pairs) -> LaurentPolynomial:
    """The one-variable polynomial with these (exponent, coefficient) terms, summed."""
    out: dict = {}
    for e, c in pairs:
        out[e] = out.get(e, 0) + c
    return LaurentPolynomial(out)


def bipoly_from_triples(triples) -> BiLaurentPolynomial:
    """The two-variable polynomial with these (k_twice, l, coefficient) terms, summed."""
    out: dict = {}
    for kt, l, c in triples:
        out[kt, l] = out.get((kt, l), 0) + c
    return BiLaurentPolynomial(out)
