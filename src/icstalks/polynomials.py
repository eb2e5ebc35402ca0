"""Exact sparse Laurent polynomial arithmetic in one and two variables.

A coefficient is an ``int`` when it is integral and a ``fractions.Fraction``
only when it is not; a ``Fraction`` with denominator 1 is stored as its
numerator, so ``str`` renders every coefficient as ``n`` or ``n/d``.  The two
types compare and hash alike, so only the cost of the arithmetic depends on
which one is stored.  No floating point is used anywhere: a float coefficient
raises ``TypeError``.  Two immutable types share one ring core and differ only
in their exponent type:

  ``LaurentPolynomial``    one variable q, terms stored as {exponent: coeff}
  ``BiLaurentPolynomial``  two variables K, L; the K-exponent may be a
                           half-integer, so it is stored *doubled* (an int)
                           and the terms are {(k_twice, l): coeff}

The core holds the term map and everything that does not look inside an
exponent: zero purging, scalar lifting, equality and hashing, the ring
operations, the coefficient predicates and the sign-joined text renderer.
Each type supplies its key normalisation, the exponent of the constant term
and exponent addition.  Polynomials of different types never compare equal.

Coefficients and exponents are validated where terms enter from outside:
the public constructors, ``term``/``monomial``, ``poly_from_pairs`` and
``bipoly_from_triples`` pass each coefficient through ``_coeff`` and each
exponent through ``_exponent``, which accepts only an ``int`` (not a
``bool``), so no exponent is silently truncated.  Ring results (``+``,
``-``, ``*``, ``**``, negation, ``shift``, ``mirror``, ``substitute``,
``chi_y`` and ``sum_of_products``) are canonical by construction: they
combine canonical coefficients, drop the zeros and canonicalize only the
non-``int`` values, then wrap the term map with ``_new`` without checking it
again.

Zero coefficients are never stored; the zero polynomial has an empty term
map.  A polynomial with only a constant term equals that constant and hashes
like it.  Quantities that must end up with integer K-exponents go through
``assert_integral`` at output boundaries instead of assuming integrality.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NonIntegralExponent
from .linalg import canonical


def _coeff(value) -> int | Fraction:
    if isinstance(value, (int, Fraction)):
        return canonical(value)
    raise TypeError(f"coefficient {value!r} is neither an int nor a Fraction")


def _exponent(value) -> int:
    if type(value) is int:
        return value
    raise TypeError(f"exponent {value!r} is not an int")


def _canonical_terms(terms: dict) -> dict:
    """``terms`` without zero coefficients and with integral values as ``int``.

    The values must already be ``int`` or ``Fraction``: this is the purge a
    ring operation applies to the sums and products it accumulated.
    """
    return {
        e: c if type(c) is int else canonical(c) for e, c in terms.items() if c
    }


class _LaurentCore:
    """The term map and ring arithmetic shared by both polynomial types.

    Subclasses set ``_key`` (check an exponent), ``_CONST`` (the exponent
    of the constant term) and ``_add_exp`` (multiply two monomials).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        data = {}
        if terms:
            key = self._key
            for exp, c in terms.items():
                exp, c = key(exp), _coeff(c)
                if c != 0:
                    data[exp] = c
        self._terms = data

    @classmethod
    def _new(cls, terms: dict):
        """Wrap a canonical term map (normalised keys, no zero, integral
        values as ``int``) without copying or checking it."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._new({})

    @classmethod
    def one(cls):
        return cls._new({cls._CONST: 1})

    def items(self):
        return self._terms.items()

    def support(self) -> list:
        return sorted(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _lift(self, other):
        """``other`` as a polynomial of this type, or None if it is not one."""
        if type(other) is type(self):
            return other
        if isinstance(other, (int, Fraction)):
            return type(self)({self._CONST: other})
        return None

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and self._CONST in terms:
            return hash(terms[self._CONST])
        return hash(frozenset(terms.items()))

    def _combine(self, other, op):
        """``op(self, other)`` termwise, for ``op`` ``operator.add`` or ``sub``."""
        other = self._lift(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = op(out.get(e, 0), c)
            if not s:
                del out[e]
            else:
                out[e] = s if type(s) is int else canonical(s)
        return self._new(out)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return self._new({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other._combine(self, operator.sub)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._new(
                _canonical_terms({e: c * other for e, c in self._terms.items()})
            )
        if type(other) is not type(self):
            return NotImplemented
        out: dict = {}
        self._add_products(out, other)
        return self._new(_canonical_terms(out))

    __rmul__ = __mul__

    def _add_products(self, out: dict, other) -> None:
        """Add the terms of ``self * other`` into ``out``, unpurged."""
        add_exp = self._add_exp
        get = out.get
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = add_exp(e1, e2)
                out[e] = get(e, 0) + c1 * c2

    @classmethod
    def sum_of_products(cls, pairs: Iterable[tuple]):
        """``sum a * b`` over the pairs ``(a, b)``, accumulated in one term map."""
        out: dict = {}
        for a, b in pairs:
            if type(a) is not cls or type(b) is not cls:
                raise TypeError(
                    f"sum_of_products of {cls.__name__} takes pairs of "
                    f"{cls.__name__}, not ({type(a).__name__}, {type(b).__name__})"
                )
            a._add_products(out, b)
        return cls._new(_canonical_terms(out))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial is not supported")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return self.one() if out is None else out

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self._terms.values())

    def _render(self, monomial_text) -> str:
        """Terms in exponent order joined by signs; ``monomial_text(key)`` is
        the variable part of a term, empty for the constant term."""
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms):
            c = self._terms[e]
            mono = monomial_text(e)
            body = str(abs(c))
            if mono:
                body = mono if abs(c) == 1 else f"{body}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"


class LaurentPolynomial(_LaurentCore):
    """A Laurent polynomial in a single variable (rendered as q by default)."""

    __slots__ = ()
    _key = staticmethod(_exponent)
    _CONST = 0
    _add_exp = operator.add

    @classmethod
    def term(cls, exponent: int, coeff=1) -> "LaurentPolynomial":
        return cls({exponent: coeff})

    def coefficient(self, exponent: int) -> int | Fraction:
        return self._terms.get(exponent, 0)

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by q^k."""
        return LaurentPolynomial._new({e + k: c for e, c in self._terms.items()})

    def mirror(self) -> "LaurentPolynomial":
        """The involution q -> q^{-1}."""
        return LaurentPolynomial._new({-e: c for e, c in self._terms.items()})

    def substitute(self, image: "BiLaurentPolynomial") -> "BiLaurentPolynomial":
        """Substitute a two-variable monomial c*K^a*L^b for the variable.

        ``image`` must consist of a single term with nonzero coefficient; the
        K-exponent may be a half-integer.  q^j maps to c^j K^{aj} L^{bj},
        exactly.
        """
        if len(image._terms) != 1:
            raise ValueError("substitution image must be a single monomial")
        ((kt, l), c) = next(iter(image._terms.items()))
        if c == 0:
            raise ValueError("substitution image must have a nonzero coefficient")
        out: dict[tuple[int, int], int | Fraction] = {}
        for e, coeff in self._terms.items():
            key = (kt * e, l * e)
            if c != 1:
                coeff = coeff * Fraction(c) ** e
            out[key] = out.get(key, 0) + coeff
        return BiLaurentPolynomial._new(_canonical_terms(out))

    def is_palindromic(self) -> bool:
        return self == self.mirror()

    def to_text(self, var: str = "q") -> str:
        return self._render(lambda e: "" if e == 0 else var if e == 1 else f"{var}^{e}")

    def to_json_obj(self, var: str = "q") -> list[dict]:
        return [
            {var: e, "c": str(self._terms[e])} for e in sorted(self._terms)
        ]


class BiLaurentPolynomial(_LaurentCore):
    """A Laurent polynomial in K and L with half-integer K-exponents allowed.

    Keys of the term map are ``(k_twice, l)`` where ``k_twice`` is twice the
    K-exponent.  A polynomial is *integral* when every stored ``k_twice`` is
    even.
    """

    __slots__ = ()
    _CONST = (0, 0)

    @staticmethod
    def _key(exp) -> tuple[int, int]:
        kt, l = exp
        return (_exponent(kt), _exponent(l))

    @staticmethod
    def _add_exp(a, b) -> tuple[int, int]:
        return (a[0] + b[0], a[1] + b[1])

    @classmethod
    def monomial(cls, k_twice: int, l: int, coeff=1) -> "BiLaurentPolynomial":
        """The monomial coeff * K^(k_twice/2) * L^l."""
        return cls({(k_twice, l): coeff})

    def coefficient(self, k_twice: int, l: int) -> int | Fraction:
        return self._terms.get((k_twice, l), 0)

    @property
    def is_integral(self) -> bool:
        return all(kt % 2 == 0 for (kt, _l) in self._terms)

    def assert_integral(self) -> "BiLaurentPolynomial":
        if not self.is_integral:
            bad = sorted(k for k in self._terms if k[0] % 2 != 0)
            raise NonIntegralExponent(f"half-integer K-exponents present: {bad}")
        return self

    def chi_y(self) -> LaurentPolynomial:
        """Specialize K = (-y)^{-1}, L = -1; requires integral K-exponents.

        c*K^k*L^l maps to c*(-1)^{k+l} y^{-k}.
        """
        self.assert_integral()
        out: dict[int, int | Fraction] = {}
        for (kt, l), c in self._terms.items():
            k = kt // 2
            e = -k
            sign = -1 if (k + l) % 2 else 1
            out[e] = out.get(e, 0) + sign * c
        return LaurentPolynomial._new(_canonical_terms(out))

    @staticmethod
    def _monomial_text(key: tuple[int, int]) -> str:
        kt, l = key
        factors = []
        if kt != 0:
            factors.append(
                "K" if kt == 2 else f"K^({kt}/2)" if kt % 2 else f"K^{kt // 2}"
            )
        if l != 0:
            factors.append("L" if l == 1 else f"L^{l}")
        return "*".join(factors)

    def to_text(self) -> str:
        return self._render(self._monomial_text)

    def to_json_obj(self) -> list[dict]:
        out = []
        for (kt, l) in sorted(self._terms):
            k = kt // 2 if kt % 2 == 0 else kt / 2
            out.append({"k": k, "l": l, "c": str(self._terms[(kt, l)])})
        return out


# Common building blocks.

K_INV = BiLaurentPolynomial.monomial(-2, 0)   # K^{-1}
L_VAR = BiLaurentPolynomial.monomial(0, 1)    # L
L_INV = BiLaurentPolynomial.monomial(0, -1)   # L^{-1}
K_INV_PLUS_L_INV = K_INV + L_INV
# q -> L*K^{-1/2}, the substitution of the stalk-to-deRham map.
L_K_INV_HALF = BiLaurentPolynomial.monomial(-1, 1)
# q -> L^{-1}*K^{1/2}, its mirror image.
L_INV_K_HALF = BiLaurentPolynomial.monomial(1, -1)


def poly_from_pairs(pairs: Iterable[tuple[int, object]]) -> LaurentPolynomial:
    """Build a one-variable polynomial from (exponent, coefficient) pairs."""
    out: dict[int, Fraction] = {}
    for e, c in pairs:
        # checked before summing: 1.0 or True would merge into the key 1
        e = _exponent(e)
        out[e] = out.get(e, 0) + _coeff(c)
    return LaurentPolynomial(out)


def bipoly_from_triples(
    triples: Iterable[tuple[int, int, object]]
) -> BiLaurentPolynomial:
    """Build a two-variable polynomial from (k_twice, l, coefficient) triples."""
    out: dict[tuple[int, int], Fraction] = {}
    for kt, l, c in triples:
        key = BiLaurentPolynomial._key((kt, l))
        out[key] = out.get(key, 0) + _coeff(c)
    return BiLaurentPolynomial(out)
