"""Graded de Rham generating functions from stalk polynomials.

One map, ``stalk_formula``, carries a one-variable series h of a pair of
faces mu <= tau to (K, L):

    h -> h(K^{-1/2} L) * K^{(d_mu - d_tau)/2} * (K^{-1} + L^{-1})^{n - d_tau}.

The table entry for a nested pair is its image of the stalk polynomial,
dR_{mu,tau} = stalk_formula(Ht_{mu,tau}), an exact evaluation with
half-integer K-exponents cancelling because the stalk polynomial's support
has the parity of d_tau - d_mu.  Both closed forms of the higher-direct-image
series Omega_tau in ``differentials`` are the same map at mu = 0, applied to
q^{-d_tau} times a series in q^2.  The independent route solves for dR_{0,tau}
by upper-triangular elimination over the face poset: subtracting from
Omega_tau the contributions of all nonzero faces,

    dR_{0,tau} = Omega_tau - sum_{0 != mu <= tau}
                     dR_{mu,tau} * D_mu(L^{-1} K^{1/2}) * K^{-d_mu/2}.

Agreement of the two routes, with Omega supplied either by the closed form or
by the chain-complex computation, is the package's main executable theorem.
"""

from __future__ import annotations

from functools import cache

from .decomposition import DecompositionResult
from .errors import CrossCheckMismatch, NonIntegralExponent
from .polynomials import (
    BiLaurentPolynomial,
    K_INV_PLUS_L_INV,
    L_INV_K_HALF,
    L_K_INV_HALF,
    LaurentPolynomial,
)


@cache
def _cofactor(m: int) -> BiLaurentPolynomial:
    """(K^{-1} + L^{-1})^m, raised once per m."""
    return K_INV_PLUS_L_INV**m


def stalk_formula(h: LaurentPolynomial, d_mu: int, d_tau: int, n: int) -> BiLaurentPolynomial:
    """h(K^{-1/2} L) K^{(d_mu - d_tau)/2} (K^{-1} + L^{-1})^{n - d_tau}, integral or raising."""
    shift = BiLaurentPolynomial.monomial(d_mu - d_tau, 0)
    return (h.substitute(L_K_INV_HALF) * shift * _cofactor(n - d_tau)).assert_integral()


def derham_from_stalks(dec: DecompositionResult, mu: int, tau: int) -> BiLaurentPolynomial:
    """dR_{mu,tau} evaluated from the stalk polynomial; integral by parity."""
    lattice = dec.lattice
    try:
        return stalk_formula(
            dec.htilde(mu, tau), lattice.dim(mu), lattice.dim(tau), lattice.rank
        )
    except NonIntegralExponent as exc:
        raise NonIntegralExponent(
            f"dR for faces ({mu}, {tau}) has half-integer exponents; "
            f"a parity violation upstream: {exc}"
        ) from exc


def derham_table(dec: DecompositionResult) -> dict[tuple[int, int], BiLaurentPolynomial]:
    """All dR_{mu,tau} for nested pairs of faces."""
    lattice = dec.lattice
    return {
        (mu, f.id): derham_from_stalks(dec, mu, f.id)
        for f in lattice.faces
        for mu in sorted(lattice.down[f.id])
    }


def derham_by_elimination(
    dec: DecompositionResult, omega: BiLaurentPolynomial, tau: int
) -> BiLaurentPolynomial:
    """Solve for dR_{0,tau} from Omega_tau by subtracting the known faces.

    The subtracted terms use dR_{mu,tau} from the stalk route and the solved
    multiplicities; the caller compares the result against the stalk route
    for the pair (0, tau).
    """
    lattice = dec.lattice
    out = omega
    for mu in sorted(lattice.down[tau]):
        if mu == lattice.zero_id:
            continue
        d_mu = lattice.dim(mu)
        term = (
            derham_from_stalks(dec, mu, tau)
            * dec.D[mu].substitute(L_INV_K_HALF)
            * BiLaurentPolynomial.monomial(-d_mu, 0)
        )
        out = out - term
    return out


def check_main_identity(
    dec: DecompositionResult, omega: BiLaurentPolynomial, tau: int
) -> BiLaurentPolynomial:
    """Require the two routes to dR_{0,tau} to agree coefficientwise."""
    eliminated = derham_by_elimination(dec, omega, tau)
    direct = derham_from_stalks(dec, dec.lattice.zero_id, tau)
    if eliminated != direct:
        diff = eliminated - direct
        raise CrossCheckMismatch(
            f"face {tau}: elimination gives {eliminated.to_text()}, "
            f"stalk route gives {direct.to_text()}, diff {diff.to_text()}"
        )
    return direct


def stalk_chi_y(
    htilde: LaurentPolynomial, d_tau: int, n: int
) -> LaurentPolynomial:
    """The stalk-side prediction for the specialization of dR_{0,tau}.

    Ht_{0,tau}(q) q^{d_tau} has even support by parity; substituting
    q^2 = -y and multiplying by (1+y)^{n-d_tau} (-1)^n matches chi_y of dR.
    """
    shifted = htilde.shift(d_tau)
    terms = {}
    for e in shifted.support():
        if e % 2:
            raise NonIntegralExponent(
                f"stalk polynomial support has odd degree {e} after shifting by {d_tau}"
            )
        k = e // 2
        sign = -1 if k % 2 else 1
        terms[k] = sign * shifted.coefficient(e)
    base = LaurentPolynomial(terms)
    one_plus_y = LaurentPolynomial({0: 1, 1: 1})
    result = base * one_plus_y ** (n - d_tau)
    if n % 2:
        result = -result
    return result
