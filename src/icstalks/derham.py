"""Graded de Rham generating functions from stalk polynomials.

One map, ``stalk_formula``, carries a one-variable series h of a pair of
faces mu <= tau to (K, L):

    h -> h(K^{-1/2} L) * K^{(d_mu - d_tau)/2} * (K^{-1} + L^{-1})^{n - d_tau}.

The table entry for a nested pair is its image of the stalk polynomial,
dR_{mu,tau} = stalk_formula(Ht_{mu,tau}), written term by term with integer
K-exponents because the stalk polynomial's support has the parity of
d_tau - d_mu.  The image depends on the key
(Ht_{mu,tau}, d_mu, d_tau) alone and a lattice has few distinct keys, so
``derham_table``, the one way into the stalk route, maps each key once.  Its
memo is local to the call, so no image outlives the table it was made for.
Both closed forms of the higher-direct-image series Omega_tau in
``differentials`` are the same map at mu = 0, applied to q^{-d_tau} times a
series in q^2.  The independent route solves for dR_{0,tau} by
upper-triangular elimination over the face poset: subtracting from Omega_tau
the contributions of all nonzero faces, with dR_{mu,tau} read from the table,

    dR_{0,tau} = Omega_tau - sum_{0 != mu <= tau}
                     dR_{mu,tau} * D_mu(L^{-1} K^{1/2}) * K^{-d_mu/2}.

Agreement of the two routes, with Omega supplied either by the closed form or
by the chain-complex computation, is the package's main executable theorem.

A half power of K is taken in two places, and parity is checked at each:
``stalk_formula`` requires every degree of h to have the parity of
d_tau - d_mu, and ``derham_by_elimination`` requires every degree of D_mu
to have the parity of d_mu.  Either raises ``NonIntegralExponent``.  A
solved decomposition already has both parities, so only hand-built input
can trip them.
"""

from __future__ import annotations

from math import comb

from .decomposition import DecompositionResult
from .errors import CrossCheckMismatch, NonIntegralExponent
from .polynomials import BiLaurentPolynomial, LaurentPolynomial, _canonical_terms


def stalk_formula(h: LaurentPolynomial, d_mu: int, d_tau: int, n: int) -> BiLaurentPolynomial:
    """h(K^{-1/2} L) K^{(d_mu - d_tau)/2} (K^{-1} + L^{-1})^{n - d_tau}.

    Every degree j of h must have the parity of d_tau - d_mu, or the image
    has a half-integer K-exponent and ``NonIntegralExponent`` names the
    first such j.  Written term by term with m = n - d_tau: c_j q^j times
    the i-th term C(m, i) K^{-i} L^{-(m - i)} of the binomial is
    c_j C(m, i) at K-exponent (d_mu - d_tau - j)/2 - i and L-exponent
    j + i - m.  Two pairs (j, i) with the same monomial have the same j + i
    and the same j/2 + i, so they are the same pair: nothing accumulates,
    and no term cancels.
    """
    m = n - d_tau
    if m < 0:
        raise ValueError(f"face dimension {d_tau} exceeds the rank {n}")
    for j, _ in h.items():
        if (d_mu - d_tau - j) % 2:
            raise NonIntegralExponent(
                f"degree {j} of the stalk series does not have the parity of "
                f"d_tau - d_mu = {d_tau} - {d_mu}"
            )
    binomials = [comb(m, i) for i in range(m + 1)]
    terms = {
        ((d_mu - d_tau - j) // 2 - i, j + i - m): c * b
        for j, c in h.items() for i, b in enumerate(binomials)
    }
    return BiLaurentPolynomial._new(_canonical_terms(terms))


def derham_table(dec: DecompositionResult) -> dict[tuple[int, int], BiLaurentPolynomial]:
    """All dR_{mu,tau} for nested pairs of faces, one image per distinct key.

    This is the one way into the stalk route.  dR_{mu,tau} depends on
    (Ht_{mu,tau}, d_mu, d_tau) alone, and a lattice has few distinct keys
    (cube5: 707 pairs, 21 keys), so ``stalk_formula`` runs once per key and
    every pair reads its key's image.  The memo lives in the call: nothing
    carries from one table, cone or pass to the next.  Pairs are visited in
    the order of the table, so a parity violation names the first offending
    pair.
    """
    lattice = dec.lattice
    images: dict[tuple[LaurentPolynomial, int, int], BiLaurentPolynomial] = {}
    table = {}
    for f in lattice.faces:
        for mu in sorted(lattice.down[f.id]):
            key = (dec.htilde(mu, f.id), lattice.dim(mu), f.dim)
            if key not in images:
                try:
                    images[key] = stalk_formula(*key, lattice.rank)
                except NonIntegralExponent as exc:
                    raise NonIntegralExponent(
                        f"dR for faces ({mu}, {f.id}) has half-integer exponents; "
                        f"a parity violation upstream: {exc}"
                    ) from exc
            table[mu, f.id] = images[key]
    return table


def derham_by_elimination(
    dec: DecompositionResult,
    table: dict[tuple[int, int], BiLaurentPolynomial],
    omega: BiLaurentPolynomial,
    tau: int,
) -> BiLaurentPolynomial:
    """Solve for dR_{0,tau} from Omega_tau by subtracting the known faces.

    The subtracted terms read dR_{mu,tau} from ``table``, the stalk route's
    ``derham_table(dec)``, and the solved multiplicities; the caller compares
    the result against the table's entry for the pair (0, tau).  The factor
    D_mu(L^{-1} K^{1/2}) K^{-d_mu/2} takes q^j to K^{(j - d_mu)/2} L^{-j},
    so every degree j of D_mu must have the parity of d_mu.
    """
    lattice = dec.lattice
    out = omega
    for mu in sorted(lattice.down[tau] - {lattice.zero_id}):
        d_mu = lattice.dim(mu)
        image = {}
        for j, c in dec.D[mu].items():
            if (j - d_mu) % 2:
                raise NonIntegralExponent(
                    f"D at face {mu} has degree {j}, not of the parity of d_mu = {d_mu}"
                )
            image[(j - d_mu) // 2, -j] = c
        out = out - table[mu, tau] * BiLaurentPolynomial._new(image)
    return out


def check_main_identity(
    dec: DecompositionResult,
    table: dict[tuple[int, int], BiLaurentPolynomial],
    omega: BiLaurentPolynomial,
    tau: int,
) -> BiLaurentPolynomial:
    """Require the two routes to dR_{0,tau} to agree coefficientwise."""
    eliminated = derham_by_elimination(dec, table, omega, tau)
    direct = table[dec.lattice.zero_id, tau]
    if eliminated != direct:
        diff = eliminated - direct
        raise CrossCheckMismatch(
            f"face {tau}: elimination gives {eliminated.to_text()}, "
            f"stalk route gives {direct.to_text()}, diff {diff.to_text()}"
        )
    return direct


def stalk_chi_y(htilde: LaurentPolynomial, d_tau: int, n: int) -> LaurentPolynomial:
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
        terms[e // 2] = (-1) ** (e // 2 % 2) * shifted.coefficient(e)
    result = LaurentPolynomial(terms) * LaurentPolynomial({0: 1, 1: 1}) ** (n - d_tau)
    return -result if n % 2 else result
