"""Golden values at every rank from Stanley's toric g and local h.

Stalks are toric g-polynomials of face intervals (Stanley 1987) and
multiplicities are local h-polynomials (Stanley 1992, "Subdivisions and local
h-vectors").  With d the face dimension, T = q - q^{-1} and [p]_{<0} the terms
of p of negative degree, Ht_{lo,lo} = 1 and

    Ht_{lo,hi} = -[ sum_{lo <= c < hi} Ht_{lo,c} T^{d_hi - d_c} ]_{<0},

which is q^{-r} g([lo, hi]; q^2) with r = d_hi - d_lo.  The same recursion on
order-dual intervals gives Ht*_{lo,hi}, and with F_F the fiber Poincare
polynomial of the multiplicity table

    D_tau = sum_{F <= tau} (-1)^{d_tau - d_F} q^{-d_F} F_F(q) Ht*_{F,tau}.

Golden dR_{0,tau} is the paper's stalk formula applied to Ht_{0,tau}.  Only the
fibers are shared with ``decomposition``'s solver: no palindromic split and no
chain count, so the two routes agree only if both are right.
"""

from __future__ import annotations

from .cones import FaceLattice
from .decomposition import fiber_poincare
from .derham import stalk_formula
from .polynomials import BiLaurentPolynomial, LaurentPolynomial
from .subdivision import MultiplicityTable

L = LaurentPolynomial
Table = dict[tuple[int, int], LaurentPolynomial]


def toric_g(lattice: FaceLattice, dual: bool = False) -> Table:
    """Ht_{lo,hi} for every nested pair of faces; Ht*_{lo,hi} when ``dual``.

    The fixed end of an interval is lo (hi when ``dual``); the other end moves
    away from it, so every interval comes after the shorter ones it needs.
    """
    t = L({1: 1, -1: -1})
    powers = [t**k for k in range(lattice.rank + 1)]
    out: Table = {}
    for f in reversed(lattice.faces) if dual else lattice.faces:
        out[f.id, f.id] = L.one()
        for fixed in (lattice.up if dual else lattice.down)[f.id] - {f.id}:
            lo, hi = (f.id, fixed) if dual else (fixed, f.id)
            total = L.sum_of_products(
                (out[(c, hi) if dual else (lo, c)], powers[abs(f.dim - lattice.dim(c))])
                for c in [fixed, *lattice.strictly_between(lo, hi)]
            )
            out[lo, hi] = L({e: -c for e, c in total.items() if e < 0})
    return out


def local_h(lattice: FaceLattice, d: MultiplicityTable, dual_g: Table) -> dict[int, L]:
    """D_tau for every face from the fibers of ``d`` and the dual stalks."""
    fibers = [fiber_poincare(d, f.id).shift(-f.dim) for f in lattice.faces]
    return {
        tau.id: L.sum_of_products(
            (fibers[F] * (-1) ** (tau.dim - lattice.dim(F)), dual_g[F, tau.id])
            for F in sorted(lattice.down[tau.id])
        )
        for tau in lattice.faces
    }


def golden_derham(lattice: FaceLattice, g: Table) -> dict[int, BiLaurentPolynomial]:
    """dR_{0,tau} for every face: the stalk formula on Ht_{0,tau} of ``g``."""
    return {
        f.id: stalk_formula(g[lattice.zero_id, f.id], 0, f.dim, lattice.rank)
        for f in lattice.faces
    }
