"""Fiber Poincare polynomials and the stalk recursion on the face poset.

For a simplicial subdivision with multiplicity table d, the fiber over a
point of the orbit of a face tau has Poincare polynomial

    F_tau(q) = sum_l d_l(tau) (q^2 - 1)^(d_tau - l).

Writing Ft_tau = q^{-d_tau} F_tau, the stalk identity

    Ft_tau = sum_{mu <= tau} Ht_{mu,tau} * D_mu

determines the normalized stalk polynomials Ht and the multiplicities D.
One recursion solves it on every interval [lo, hi] of the face poset,
shorter intervals first, as in Stanley's toric h/g recursion: with
Ht_{lo,lo} = D_{lo,lo} = 1, the normalized fiber of [lo, hi] minus the known
terms Ht_{mid,hi} * D_{lo,mid} (lo < mid < hi) splits uniquely into a part
supported in strictly negative degrees (Ht_{lo,hi}) plus a palindromic part
(D_{lo,hi}).  The fiber of [0, tau] is F_tau, so D_tau = D_{0,tau}.
Off-diagonal stalks Ht_{mu,tau} depend only on [mu, tau] as a graded poset;
the fiber of an interval with lo != 0 is its chain-count series, the
barycentric fiber of the quotient cone of hi by lo.

Every D is palindromic and every off-diagonal Ht strictly negative by the
split itself.  The rest is validated after the fact: nonnegative integer
coefficients, unimodal D, degree supports matching the parity of the
relevant face dimensions, and closure of the stalk identity itself, which at
the zero face requires F_0 = 1.  Violations surface as errors rather than
steering the computation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from math import comb

from .cones import FaceLattice
from .errors import InvariantViolation, NegativeCoefficient
from .polynomials import LaurentPolynomial
from .subdivision import MultiplicityTable


def _fiber_series(counts: Sequence[int]) -> LaurentPolynomial:
    """sum_l counts[l] (q^2 - 1)^(n - l), where n = len(counts) - 1.

    Expanded by the binomial theorem: the coefficient of q^(2j) is
    sum_l counts[l] (-1)^(n - l - j) C(n - l, j).
    """
    n = len(counts) - 1
    return LaurentPolynomial(
        {
            2 * j: sum(
                (-1) ** (n - l - j) * comb(n - l, j) * count
                for l, count in enumerate(counts[: n - j + 1])
            )
            for j in range(n + 1)
        }
    )


def fiber_poincare(d: MultiplicityTable, tau: int) -> LaurentPolynomial:
    """Poincare polynomial of the fiber over the orbit of tau."""
    out = _fiber_series([d.get(l, tau) for l in range(d.lattice.face(tau).dim + 1)])
    if not (out.is_integer() and out.is_nonnegative()):
        raise NegativeCoefficient(
            f"fiber series of face {tau} has a negative coefficient: {out.to_text()}"
        )
    return out


def split_palindromic_negative(
    p: LaurentPolynomial,
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Unique splitting p = (strictly negative part) + (palindromic part).

    The palindromic part mirrors the coefficients of p in degrees >= 0; the
    remainder is supported in degrees < 0.  The splitting always exists and
    is unique; downstream nonnegativity checks are the solver's concern.
    """
    pal_terms = {}
    for e in p.support():
        if e == 0:
            pal_terms[0] = p.coefficient(0)
        elif e > 0:
            pal_terms[e] = p.coefficient(e)
            pal_terms[-e] = p.coefficient(e)
    palindromic = LaurentPolynomial(pal_terms)
    return p - palindromic, palindromic


@dataclass
class DecompositionResult:
    """Solved stalk polynomials Ht_{mu,tau}, multiplicities D_tau, fibers F_tau."""

    lattice: FaceLattice
    Htilde: dict[tuple[int, int], LaurentPolynomial] = field(default_factory=dict)
    D: dict[int, LaurentPolynomial] = field(default_factory=dict)
    F: dict[int, LaurentPolynomial] = field(default_factory=dict)

    def htilde(self, mu: int, tau: int) -> LaurentPolynomial:
        return self.Htilde[(mu, tau)]

    def to_json_obj(self) -> dict:
        return {
            "F": [
                {"tau": t, "poly": self.F[t].to_json_obj(), "text": self.F[t].to_text()}
                for t in sorted(self.F)
            ],
            "Htilde": [
                {
                    "mu": m,
                    "tau": t,
                    "poly": self.Htilde[(m, t)].to_json_obj(),
                    "text": self.Htilde[(m, t)].to_text(),
                }
                for (m, t) in sorted(self.Htilde)
            ],
            "D": [
                {"tau": t, "poly": self.D[t].to_json_obj(), "text": self.D[t].to_text()}
                for t in sorted(self.D)
            ],
        }


def solve_decomposition(
    lattice: FaceLattice, d: MultiplicityTable
) -> DecompositionResult:
    """Solve for every Ht_{mu,tau} and D_tau from the multiplicity table.

    Face ids increase with dimension, so walking hi in id order and lo in
    reverse id order reaches every interval after the shorter ones it needs.
    The normalized fiber of an interval with lo != 0 depends on its
    chain-count tuple alone, ``FaceLattice.chain_counts(lo, hi)``, and a
    lattice has few distinct tuples (cube5: 544 intervals, 4 tuples), so
    each is expanded once.  That memo lives in the call: nothing carries
    from one lattice or pass to the next.  Each interval's middles are
    listed once, for the sum of the known terms.
    """
    result = DecompositionResult(lattice=lattice)
    htilde = result.Htilde
    dpal: dict[tuple[int, int], LaurentPolynomial] = {}
    fibers: dict[tuple[int, ...], LaurentPolynomial] = {}
    zero = lattice.zero_id
    for f in lattice.faces:
        hi = f.id
        result.F[hi] = fiber_poincare(d, hi)
        for lo in sorted(lattice.down[hi], reverse=True):
            if lo == hi:
                htilde[(lo, hi)] = dpal[(lo, hi)] = LaurentPolynomial.one()
                continue
            length = f.dim - lattice.dim(lo)
            if lo == zero:
                fiber = result.F[hi].shift(-length)
            else:
                counts = lattice.chain_counts(lo, hi)
                if counts not in fibers:
                    fibers[counts] = _fiber_series(counts).shift(-length)
                fiber = fibers[counts]
            lhs = fiber - LaurentPolynomial.sum_of_products(
                (htilde[(mid, hi)], dpal[(lo, mid)])
                for mid in lattice.strictly_between(lo, hi)
            )
            htilde[(lo, hi)], dpal[(lo, hi)] = split_palindromic_negative(lhs)
        result.D[hi] = dpal[(zero, hi)]
    _validate(result)
    return result


def _validate(result: DecompositionResult) -> None:
    lattice = result.lattice
    for tau, poly in result.D.items():
        if not (poly.is_integer() and poly.is_nonnegative()):
            raise InvariantViolation(tau, "negative or fractional multiplicity")
        if any(e % 2 != lattice.dim(tau) % 2 for e in poly.support()):
            raise InvariantViolation(tau, "multiplicity parity")
        rising = [poly.coefficient(e) for e in range(min(poly.support(), default=0), 1, 2)]
        if any(a > b for a, b in zip(rising, rising[1:])):
            raise InvariantViolation(tau, "multiplicity unimodality")
    for (mu, tau), poly in result.Htilde.items():
        if not (poly.is_integer() and poly.is_nonnegative()):
            raise InvariantViolation(tau, "negative or fractional stalk coefficient")
        gap = lattice.dim(tau) - lattice.dim(mu)
        if any((e - gap) % 2 for e in poly.support()):
            raise InvariantViolation(tau, "stalk parity")
    # closure of the stalk identity
    for f in lattice.faces:
        tau = f.id
        total = LaurentPolynomial.sum_of_products(
            (result.Htilde[(mu, tau)], result.D[mu]) for mu in sorted(lattice.down[tau])
        )
        if total != result.F[tau].shift(-f.dim):
            raise InvariantViolation(tau, "stalk identity does not close")


def lowest_degree_normalized(result: DecompositionResult) -> list[int]:
    """Faces whose stalk polynomial does not have coefficient 1 at q^{-dim}.

    The solver does not require it; ``verify``'s decomposition-invariants
    check does.
    """
    bad = []
    zero = result.lattice.zero_id
    for f in result.lattice.faces:
        if f.id == zero:
            continue
        h = result.Htilde[(zero, f.id)]
        if h.coefficient(-f.dim) != 1:
            bad.append(f.id)
    return bad
