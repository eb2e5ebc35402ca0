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

The solved table is validated after the fact: nonnegative integer
coefficients, palindromic D, strictly negative support of off-diagonal Ht,
degree supports matching the parity of the relevant face dimensions, and
closure of the stalk identity itself.  Violations surface as errors rather
than steering the computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cones import FaceLattice
from .errors import InvariantViolation, NegativeCoefficient
from .polynomials import LaurentPolynomial, Q_SQUARED_MINUS_ONE
from .subdivision import MultiplicityTable


def _fiber_series(counts: list[int]) -> LaurentPolynomial:
    """sum_l counts[l] (q^2 - 1)^(n - l), where n = len(counts) - 1."""
    n = len(counts) - 1
    out = LaurentPolynomial.zero()
    for l, count in enumerate(counts):
        if count:
            out = out + count * Q_SQUARED_MINUS_ONE ** (n - l)
    return out


def fiber_poincare(d: MultiplicityTable, tau: int) -> LaurentPolynomial:
    """Poincare polynomial of the fiber over the orbit of tau."""
    out = _fiber_series([d.get(l, tau) for l in range(d.lattice.dim(tau) + 1)])
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
    negative = p - palindromic
    assert palindromic.is_palindromic()
    assert all(e < 0 for e in negative.support())
    return negative, palindromic


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
    """
    result = DecompositionResult(lattice=lattice)
    htilde = result.Htilde
    dpal: dict[tuple[int, int], LaurentPolynomial] = {}
    zero = lattice.zero_id
    for f in lattice.faces:
        hi = f.id
        result.F[hi] = fiber_poincare(d, hi)
        for lo in reversed([g.id for g in lattice.faces if lattice.leq(g.id, hi)]):
            if lo == hi:
                htilde[(lo, hi)] = dpal[(lo, hi)] = LaurentPolynomial.one()
                continue
            length = f.dim - lattice.dim(lo)
            if lo == zero:
                fiber = result.F[hi]
            else:
                fiber = _fiber_series(
                    [lattice.chain_count(lo, hi, l) for l in range(length + 1)]
                )
            lhs = fiber.shift(-length)
            for mid in lattice.strictly_between(lo, hi):
                lhs = lhs - htilde[(mid, hi)] * dpal[(lo, mid)]
            htilde[(lo, hi)], dpal[(lo, hi)] = split_palindromic_negative(lhs)
        result.D[hi] = dpal[(zero, hi)]
    _validate(result)
    return result


def _validate(result: DecompositionResult) -> None:
    lattice = result.lattice
    for tau, poly in result.D.items():
        if not poly.is_palindromic():
            raise InvariantViolation(tau, "non-palindromic multiplicity")
        if not (poly.is_integer() and poly.is_nonnegative()):
            raise InvariantViolation(tau, "negative or fractional multiplicity")
        if any(e % 2 != lattice.dim(tau) % 2 for e in poly.support()):
            raise InvariantViolation(tau, "multiplicity parity")
    for (mu, tau), poly in result.Htilde.items():
        if not (poly.is_integer() and poly.is_nonnegative()):
            raise InvariantViolation(tau, "negative or fractional stalk coefficient")
        if mu != tau and any(e >= 0 for e in poly.support()):
            raise InvariantViolation(tau, "stalk not strictly negative")
        gap = lattice.dim(tau) - lattice.dim(mu)
        if any((e - gap) % 2 for e in poly.support()):
            raise InvariantViolation(tau, "stalk parity")
    # closure of the stalk identity
    for f in lattice.faces:
        tau = f.id
        total = LaurentPolynomial.zero()
        for g in lattice.faces:
            mu = g.id
            if lattice.leq(mu, tau):
                total = total + result.Htilde[(mu, tau)] * result.D[mu]
        if total != result.F[tau].shift(-f.dim):
            raise InvariantViolation(tau, "stalk identity does not close")


def lowest_degree_normalized(result: DecompositionResult) -> list[int]:
    """Faces whose stalk polynomial does not have coefficient 1 at q^{-dim}.

    This holds throughout the corpus but is reported rather than enforced.
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
