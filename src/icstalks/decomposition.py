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
barycentric fiber of the quotient cone of hi by lo.  A fiber depends on its
count tuple alone, so faces and intervals share one expansion per distinct
tuple.  The recursion runs on term maps: each left side is one dict, split
in one pass into Ht and D.

Every D is palindromic and every off-diagonal Ht strictly negative by the
split itself.  The rest is validated after the fact, in one pass over each
polynomial's terms: nonnegative integer coefficients, unimodal D, degree
supports matching the parity of the relevant face dimensions, and then
closure of the stalk identity itself, which at the zero face requires
F_0 = 1.  Violations surface as errors rather than steering the computation.
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


def _checked_fiber(series: LaurentPolynomial, tau: int) -> LaurentPolynomial:
    """``series`` as the fiber of face tau, which must have nonnegative integer terms."""
    if not (series.is_integer() and series.is_nonnegative()):
        raise NegativeCoefficient(
            f"fiber series of face {tau} has a negative coefficient: {series.to_text()}"
        )
    return series


def fiber_poincare(d: MultiplicityTable, tau: int) -> LaurentPolynomial:
    """Poincare polynomial of the fiber over the orbit of tau."""
    counts = [d.get(l, tau) for l in range(d.lattice.face(tau).dim + 1)]
    return _checked_fiber(_fiber_series(counts), tau)


def _split(terms: dict) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """The unique splitting of a term map into (strictly negative, palindromic).

    The palindromic part mirrors the coefficients in degrees >= 0; the
    remainder is supported in degrees < 0.  The splitting always exists and
    is unique; nonnegativity is ``_validate``'s concern.  One pass; the map
    may hold zeros, and its values come in canonical, so only a difference
    is made canonical.
    """
    neg, pal = {}, {}
    for e, c in terms.items():
        if e < 0:
            c -= terms.get(-e, 0)
            if c:
                neg[e] = c if type(c) is int or c.denominator != 1 else c.numerator
        elif c:
            pal[e] = pal[-e] = c
            if e and -e not in terms:
                neg[-e] = -c
    return LaurentPolynomial._new(neg), LaurentPolynomial._new(pal)


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
        def entry(poly: LaurentPolynomial, **key) -> dict:
            return {**key, "poly": poly.to_json_obj(), "text": poly.to_text()}

        return {
            "F": [entry(self.F[t], tau=t) for t in sorted(self.F)],
            "Htilde": [entry(self.Htilde[m, t], mu=m, tau=t) for m, t in sorted(self.Htilde)],
            "D": [entry(self.D[t], tau=t) for t in sorted(self.D)],
        }


def solve_decomposition(lattice: FaceLattice, d: MultiplicityTable) -> DecompositionResult:
    """Solve for every Ht_{mu,tau} and D_tau from the multiplicity table.

    Face ids increase with dimension, so walking hi in id order and lo in
    reverse id order reaches every interval after the shorter ones it needs.
    A fiber's count tuple is a face's d-counts, or
    ``FaceLattice.chain_counts(lo, hi)`` for an interval with lo != 0; each
    distinct tuple (cube5: 8 for 82 faces and 544 intervals) is expanded
    once, shifted by its length minus one, into a memo local to the call.
    Each interval's left side is one term map, the shifted fiber minus
    Ht_{mid,hi} * D_{lo,mid} over the middles ``up[lo] & down[hi]``,
    unsorted because the sums are exact.  Only nonzero D_{lo,mid} with
    lo < mid are kept, so lo, hi and every cover's zero D drop out at once.
    """
    result = DecompositionResult(lattice=lattice)
    htilde = result.Htilde
    dpal: dict[tuple[int, int], LaurentPolynomial] = {}
    fibers: dict[tuple[int, ...], tuple[LaurentPolynomial, dict]] = {}

    def fiber(counts: tuple[int, ...]) -> tuple[LaurentPolynomial, dict]:
        if counts not in fibers:
            series = _fiber_series(counts)
            fibers[counts] = series, {e - len(counts) + 1: c for e, c in series.items()}
        return fibers[counts]

    zero, up, faces = lattice.zero_id, lattice.up, lattice.faces
    for f in faces:
        hi = f.id
        series, shifted = fiber(tuple(d.get(l, hi) for l in range(f.dim + 1)))
        result.F[hi] = _checked_fiber(series, hi)
        # lo walks down to the zero face last, which leaves D_{0,hi} in pal
        htilde[hi, hi] = pal = LaurentPolynomial.one()
        for lo in sorted(lattice.down[hi] - {hi}, reverse=True):
            terms = dict(shifted if lo == zero else fiber(lattice.chain_counts(lo, hi))[1])
            get = terms.get
            for mid in up[lo] & lattice.down[hi]:
                dm = dpal.get((lo, mid))
                if dm is None:
                    continue
                for e1, c1 in htilde[mid, hi].items():
                    for e2, c2 in dm.items():
                        terms[e1 + e2] = get(e1 + e2, 0) - c1 * c2
            htilde[lo, hi], pal = _split(terms)
            if pal:
                dpal[lo, hi] = pal
        result.D[hi] = pal
    _validate(result)
    return result


def _check_terms(poly, parity: int, tau: int, value_error: str, parity_error: str) -> int:
    """Lowest degree (at most 0) of ``poly``, whose coefficients must be positive
    ints and its degrees of the parity; a failure is rescanned to name values first."""
    low = 0
    for e, c in poly.items():
        if c <= 0 or c.denominator != 1 or (e - parity) % 2:
            values_ok = poly.is_integer() and poly.is_nonnegative()
            raise InvariantViolation(tau, parity_error if values_ok else value_error)
        low = min(low, e)
    return low


def _validate(result: DecompositionResult) -> None:
    lattice = result.lattice
    dims = [f.dim for f in lattice.faces]
    for tau, poly in result.D.items():
        low = _check_terms(
            poly, dims[tau], tau, "negative or fractional multiplicity", "multiplicity parity"
        )
        rising = [poly.coefficient(e) for e in range(low, 1, 2)]
        if any(a > b for a, b in zip(rising, rising[1:])):
            raise InvariantViolation(tau, "multiplicity unimodality")
    for (mu, tau), poly in result.Htilde.items():
        gap = dims[tau] - dims[mu]
        _check_terms(poly, gap, tau, "negative or fractional stalk coefficient", "stalk parity")
    # closure of the stalk identity: Ft_tau minus every Ht_{mu,tau} * D_mu is 0
    for f in lattice.faces:
        rest = {e - f.dim: c for e, c in result.F[f.id].items()}
        for mu in lattice.down[f.id]:
            for e2, c2 in result.D[mu].items():
                for e1, c1 in result.Htilde[mu, f.id].items():
                    rest[e1 + e2] = rest.get(e1 + e2, 0) - c1 * c2
        if any(rest.values()):
            raise InvariantViolation(f.id, "stalk identity does not close")


def lowest_degree_normalized(result: DecompositionResult) -> list[int]:
    """Faces whose stalk polynomial does not have coefficient 1 at q^{-dim}.

    The solver does not require it; ``verify``'s decomposition-invariants
    check does.
    """
    zero = result.lattice.zero_id
    return [
        f.id
        for f in result.lattice.faces
        if f.id != zero and result.Htilde[zero, f.id].coefficient(-f.dim) != 1
    ]
