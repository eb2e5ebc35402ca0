"""Pushforward Ishida complexes in a fixed lattice degree, and their cohomology.

For a simplicial subdivision of sigma, the Ishida complex resolves the sheaf
of reflexive p-forms; its pushforward has, in a fixed lattice degree u lying
in the dual-face interior of a face tau, one summand per subdivision cone
contained in tau.  The summand of a cone nu with rays rho_1..rho_r is

    V_nu^p = wedge^{p-r}(nu_perp) (x) M/rho_1_perp (x) ... (x) M/rho_r_perp,

realized concretely as the wedge powers of an echelon-normalized rational
basis of nu_perp, with every line M/rho_perp trivialized by evaluation at the
primitive generator of rho.  The differential into the term that adds a ray
rho is the contraction with rho.  Adding rho to the cone's rays turns exactly
one coordinate column of the echelon basis into a pivot, so in echelon
coordinates the contraction needs no splitting vector: its entries are the
pairings <b_i, rho> with signs, read off the columns.  Consecutive
differentials anticommute with no extra sign, which the builder checks rather
than trusts: a nonzero composite raises ``CrossCheckMismatch``.

Every differential is a list of sparse rows, placed block by block at the
blocks' offsets.  Cohomology dimensions are exact: dim ker - dim im, with
ranks from the one sparse elimination of ``linalg``.  Summing them over all
form degrees p at a fixed u gives the generating function of
higher-direct-image dimensions of reflexive differentials; the closed form in
terms of the multiplicity table is

    L^-n (1 + K^-1 L)^(n - d_tau) *
        sum_{mu <= tau} sum_j d_j(mu) (1 - K^-1 L^2)^(d_tau - j) (K^-1 L^2)^j

and the fiber-cohomology form is L^-n (1+K^-1 L)^(n-d_tau) F_tau(L K^-1/2).
"""

from __future__ import annotations

import itertools
from math import comb
from dataclasses import dataclass

from .cones import DegreeVector, dot, pick_degree, second_degree, validate_degree
from .errors import CrossCheckMismatch, DegreeMismatch, InvariantViolation
from .linalg import SparseRow, canonical, integer_rank, nullspace, sparse_row
from .polynomials import (
    BiLaurentPolynomial,
    K_INV,
    L_K_INV_HALF,
    LaurentPolynomial,
    L_VAR,
)
from .subdivision import ConeSet, MultiplicityTable, SubdivisionMap


@dataclass
class ChainComplexQ:
    """A finite complex of exact rational matrices in positions 0..len(dims)-1.

    ``mats[i]`` is the differential from position i to i+1 in row convention:
    one sparse row per source basis element, ``dims[i]`` rows in all.
    Consecutive products are zero; a nonzero one raises ``CrossCheckMismatch``.
    """

    dims: list[int]
    mats: list[list[SparseRow]]

    def __post_init__(self):
        for i in range(len(self.mats) - 1):
            following = self.mats[i + 1]
            for row in self.mats[i]:
                composite: SparseRow = {}
                for k, x in row.items():
                    for j, y in following[k].items():
                        composite[j] = composite.get(j, 0) + x * y
                if any(composite.values()):
                    raise CrossCheckMismatch(
                        f"differentials {i} and {i + 1} do not compose to zero"
                    )


def cohomology_dims(complex: ChainComplexQ) -> list[int]:
    """Exact cohomology dimensions h^i = dim ker d_i - dim im d_{i-1}."""
    dims = complex.dims
    # ranks[i] is the rank of d_{i-1}, with zero maps at both ends
    ranks = [0]
    for i, m in enumerate(complex.mats):
        ranks.append(integer_rank(m) if dims[i] and dims[i + 1] else 0)
    ranks.append(0)
    out = [d - ranks[i] - ranks[i + 1] for i, d in enumerate(dims)]
    if min(out) < 0:
        raise InvariantViolation(None, "cohomology", f"ranks {ranks} exceed {dims}")
    return out


def _dual_cohomology_dims(complex: ChainComplexQ) -> list[int]:
    """The same dimensions read off the dual complex: h^i(C) = h^(N-i)(C*).

    C* has the transposed differentials in reverse order, so its ranks come
    from an elimination of different rows than ``cohomology_dims`` runs.
    """
    transposed = []
    for i, m in enumerate(complex.mats):
        columns: list[SparseRow] = [{} for _ in range(complex.dims[i + 1])]
        for r, row in enumerate(m):
            for j, x in row.items():
                columns[j][r] = x
        transposed.append(columns)
    dual = ChainComplexQ(dims=complex.dims[::-1], mats=transposed[::-1])
    return cohomology_dims(dual)[::-1]


def _perp_basis(sub: SubdivisionMap, cone: ConeSet):
    """Echelon-normalized basis of nu_perp for the cone nu, with its coordinate columns."""
    memo = sub.ishida_memo
    if cone not in memo:
        rows = [sparse_row(sub.rays[i]) for i in sorted(cone)]
        memo[cone] = nullspace(rows, sub.lattice.rank)
    return memo[cone]


def _block(sub: SubdivisionMap, mu: ConeSet, nu: ConeSet, p: int):
    """Sparse rows of the differential component V_mu^p -> V_nu^p (row convention).

    The component is the contraction with the ray rho of nu not in mu.  Let
    t_i = <b_i, rho> on mu's basis, e the first index with t_e != 0.  The
    left-to-right elimination makes mu's free column e nu's one new pivot, so
    b_s - (t_s / t_e) b_e has nu-coordinates the unit vector at s - (s > e) and
    is 0 at s = e: row S has (-1)^(k-1-j) t_{s_j} at S - {s_j}, reindexed.
    """
    memo = sub.ishida_memo
    key = (mu, nu, p)
    if key in memo:
        return memo[key]

    (rho,) = nu - mu
    src_basis, src_cols = _perp_basis(sub, mu)
    _, dst_cols = _perp_basis(sub, nu)
    t = [canonical(dot(b, sub.rays[rho])) for b in src_basis]
    e = next(i for i, x in enumerate(t) if x)
    if dst_cols != src_cols[:e] + src_cols[e + 1 :]:
        raise InvariantViolation(
            None, "ishida", f"free columns {dst_cols} do not nest in {src_cols}"
        )
    k = p - len(mu)
    dst_labels = itertools.combinations(range(len(dst_cols)), k - 1)
    dst_index = {lab: i for i, lab in enumerate(dst_labels)}

    rows = []
    for label in itertools.combinations(range(len(src_cols)), k):
        row: SparseRow = {}
        for j, s in enumerate(label):
            if t[s] and (s == e or e not in label):
                rest = tuple(r - (r > e) for r in label if r != s)
                row[dst_index[rest]] = (-1) ** (k - 1 - j) * t[s]
        rows.append(row)
    memo[key] = rows
    return rows


def build_degree_complex(
    sub: SubdivisionMap, p: int, degree: DegreeVector
) -> ChainComplexQ:
    """The pushforward Ishida complex for p-forms in lattice degree u.

    A cone's summand survives in degree u exactly when u pairs to zero with
    every ray of the cone.  ``validate_degree`` has just shown that u
    vanishes on sigma exactly on tau's rays, so these are the cones whose
    pushforward lies in tau.  Position 0 holds the wedge^p of the whole
    dual space (the zero cone); position l collects the surviving l-ray cones.
    """
    lattice = sub.lattice
    n = lattice.rank
    if not (0 <= p <= n):
        raise ValueError(f"form degree {p} out of range 0..{n}")
    if not 0 <= degree.face <= lattice.top_id or not validate_degree(
        lattice, degree.face, degree.u
    ):
        raise DegreeMismatch(f"degree {degree.u} is not valid for face {degree.face}")

    survivors: dict[int, list[ConeSet]] = {l: [] for l in range(p + 1)}
    for cone in sub.cones:
        if len(cone) <= p and lattice.leq(sub.pushforward[cone], degree.face):
            survivors[len(cone)].append(cone)
    for lst in survivors.values():
        lst.sort(key=sorted)

    dims = []
    offsets: list[dict[ConeSet, int]] = []
    for l in range(p + 1):
        off: dict[ConeSet, int] = {}
        total = 0
        for cone in survivors[l]:
            off[cone] = total
            total += comb(len(_perp_basis(sub, cone)[0]), p - l)
        dims.append(total)
        offsets.append(off)

    mats = []
    for l in range(p):
        rows: list[SparseRow] = [{} for _ in range(dims[l])]
        for mu in survivors[l]:
            r0 = offsets[l][mu]
            for nu in survivors[l + 1]:
                if mu < nu:
                    c0 = offsets[l + 1][nu]
                    for i, block_row in enumerate(_block(sub, mu, nu, p)):
                        target = rows[r0 + i]
                        for j, val in block_row.items():
                            target[c0 + j] = val
        mats.append(rows)
    return ChainComplexQ(dims=dims, mats=mats)


def omega_oracle(sub: SubdivisionMap, tau: int) -> BiLaurentPolynomial:
    """Generating function of the degree-u cohomology over all form degrees.

    The coefficient of K^{-p} L^{i-n+p} is h^i of the p-form complex in the
    validated degree u = ``pick_degree(sub.lattice, tau)``, interior to the
    dual face of tau.
    """
    return _omega_at_degree(sub, pick_degree(sub.lattice, tau))


def check_second_degree(sub: SubdivisionMap, tau: int, omega: BiLaurentPolynomial) -> None:
    """Recompute ``omega_oracle(sub, tau)`` at a second valid degree, if any.

    Only the second degree is computed, and its cohomology is read off the
    dual complexes; ``omega`` is the first-degree result.  Disagreement raises
    ``CrossCheckMismatch``.  Sigma itself has only the degree 0, so there is
    nothing to compare.
    """
    deg = pick_degree(sub.lattice, tau)
    other = second_degree(sub.lattice, deg)
    if other is None:
        return
    again = _omega_at_degree(sub, other, _dual_cohomology_dims)
    if again != omega:
        raise CrossCheckMismatch(
            f"degree {deg.u} and {other.u} disagree on face {tau}: "
            f"{omega.to_text()} vs {again.to_text()}"
        )


def _omega_at_degree(
    sub: SubdivisionMap, deg: DegreeVector, cohomology=cohomology_dims
) -> BiLaurentPolynomial:
    n = sub.lattice.rank
    terms = {}
    for p in range(n + 1):
        complex = build_degree_complex(sub, p, deg)
        for i, h in enumerate(cohomology(complex)):
            if h:
                terms[(-2 * p, i - n + p)] = h
    return BiLaurentPolynomial(terms)


def omega_closed_form(d: MultiplicityTable, tau: int) -> BiLaurentPolynomial:
    """Closed form of the generating function from the multiplicity table."""
    lattice = d.lattice
    n = lattice.rank
    d_tau = lattice.face(tau).dim
    one = BiLaurentPolynomial.one()
    kl2 = BiLaurentPolynomial.monomial(-2, 2)  # K^{-1} L^2
    inner = BiLaurentPolynomial.zero()
    for j in range(d_tau + 1):
        # by linearity, one product per j for all the faces below tau
        count = sum(d.get(j, f) for f in lattice.down[tau])
        if count:
            inner = inner + count * (one - kl2) ** (d_tau - j) * kl2**j
    return BiLaurentPolynomial.monomial(0, -n) * (one + K_INV * L_VAR) ** (
        n - d_tau
    ) * inner


def omega_from_fiber_poincare(
    fiber: LaurentPolynomial, n: int, d_tau: int
) -> BiLaurentPolynomial:
    """L^{-n} (1 + K^{-1}L)^{n-d_tau} with q -> L K^{-1/2} in the fiber series."""
    one = BiLaurentPolynomial.one()
    return (
        BiLaurentPolynomial.monomial(0, -n)
        * (one + K_INV * L_VAR) ** (n - d_tau)
        * fiber.substitute(L_K_INV_HALF)
    )
