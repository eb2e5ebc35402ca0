"""Pushforward Ishida complexes in a fixed lattice degree, and their cohomology.

For a simplicial subdivision of sigma, the Ishida complex resolves the sheaf
of reflexive p-forms; its pushforward has, in a fixed lattice degree u lying
in the dual-face interior of a face tau, one summand per subdivision cone
contained in tau.  The summand of a cone nu with rays rho_1..rho_r is

    V_nu^p = wedge^{p-r}(nu_perp) (x) M/rho_1_perp (x) ... (x) M/rho_r_perp,

realized concretely as the wedge powers of an echelon-normalized rational
basis of nu_perp, with every line M/rho_perp trivialized by evaluation at the
primitive generator of rho.  The differential into the term that adds a ray
rho splits off the e-factor of omega = alpha + beta ^ e (for any e with
<e, rho> = 1) and maps omega to beta; this canonical projection is
independent of the choice of e, and consecutive differentials anticommute
with no extra sign, which the builder asserts rather than trusts.

Cohomology dimensions are exact: dim ker - dim im via fraction-free integer
rank computation.  Summing them over all form degrees p at a fixed u gives
the generating function of higher-direct-image dimensions of reflexive
differentials; the closed form in terms of the multiplicity table is

    L^-n (1 + K^-1 L)^(n - d_tau) *
        sum_{mu <= tau} sum_j d_j(mu) (1 - K^-1 L^2)^(d_tau - j) (K^-1 L^2)^j

and the fiber-cohomology form is L^-n (1+K^-1 L)^(n-d_tau) F_tau(L K^-1/2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .cones import DegreeVector, dot, pick_degree, second_degree, validate_degree
from .errors import CrossCheckMismatch, DegreeMismatch
from .linalg import (
    coordinates_in_basis,
    determinant,
    integer_rank,
    is_zero_matrix,
    mat_mul,
    nullspace,
)
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
    one row per source basis element.  Consecutive products are zero.
    """

    dims: list[int]
    mats: list[list[list[Fraction]]]

    def __post_init__(self):
        for i in range(len(self.mats) - 1):
            if self.dims[i] and self.dims[i + 1] and self.dims[i + 2]:
                assert is_zero_matrix(mat_mul(self.mats[i], self.mats[i + 1])), (
                    "consecutive differentials do not compose to zero"
                )


def cohomology_dims(complex: ChainComplexQ) -> list[int]:
    """Exact cohomology dimensions h^i = dim ker d_i - dim im d_{i-1}."""
    ranks = []
    for i, m in enumerate(complex.mats):
        if complex.dims[i] == 0 or complex.dims[i + 1] == 0:
            ranks.append(0)
        else:
            ranks.append(integer_rank(m))
    out = []
    for i, d in enumerate(complex.dims):
        r_out = ranks[i] if i < len(ranks) else 0
        r_in = ranks[i - 1] if i > 0 else 0
        h = d - r_out - r_in
        assert h >= 0
        out.append(h)
    assert sum((-1) ** i * h for i, h in enumerate(out)) == sum(
        (-1) ** i * d for i, d in enumerate(complex.dims)
    )
    return out


class _TermData:
    """Cached wedge-basis data for the summand of one subdivision cone."""

    def __init__(self, sub: SubdivisionMap, cone: ConeSet):
        n = sub.lattice.rank
        rays = [list(sub.rays[i]) for i in sorted(cone)]
        self.cone = cone
        self.basis, self.coord_cols = nullspace(rays, n)

    def wedge_labels(self, k: int) -> list[tuple[int, ...]]:
        return list(itertools.combinations(range(len(self.basis)), k))


def _term_data(sub: SubdivisionMap, cone: ConeSet) -> _TermData:
    cache = getattr(sub, "_ishida_terms", None)
    if cache is None:
        cache = {}
        sub._ishida_terms = cache
    if cone not in cache:
        cache[cone] = _TermData(sub, cone)
    return cache[cone]


def _wedge_coordinates(vectors, dim: int, size: int) -> dict[tuple[int, ...], Fraction]:
    """Coefficients of v_1 ^ ... ^ v_size in the standard wedge basis.

    ``vectors`` are given in coordinates of a dim-dimensional space; the
    coefficient at a size-subset T is the minor with columns T.
    """
    if size == 0:
        return {(): Fraction(1)}
    out: dict[tuple[int, ...], Fraction] = {}
    for cols in itertools.combinations(range(dim), size):
        minor = determinant([[v[c] for c in cols] for v in vectors])
        if minor:
            out[cols] = minor
    return out


def _block(sub: SubdivisionMap, mu: ConeSet, nu: ConeSet, p: int):
    """Matrix of the differential component V_mu^p -> V_nu^p (row convention)."""
    cache = getattr(sub, "_ishida_blocks", None)
    if cache is None:
        cache = {}
        sub._ishida_blocks = cache
    key = (mu, nu, p)
    if key in cache:
        return cache[key]

    (rho,) = nu - mu
    v = sub.rays[rho]
    src = _term_data(sub, mu)
    dst = _term_data(sub, nu)
    k = p - len(mu)
    src_labels = src.wedge_labels(k)
    dst_labels = dst.wedge_labels(k - 1)
    dst_index = {lab: i for i, lab in enumerate(dst_labels)}

    pairing = [dot(b, v) for b in src.basis]
    e_idx = next(i for i, t in enumerate(pairing) if t != 0)
    e = [x / pairing[e_idx] for x in src.basis[e_idx]]
    n = sub.lattice.rank
    beta_coords = []
    for b, t in zip(src.basis, pairing):
        bv = [Fraction(b[j]) - t * e[j] for j in range(n)]
        beta_coords.append(coordinates_in_basis(bv, dst.basis, dst.coord_cols))

    rows = []
    dim_dst_space = len(dst.basis)
    for label in src_labels:
        row = [Fraction(0)] * len(dst_labels)
        for j, s_j in enumerate(label):
            t = pairing[s_j]
            if t == 0:
                continue
            rest = [beta_coords[s] for s in label if s != s_j]
            sign = (-1) ** (k - 1 - j)
            for cols, minor in _wedge_coordinates(rest, dim_dst_space, k - 1).items():
                row[dst_index[cols]] += sign * t * minor
        rows.append(row)
    cache[key] = rows
    return rows


def build_degree_complex(
    sub: SubdivisionMap, p: int, degree: DegreeVector
) -> ChainComplexQ:
    """The pushforward Ishida complex for p-forms in lattice degree u.

    A cone's summand survives in degree u exactly when u pairs to zero with
    every ray of the cone; for u interior to the dual face of tau these are
    the cones contained in tau.  Position 0 holds the wedge^p of the whole
    dual space (the zero cone); position l collects the surviving l-ray cones.
    """
    lattice = sub.lattice
    n = lattice.rank
    if not (0 <= p <= n):
        raise ValueError(f"form degree {p} out of range 0..{n}")
    if degree.face >= len(lattice.faces) or not validate_degree(
        lattice, degree.face, degree.u
    ):
        raise DegreeMismatch(f"degree {degree.u} is not valid for face {degree.face}")

    survivors: dict[int, list[ConeSet]] = {l: [] for l in range(p + 1)}
    for cone in sub.cones:
        if len(cone) > p:
            continue
        if all(dot(degree.u, sub.rays[i]) == 0 for i in cone):
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
            total += len(_term_data(sub, cone).wedge_labels(p - l))
        dims.append(total)
        offsets.append(off)

    mats = []
    for l in range(p):
        rows = [[Fraction(0)] * dims[l + 1] for _ in range(dims[l])]
        for mu in survivors[l]:
            for nu in survivors[l + 1]:
                if mu < nu:
                    block = _block(sub, mu, nu, p)
                    r0 = offsets[l][mu]
                    c0 = offsets[l + 1][nu]
                    for i, brow in enumerate(block):
                        target = rows[r0 + i]
                        for j, val in enumerate(brow):
                            if val:
                                target[c0 + j] += val
        mats.append(rows)
    return ChainComplexQ(dims=dims, mats=mats)


def omega_oracle(
    sub: SubdivisionMap, tau: int, verify_second_degree: bool = False
) -> BiLaurentPolynomial:
    """Generating function of the degree-u cohomology over all form degrees.

    The coefficient of K^{-p} L^{i-n+p} is h^i of the p-form complex in a
    validated degree u interior to the dual face of tau.  Optionally the whole
    computation is repeated at a second valid degree (when the face admits
    one) and the results are required to agree.
    """
    deg = pick_degree(sub.lattice, tau)
    result = _omega_at_degree(sub, deg)
    if verify_second_degree:
        other = second_degree(sub.lattice, deg)
        if other is not None:
            again = _omega_at_degree(sub, other)
            if again != result:
                raise CrossCheckMismatch(
                    f"degree {deg.u} and {other.u} disagree on face {tau}: "
                    f"{result.to_text()} vs {again.to_text()}"
                )
    return result


def _omega_at_degree(sub: SubdivisionMap, deg: DegreeVector) -> BiLaurentPolynomial:
    n = sub.lattice.rank
    terms = {}
    for p in range(n + 1):
        complex = build_degree_complex(sub, p, deg)
        for i, h in enumerate(cohomology_dims(complex)):
            if h:
                terms[(-2 * p, i - n + p)] = h
    return BiLaurentPolynomial(terms)


def omega_closed_form(d: MultiplicityTable, tau: int) -> BiLaurentPolynomial:
    """Closed form of the generating function from the multiplicity table."""
    lattice = d.lattice
    n = lattice.rank
    d_tau = lattice.dim(tau)
    one = BiLaurentPolynomial.one()
    kl2 = BiLaurentPolynomial.monomial(-2, 2)  # K^{-1} L^2
    inner = BiLaurentPolynomial.zero()
    for f in lattice.faces:
        if not lattice.leq(f.id, tau):
            continue
        for j in range(d_tau + 1):
            count = d.get(j, f.id)
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
