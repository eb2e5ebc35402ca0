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
pairings <b_i, rho> with signs, read off the columns.  The basis itself
stays implicit: only its coordinate columns and its pairings with the rays
are computed, each cone's from those of the facet without its largest ray,
by the one elimination step that the basis would take.

The block V_mu^p -> V_nu^p depends on (mu, nu, p) alone, not on u.  So each
fan builds one *apex* complex per p, in degree u = 0 where every cone with at
most p rays survives.  One walk over the pairs (mu, nu = mu + {rho}) builds
the apexes of every p: each pair's pairings, pivot index and nesting check
are computed once, and its block rows for each p are written straight into
that p's apex rows.  Consecutive differentials anticommute with no extra
sign, which each apex checks rather than trusts: a nonzero composite raises
``CrossCheckMismatch``.  The complex at (tau, u) keeps the cones whose
pushforward lies in tau, a downward-closed set; it is the quotient of the
apex by the upward-closed rest, read off as the apex's rows and columns of
the kept cones, renumbered.  Each layer's cones are grouped by pushforward
face once per fan, so tau's kept cones are the sorted union of the groups of
the faces below tau, found without a scan of the cones.  The kept cones
depend on tau alone, so the quotient is memoized per (tau, p) beside the
apex, and every valid degree of tau reads that one complex.

Every differential is a list of sparse rows, placed block by block at the
blocks' offsets.  Cohomology dimensions are exact: dim ker - dim im, with
ranks from the one sparse elimination of ``linalg``.  Summing them over all
form degrees p at a fixed u gives the generating function of
higher-direct-image dimensions of reflexive differentials.  Its two closed
forms, from the multiplicity table and from the fiber Poincare polynomial
F_tau, are L^-n (1 + K^-1 L)^(n - d_tau) P(K^-1 L^2) for a polynomial P with

    P(q^2) = sum_{mu <= tau} sum_j d_j(mu) (1 - q^2)^(d_tau - j) q^(2j)
    P(q^2) = F_tau(q).

Since L^-n (1 + K^-1 L)^(n - d_tau) = L^-d_tau (K^-1 + L^-1)^(n - d_tau), and
q^-d P(q^2) at q = L K^-1/2, times K^-d/2, is L^-d P(K^-1 L^2), each form is
``derham.stalk_formula`` of the one-variable series q^-d_tau P(q^2) for the
pair (0, tau).  ``omega_closed_form`` writes the first P coefficient by
coefficient from binomials, with no powers of (1 - q^2); the second is the
fiber series of ``decomposition``, expanded there on its own, so the two stay
independent expansions for ``verify``'s three-way comparison.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, lcm

from .cones import DegreeVector, pick_degree, second_degree, validate_degree
from .derham import stalk_formula
from .errors import CrossCheckMismatch, DegreeMismatch, InvariantViolation
from .linalg import SparseRow, canonical, integer_rank, integral_row
from .polynomials import BiLaurentPolynomial, LaurentPolynomial
from .subdivision import ConeSet, MultiplicityTable, SubdivisionMap


@dataclass
class ChainComplexQ:
    """A finite complex of exact rational matrices in positions 0..len(dims)-1.

    ``mats[i]`` is the differential from position i to i+1 in row convention:
    one sparse row per source basis element, ``dims[i]`` rows in all.
    Consecutive products are zero; a nonzero one raises ``CrossCheckMismatch``.
    The check runs in ``int``: each row of d_i and each column of d_{i+1}
    holding a ``Fraction`` is multiplied by the lcm of its denominators, and
    R·d_i·d_{i+1}·S vanishes with d_i·d_{i+1} for invertible diagonal R, S.
    """

    dims: list[int]
    mats: list[list[SparseRow]]

    def __post_init__(self):
        for i in range(len(self.mats) - 1):
            following = _integral_columns(self.mats[i + 1])
            for row in self.mats[i]:
                row, _ = integral_row(row)
                composite: SparseRow = {}
                for k, x in row.items():
                    for j, y in following[k].items():
                        composite[j] = composite.get(j, 0) + x * y
                if any(composite.values()):
                    raise CrossCheckMismatch(
                        f"differentials {i} and {i + 1} do not compose to zero"
                    )

    @classmethod
    def _composing_to_zero(
        cls, dims: list[int], mats: list[list[SparseRow]]
    ) -> ChainComplexQ:
        """A complex whose composites are zero by construction; nothing is checked.

        Its two callers each derive it from a complex that passed the check:
          * the quotient of an apex complex by upward-closed cones, in
            ``build_degree_complex``: every composite entry between two kept
            cones runs through kept cones only, so it is an apex entry;
          * the dual complex, in ``_dual_cohomology_dims``: (d'd)^T = d^T d'^T.
        """
        complex = cls.__new__(cls)
        complex.dims, complex.mats = dims, mats
        return complex


def _integral_columns(rows: list[SparseRow]) -> list[SparseRow]:
    """``rows`` with each column holding a ``Fraction`` times its denominators' lcm."""
    scale: dict[int, int] = {}
    for row in rows:
        for j, y in row.items():
            if type(y) is not int:
                scale[j] = lcm(scale.get(j, 1), y.denominator)
    if not scale:
        return rows
    return [
        {j: y.numerator * (scale.get(j, 1) // y.denominator) for j, y in row.items()}
        for row in rows
    ]


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
    dual = ChainComplexQ._composing_to_zero(complex.dims[::-1], transposed[::-1])
    return cohomology_dims(dual)[::-1]


def _free_columns(sub: SubdivisionMap, cone: ConeSet) -> list[int]:
    """The coordinate columns of the cone's echelon basis of nu_perp.

    The zero cone's basis is the standard one, on every column.  Otherwise
    nu = mu + {rho} for its largest ray index rho, and nu's basis is mu's after
    one elimination step: b_s - (t_s / t_e) b_e for s != e, with t and e from
    ``_pairings``.  A vector of nu_perp is a combination sum_s c_s b_s with
    sum_s c_s t_s = 0; its last nonzero column is mu's column s for the
    largest s with c_s != 0, and that s can be any index but e.  So nu's
    coordinate columns are mu's without column e.  The vectors themselves are
    never formed: the blocks read only these columns and the pairings.
    """
    memo = sub.ishida_memo
    if cone not in memo:
        if cone:
            rho = max(cone)
            mu = cone - {rho}
            e = _pairings(sub, mu, rho)[1]
            cols = _free_columns(sub, mu)
            memo[cone] = cols[:e] + cols[e + 1 :]
        else:
            memo[cone] = list(range(sub.lattice.rank))
    return memo[cone]


def _pairings(sub: SubdivisionMap, mu: ConeSet, rho: int):
    """The pairings t_i = <b_i, rho> on mu's basis, and e, the first i with t_i != 0.

    They follow the basis recursion of ``_free_columns`` in O(m) for m basis
    vectors: with mu' = mu - {max mu}, t' = t(mu', max mu) and e' its first
    nonzero index, t(mu, rho)_s = t(mu', rho)_s - (t'_s / t'_e') t(mu', rho)_e'
    for s != e'.  The zero cone's pairings are rho's coordinates.
    """
    memo = sub.ishida_memo
    key = (mu, rho)
    if key not in memo:
        if mu:
            last = max(mu)
            facet = mu - {last}
            steps, e = _pairings(sub, facet, last)
            r = _pairings(sub, facet, rho)[0]
            pivot, r_e = steps[e], r[e]
            t = []
            for s, (x, y) in enumerate(zip(steps, r)):
                if s != e:
                    if x and r_e:
                        # a unit pivot is its own inverse
                        f = x * pivot if pivot in (1, -1) else Fraction(x) / pivot
                        y = canonical(y - f * r_e)
                    t.append(y)
        else:
            t = list(sub.rays[rho])
        memo[key] = t, next(i for i, x in enumerate(t) if x)
    return memo[key]


@cache
def _block_layout(m: int, k: int, e: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per row of a block from m basis vectors in wedge degree k, its (column, i).

    The row's entry at that column is ``(t + -t)[i]``: t_s at i = s and -t_s
    at i = m + s.  ``_contraction`` explains the signs.
    """
    dst_labels = itertools.combinations(range(m - 1), k - 1)
    dst_index = {lab: i for i, lab in enumerate(dst_labels)}
    layout = []
    for label in itertools.combinations(range(m), k):
        entries = []
        for j, s in enumerate(label):
            if s == e or e not in label:
                rest = tuple(r - (r > e) for r in label if r != s)
                entries.append((dst_index[rest], s + m * ((k - 1 - j) % 2)))
        layout.append(tuple(entries))
    return tuple(layout)


def _contraction(sub: SubdivisionMap, mu: ConeSet, nu: ConeSet) -> tuple[list, int]:
    """The signed pairings of the contraction V_mu -> V_nu, and its pivot index e.

    The contraction is with the ray rho of nu not in mu.  Let t_i = <b_i, rho>
    on mu's basis, e the first index with t_e != 0.  The left-to-right
    elimination makes mu's free column e nu's one new pivot, so
    b_s - (t_s / t_e) b_e has nu-coordinates the unit vector at s - (s > e) and
    is 0 at s = e: in wedge degree k, row S of the block V_mu^p -> V_nu^p has
    (-1)^(k-1-j) t_{s_j} at S - {s_j}, reindexed, which ``_block_layout``
    places.  The list returned is t + -t, the entries the layout indexes.
    That nu's free columns are mu's without column e is checked, not trusted.
    """
    (rho,) = nu - mu
    src_cols = _free_columns(sub, mu)
    dst_cols = _free_columns(sub, nu)
    t, e = _pairings(sub, mu, rho)
    if dst_cols != src_cols[:e] + src_cols[e + 1 :]:
        raise InvariantViolation(
            None, "ishida", f"free columns {dst_cols} do not nest in {src_cols}"
        )
    return t + [-x for x in t], e


def _layers(sub: SubdivisionMap):
    """The fan's cones by ray count, sorted, and each layer's positions by face.

    ``groups[l][f]`` lists, in increasing order, the positions in layer l of
    the cones whose pushforward is the face f.  Built once per fan.
    """
    memo = sub.ishida_memo
    if "layers" not in memo:
        by_dim = sub.cones_by_dim()
        layers = [by_dim.get(l, []) for l in range(sub.lattice.rank + 1)]
        groups: list[dict[int, list[int]]] = []
        for layer in layers:
            group: dict[int, list[int]] = {}
            for c, cone in enumerate(layer):
                group.setdefault(sub.pushforward[cone], []).append(c)
            groups.append(group)
        memo["layers"] = layers, groups
    return memo["layers"]


def _apex(sub: SubdivisionMap, p: int):
    """The p-form complex in degree 0 and its cones by position; one walk per fan.

    Position l holds every l-ray cone, sorted, each with a summand of
    dimension comb(n - l, p - l).  Each cone nu receives one block from each
    of its facets mu = nu - {rho}.  One walk over these pairs builds the
    complexes of every p at once: a pair's ``_contraction`` is computed
    once, and its block for each p >= |nu| is written into that p's rows
    through ``_block_layout(n - |mu|, p - |mu|, e)``.  ``ChainComplexQ``
    checks the composites of each p's complex.
    """
    memo = sub.ishida_memo
    if p not in memo:
        n = sub.lattice.rank
        layers, _ = _layers(sub)
        position = [{cone: c for c, cone in enumerate(layer)} for layer in layers[:-1]]
        dims = [
            [len(layers[l]) * comb(n - l, q - l) for l in range(q + 1)] for q in range(n + 1)
        ]
        # mats[q][l]: the rows of the q-form apex differential from position l
        mats = [[[{} for _ in range(dims[q][l])] for l in range(q)] for q in range(n + 1)]
        for l in range(n):
            m = n - l
            # per wedge degree k: the apex rows of p = l + k, and the block shape
            shapes = [
                (k, mats[l + k][l], comb(m, k), comb(m - 1, k - 1)) for k in range(1, m + 1)
            ]
            for c_nu, nu in enumerate(layers[l + 1]):
                for rho in nu:
                    mu = nu - {rho}
                    c_mu = position[l][mu]
                    signed, e = _contraction(sub, mu, nu)
                    for k, rows, height, width in shapes:
                        c0 = c_nu * width
                        for r, entries in enumerate(_block_layout(m, k, e), c_mu * height):
                            target = rows[r]
                            for col, i in entries:
                                x = signed[i]
                                if x:
                                    target[c0 + col] = x
        complexes = [ChainComplexQ(dims=dims[q], mats=mats[q]) for q in range(n + 1)]
        for q, complex in enumerate(complexes):
            memo[q] = layers[: q + 1], complex
    return memo[p]


def _kept_rows(sub: SubdivisionMap, p: int, face: int) -> list[list[int]]:
    """Per position of the p-form apex, the rows of the cones lying over ``face``.

    A cone lies over a face below ``face`` exactly when its pushforward is in
    ``down[face]``, so its position is in one of those faces' groups; the
    groups are disjoint, and their union, sorted, keeps the apex order.
    """
    n = sub.lattice.rank
    below = sub.lattice.down[face]
    _, groups = _layers(sub)
    kept = []
    for l in range(p + 1):
        size = comb(n - l, p - l)
        group = groups[l]
        positions = sorted(c for f in below if f in group for c in group[f])
        kept.append([c * size + i for c in positions for i in range(size)])
    return kept


def build_degree_complex(
    sub: SubdivisionMap, p: int, degree: DegreeVector
) -> ChainComplexQ:
    """The pushforward Ishida complex for p-forms in lattice degree u.

    A cone's summand survives in degree u exactly when u pairs to zero with
    every ray of the cone.  ``validate_degree`` has shown that u vanishes on
    sigma exactly on tau's rays, so these are the cones whose pushforward
    lies in tau; its verdict is memoized per (face, u), so each degree is
    paired with the rays once for all p.  Position 0 holds the wedge^p of
    the whole dual space (the zero cone); position l collects the surviving
    l-ray cones.  The blocks do not depend on u, so this is the apex complex
    with only the rows and columns of the surviving cones (``_kept_rows``),
    renumbered in order.  Which cones survive depends on the face alone, so
    the quotient is memoized per (face, p) beside the apex, and every valid
    degree of a face reads the same complex.
    """
    lattice = sub.lattice
    n = lattice.rank
    if not (0 <= p <= n):
        raise ValueError(f"form degree {p} out of range 0..{n}")
    memo = sub.ishida_memo
    face = degree.face
    checked = (face, tuple(degree.u))
    if 0 <= face <= lattice.top_id and checked not in memo:
        memo[checked] = validate_degree(lattice, face, degree.u)
    if not memo.get(checked):
        raise DegreeMismatch(f"degree {degree.u} is not valid for face {face}")

    _, apex = _apex(sub, p)
    if face == lattice.top_id:
        return apex
    key = (face, p)
    if key in memo:
        return memo[key]
    kept = _kept_rows(sub, p, face)
    mats = []
    for l, rows in enumerate(apex.mats):
        # each apex column's kept position, or -1
        index = [-1] * apex.dims[l + 1]
        for new, j in enumerate(kept[l + 1]):
            index[j] = new
        mats.append(
            [{index[j]: x for j, x in rows[r].items() if index[j] >= 0} for r in kept[l]]
        )
    memo[key] = ChainComplexQ._composing_to_zero([len(k) for k in kept], mats)
    return memo[key]


def _first_degree(sub: SubdivisionMap, tau: int) -> DegreeVector:
    """``pick_degree(sub.lattice, tau)``, picked once per fan and face."""
    memo = sub.ishida_memo
    key = ("degree", tau)
    if key not in memo:
        memo[key] = pick_degree(sub.lattice, tau)
    return memo[key]


def omega_oracle(sub: SubdivisionMap, tau: int) -> BiLaurentPolynomial:
    """Generating function of the degree-u cohomology over all form degrees.

    The coefficient of K^{-p} L^{i-n+p} is h^i of the p-form complex in the
    validated degree u = ``pick_degree(sub.lattice, tau)``, interior to the
    dual face of tau.
    """
    return _omega_at_degree(sub, _first_degree(sub, tau))


def check_second_degree(sub: SubdivisionMap, tau: int, omega: BiLaurentPolynomial) -> None:
    """Recompute ``omega_oracle(sub, tau)`` at a second valid degree, if any.

    Only the second degree is computed, and its cohomology is read off the
    dual complexes; ``omega`` is the first-degree result.  Disagreement raises
    ``CrossCheckMismatch``.  Sigma itself has only the degree 0, so there is
    nothing to compare.
    """
    deg = _first_degree(sub, tau)
    other = second_degree(sub.lattice, deg)
    if other is None:
        return
    again = _omega_at_degree(sub, other, dual=True)
    if again != omega:
        raise CrossCheckMismatch(
            f"degree {deg.u} and {other.u} disagree on face {tau}: "
            f"{omega.to_text()} vs {again.to_text()}"
        )


def _omega_at_degree(
    sub: SubdivisionMap, deg: DegreeVector, dual: bool = False
) -> BiLaurentPolynomial:
    # the cohomology function is looked up at each call, not bound once, so
    # a wrapper on the module attribute sees every call
    cohomology = _dual_cohomology_dims if dual else cohomology_dims
    n = sub.lattice.rank
    terms = {}
    for p in range(n + 1):
        complex = build_degree_complex(sub, p, deg)
        for i, h in enumerate(cohomology(complex)):
            if h:
                terms[(-p, i - n + p)] = h
    return BiLaurentPolynomial(terms)


def omega_closed_form(d: MultiplicityTable, tau: int) -> BiLaurentPolynomial:
    """Closed form of the generating function from the multiplicity table.

    With c_j the count of j-dimensional subdivision cones over all faces
    below tau, the coefficient of q^(2i) in P is
    sum_{j <= i} c_j (-1)^(i - j) C(d_tau - j, i - j).
    """
    lattice = d.lattice
    d_tau = lattice.face(tau).dim
    # by linearity, one count per j for all the faces below tau
    counts = [sum(d.get(j, f) for f in lattice.down[tau]) for j in range(d_tau + 1)]
    series = LaurentPolynomial(
        {
            2 * i - d_tau: sum(
                (-1) ** (i - j) * comb(d_tau - j, i - j) * c
                for j, c in enumerate(counts[: i + 1])
            )
            for i in range(d_tau + 1)
        }
    )
    return stalk_formula(series, 0, d_tau, lattice.rank)


def omega_from_fiber_poincare(
    fiber: LaurentPolynomial, n: int, d_tau: int
) -> BiLaurentPolynomial:
    """L^{-n} (1 + K^{-1}L)^{n-d_tau} with q -> L K^{-1/2} in the fiber series."""
    return stalk_formula(fiber.shift(-d_tau), 0, d_tau, n)
