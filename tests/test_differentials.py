import itertools
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

from icstalks import differentials
from icstalks.cones import dot, face_lattice, pick_degree, second_degree
from icstalks.corpus import CORPUS, CUBE, OCTAHEDRON, corpus_by_name, orthant, polygon_cone
from icstalks.differentials import (
    ChainComplexQ,
    build_degree_complex,
    check_second_degree,
    cohomology_dims,
    omega_closed_form,
    omega_from_fiber_poincare,
    omega_oracle,
)
from icstalks.decomposition import fiber_poincare, solve_decomposition
from icstalks.errors import (
    CrossCheckMismatch,
    DegreeMismatch,
    InvariantViolation,
    NotComparable,
)
from icstalks.derham import stalk_formula
from icstalks.linalg import canonical, integer_rank, sparse_row
from icstalks.polynomials import BiLaurentPolynomial, LaurentPolynomial
from icstalks.subdivision import (
    barycentric_subdivision,
    interior_ray_subdivision,
    multiplicity_table,
)
from polys import K_INV, L_VAR, bipoly_from_triples, monomial, poly_from_pairs
from test_golden import CONES, CROSS5, CUBE5, FANS, _lattice, _pipeline
from test_linalg import dense_gauss_rank, nullspace

SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
ORTHANT3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
SIMPLEX5 = [(0, 0, 0, 0, 1)] + [
    tuple(1 if i == j else 0 for j in range(4)) + (1,) for i in range(4)
]
CORPUS_AND_SIMPLEX5 = [(spec.name, list(spec.rays), spec.rank) for spec in CORPUS] + [
    ("simplex5", SIMPLEX5, 5)
]
CORPUS_AND_RANK5 = CORPUS_AND_SIMPLEX5 + [("cube5", CUBE5, 5), ("cross5", CROSS5, 5)]


def square_setup():
    lat = face_lattice(SQUARE)
    sub = barycentric_subdivision(lat)
    return lat, sub


def test_p0_complex_is_scalar():
    lat, sub = square_setup()
    deg = pick_degree(lat, lat.top_id)
    cx = build_degree_complex(sub, 0, deg)
    assert cx.dims == [1]
    assert cohomology_dims(cx) == [1]


def test_term_dims_p1_degree_zero():
    lat, sub = square_setup()
    deg = pick_degree(lat, lat.top_id)
    cx = build_degree_complex(sub, 1, deg)
    assert cx.dims == [3, 9]
    assert cohomology_dims(cx) == [0, 6]


def test_term_dims_p1_two_face_degree():
    lat, sub = square_setup()
    two_face = lat.faces_of_dim(2)[0]
    deg = pick_degree(lat, two_face)
    cx = build_degree_complex(sub, 1, deg)
    assert cx.dims == [3, 3]


def test_zero_differential_cohomology():
    cx = ChainComplexQ(dims=[3, 9], mats=[[{} for _ in range(3)]])
    assert cohomology_dims(cx) == [3, 9]


def _composites_vanish(mats):
    """The d o d check by definition, summing Fraction products."""
    for a, b in zip(mats, mats[1:]):
        for row in a:
            composite = {}
            for k, x in row.items():
                for j, y in b[k].items():
                    composite[j] = composite.get(j, 0) + Fraction(x) * y
            if any(composite.values()):
                return False
    return True


def _random_scalar(rng):
    """A nonzero rational, integral about a third of the time."""
    return canonical(Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3)))


def _random_entry(rng):
    return rng.choice((0, _random_scalar(rng)))


def test_composite_check_in_int_matches_fraction_composites():
    # d0 has rows along v, d1 has columns orthogonal to v, d2 has columns in
    # the kernel of d1, each scaled; then one entry may be perturbed
    rng = random.Random(7)
    verdicts = set()
    for _ in range(80):
        b, c = rng.randint(2, 5), rng.randint(2, 5)
        v = [_random_entry(rng) for _ in range(b - 1)]
        v.append(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
        scales = [_random_scalar(rng) for _ in range(rng.randint(1, 4))]
        d0 = [sparse_row([canonical(s * x) for x in v]) for s in scales]
        columns = []
        for _ in range(c):
            w = [_random_entry(rng) for _ in range(b - 1)]
            columns.append(w + [canonical(-sum(x * y for x, y in zip(v, w)) / v[-1])])
        d1 = [sparse_row([col[k] for col in columns]) for k in range(b)]
        kernel, _ = nullspace(d1, c)
        scales = [_random_scalar(rng) for _ in kernel]
        kernel = [[canonical(s * x) for x in vec] for s, vec in zip(scales, kernel)] or [[0] * c]
        d2 = [sparse_row([vec[k] for vec in kernel]) for k in range(c)]
        mats, widths = [d0, d1, d2], [b, c, len(kernel)]
        if rng.random() < 0.6:
            i = rng.randrange(3)
            rng.choice(mats[i])[rng.randrange(widths[i])] = Fraction(1, rng.randint(1, 5))
        dims = [len(d0)] + widths
        expected = _composites_vanish(mats)
        if expected:
            ChainComplexQ(dims=dims, mats=mats)
        else:
            with pytest.raises(CrossCheckMismatch):
                ChainComplexQ(dims=dims, mats=mats)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_degree_mismatch():
    # (-1, 0, 0) pairs to -1 with the rays (1, 0, 1) and (1, 1, 1)
    lat, sub = square_setup()
    with pytest.raises(DegreeMismatch):
        build_degree_complex(sub, 1, (-1, 0, 0))


@pytest.mark.parametrize("fid", [-1, 10])
def test_face_id_outside_lattice(fid):
    lat, _ = square_setup()
    with pytest.raises(NotComparable):
        pick_degree(lat, fid)


@pytest.mark.parametrize("where", ["below", "above"])
def test_closed_form_and_fiber_reject_face_ids_outside_lattice(where):
    lat = orthant(2).lattice()
    d = multiplicity_table(barycentric_subdivision(lat))
    fid = -1 if where == "below" else lat.top_id + 1
    with pytest.raises(NotComparable):
        omega_closed_form(d, fid)
    with pytest.raises(NotComparable):
        fiber_poincare(d, fid)


def _is_canonical(x):
    """An int, or a Fraction that is not integral: never a float or n/1."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.name)
def test_exact_scalars_are_canonical_on_both_fans(spec):
    lat = spec.lattice()
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        d = multiplicity_table(sub)
        dec = solve_decomposition(lat, d)
        polys = [*dec.Htilde.values(), *dec.D.values()]
        for f in lat.faces:
            polys += [omega_oracle(sub, f.id), omega_closed_form(d, f.id)]
        values = [c for poly in polys for _, c in poly.items()]
        walk = _walk(sub)
        for nu in sub.cones:
            for rho in nu:
                values += differentials._pairings(walk, sub.rays, nu - {rho}, rho)[0]
        # every face's complex is read off the apex complexes, one per p
        apexes, _ = sub.ishida_memo["apex"]
        assert len(apexes) == lat.rank + 1
        for apex in apexes:
            values += [x for m in apex.mats for row in m for x in row.values()]
        bad = [x for x in values if not _is_canonical(x)]
        assert not bad, f"{spec.name}: {bad[:5]}"


def _leibniz(m):
    total = Fraction(0)
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _walk(sub):
    """A fresh echelon dict as the apex walk starts it: the zero cone's columns."""
    return {frozenset(): list(range(sub.lattice.rank))}


def _perp_nullspace(sub, cone):
    """The echelon basis of cone_perp and its free columns, from ``nullspace``."""
    rows = [sparse_row(sub.rays[i]) for i in sorted(cone)]
    return nullspace(rows, sub.lattice.rank)


def _minor_reference_block(sub, mu, nu, p):
    # the splitting construction: omega = alpha + beta ^ e with <e, rho> = 1
    # maps to beta; each beta_s = b_s - <b_s, rho> e is checked densely to lie
    # in nu's span, and the wedge coordinates are (k-1)-minors
    (rho,) = nu - mu
    ray = sub.rays[rho]
    n = sub.lattice.rank
    src_basis, _ = _perp_nullspace(sub, mu)
    dst_basis, dst_cols = _perp_nullspace(sub, nu)
    pairing = [sum(Fraction(x) * y for x, y in zip(b, ray)) for b in src_basis]
    e_idx = next(i for i, t in enumerate(pairing) if t)
    e = [x / pairing[e_idx] for x in src_basis[e_idx]]
    beta = []
    for b, t in zip(src_basis, pairing):
        bv = [b[j] - t * e[j] for j in range(n)]
        coords = [bv[c] for c in dst_cols]
        for j in range(n):
            assert sum(c * d[j] for c, d in zip(coords, dst_basis)) == bv[j]
        beta.append(coords)
    k = p - len(mu)
    dst_labels = itertools.combinations(range(len(dst_basis)), k - 1)
    dst_index = {lab: i for i, lab in enumerate(dst_labels)}
    rows = []
    for label in itertools.combinations(range(len(src_basis)), k):
        row = {}
        for j, s_j in enumerate(label):
            rest = [beta[s] for s in label if s != s_j]
            for cols, col in dst_index.items():
                minor = _leibniz([[v[c] for c in cols] for v in rest])
                sign = (-1) ** (k - 1 - j)
                row[col] = row.get(col, 0) + sign * pairing[s_j] * minor
        rows.append({col: x for col, x in row.items() if x})
    return rows


def _apex_blocks(sub, p):
    """Each nonzero (mu, nu) block of the p-form apex, nu's columns renumbered."""
    n = sub.lattice.rank
    by_dim = sub.cones_by_dim()
    layers = [by_dim.get(l, []) for l in range(p + 1)]
    apex = differentials._apex(sub)[0][p]
    blocks = {}
    for l in range(p):
        src, dst = comb(n - l, p - l), comb(n - l - 1, p - l - 1)
        position = {nu: b for b, nu in enumerate(layers[l + 1])}
        for a, mu in enumerate(layers[l]):
            rows = apex.mats[l][a * src : (a + 1) * src]
            for nu in {mu | {rho} for rho in range(len(sub.rays))} & position.keys():
                c0 = position[nu] * dst
                block = [{j - c0: x for j, x in row.items() if c0 <= j < c0 + dst} for row in rows]
                if any(block):
                    blocks[mu, nu] = block
    return blocks


@pytest.mark.parametrize(
    "rays",
    [SQUARE, CUBE.rays, OCTAHEDRON.rays, polygon_cone(5).rays],
    ids=["square", "cube", "octahedron", "polygon-5"],
)
def test_block_matches_minor_reference(rays):
    # every block that the one apex walk writes, read back off each p's apex;
    # the apex holds these blocks and no others
    lat = face_lattice(rays)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        for p in range(lat.rank + 1):
            expected = {
                (nu - {rho}, nu): _minor_reference_block(sub, nu - {rho}, nu, p)
                for nu in sub.cones
                if len(nu) <= p
                for rho in nu
            }
            assert _apex_blocks(sub, p) == expected


def _pairwise_reference_complex(sub, p, tau, block):
    # every pair of surviving cones, each block placed at the pair's offsets
    lat = sub.lattice
    n = lat.rank
    survivors = [
        sorted(
            (c for c in sub.cones if len(c) == l and lat.leq(sub.pushforward[c], tau)),
            key=sorted,
        )
        for l in range(p + 1)
    ]
    sizes = [comb(n - l, p - l) for l in range(p + 1)]
    dims = [len(cones) * size for cones, size in zip(survivors, sizes)]
    mats = []
    for l in range(p):
        rows = [{} for _ in range(dims[l])]
        for a, mu in enumerate(survivors[l]):
            for b, nu in enumerate(survivors[l + 1]):
                if mu < nu:
                    for i, block_row in enumerate(block(mu, nu, p)):
                        for j, x in block_row.items():
                            rows[a * sizes[l] + i][b * sizes[l + 1] + j] = x
        mats.append(rows)
    return dims, mats


@pytest.mark.parametrize(
    "rays",
    [SQUARE, CUBE.rays, OCTAHEDRON.rays, polygon_cone(5).rays],
    ids=["square", "cube", "octahedron", "polygon-5"],
)
def test_degree_complex_matches_pairwise_reference(rays):
    lat = face_lattice(rays)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        blocks = {}

        def block(mu, nu, p):
            if (mu, nu, p) not in blocks:
                blocks[mu, nu, p] = _minor_reference_block(sub, mu, nu, p)
            return blocks[mu, nu, p]

        for f in lat.faces:
            deg = pick_degree(lat, f.id)
            for p in range(lat.rank + 1):
                cx = build_degree_complex(sub, p, deg)
                dims, mats = _pairwise_reference_complex(sub, p, f.id, block)
                assert cx.dims == dims
                assert cx.mats == mats


def _scanned_rows(sub, p, face):
    """The kept apex rows by a scan of every cone of every layer, as a reference."""
    n = sub.lattice.rank
    below = sub.lattice.down[face]
    by_dim = sub.cones_by_dim()
    kept = []
    for l in range(p + 1):
        size = comb(n - l, p - l)
        kept.append(
            [
                c * size + i
                for c, cone in enumerate(by_dim.get(l, []))
                if sub.pushforward[cone] in below
                for i in range(size)
            ]
        )
    return kept


@pytest.mark.parametrize(
    "name, rays, rank", CORPUS_AND_SIMPLEX5, ids=[c[0] for c in CORPUS_AND_SIMPLEX5]
)
def test_kept_rows_from_the_face_index_match_the_scan(name, rays, rank):
    lat = face_lattice(rays, rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        for f in lat.faces:
            for p in range(lat.rank + 1):
                assert differentials._kept_rows(sub, p, f.id) == _scanned_rows(sub, p, f.id)


def test_one_oracle_ranks_every_first_degree_complex_through_the_module(monkeypatch):
    # the first degree's cohomology is looked up when called, so a wrapper on
    # the module attribute sees each of the n + 1 form degrees
    calls = []
    real = differentials.cohomology_dims

    def counting(complex):
        calls.append(complex.dims)
        return real(complex)

    monkeypatch.setattr(differentials, "cohomology_dims", counting)
    lat, sub = square_setup()
    two_face = lat.faces_of_dim(2)[0]
    omega_oracle(sub, two_face)
    assert len(calls) == lat.rank + 1


def test_each_degree_is_picked_and_validated_once_per_fan(monkeypatch):
    picks, validations = [], []
    real_pick, real_face = differentials.pick_degree, differentials.degree_face

    def pick(lattice, fid):
        picks.append(fid)
        return real_pick(lattice, fid)

    def face_of(lattice, u):
        validations.append(u)
        return real_face(lattice, u)

    monkeypatch.setattr(differentials, "pick_degree", pick)
    monkeypatch.setattr(differentials, "degree_face", face_of)
    lat, sub = square_setup()
    faces = [f.id for f in lat.faces if second_degree(lat, real_pick(lat, f.id)) is not None]
    for tau in faces:
        check_second_degree(sub, tau, omega_oracle(sub, tau))
        omega_oracle(sub, tau)
    assert picks == faces
    # a first and a second degree per face, each paired with the rays once
    assert len(validations) == len(set(validations)) == 2 * len(faces)


@pytest.mark.parametrize(
    "name, rays, rank", CORPUS_AND_SIMPLEX5, ids=[c[0] for c in CORPUS_AND_SIMPLEX5]
)
def test_perp_basis_matches_nullspace(name, rays, rank):
    # the free columns of the implicit basis, one elimination step from the
    # facet's, are those of a fresh nullspace
    lat = face_lattice(rays, rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        walk = _walk(sub)
        for cone in sub.cones:
            expected = _perp_nullspace(sub, cone)[1]
            assert differentials._free_columns(walk, sub.rays, cone) == expected


@pytest.mark.parametrize(
    "name, rays, rank", CORPUS_AND_SIMPLEX5, ids=[c[0] for c in CORPUS_AND_SIMPLEX5]
)
def test_pairings_recursion_matches_the_dense_dot(name, rays, rank):
    # every (mu, rho) the apex uses: each cone nu = mu + {rho} of the fan
    lat = face_lattice(rays, rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        walk = _walk(sub)
        for nu in sub.cones:
            for rho in nu:
                mu = nu - {rho}
                t, e = differentials._pairings(walk, sub.rays, mu, rho)
                basis = _perp_nullspace(sub, mu)[0]
                dense = [canonical(dot(b, sub.rays[rho])) for b in basis]
                assert t == dense
                assert [type(x) for x in t] == [type(x) for x in dense]
                assert e == next(i for i, x in enumerate(dense) if x)


def test_block_rejects_free_columns_that_do_not_nest(monkeypatch):
    lat, sub = square_setup()
    mu, nu = frozenset(), frozenset({0})
    real = differentials._free_columns

    def reversed_for_nu(walk, rays, cone):
        cols = real(walk, rays, cone)
        return cols[::-1] if cone == nu else cols

    monkeypatch.setattr(differentials, "_free_columns", reversed_for_nu)
    with pytest.raises(InvariantViolation):
        differentials._contraction(_walk(sub), sub.rays, mu, nu)
    with pytest.raises(InvariantViolation):
        differentials._apex(sub)


def test_degree_zero_exactness_square():
    lat, sub = square_setup()
    deg = pick_degree(lat, lat.top_id)
    for p in range(1, 4):
        h = cohomology_dims(build_degree_complex(sub, p, deg))
        assert all(x == 0 for i, x in enumerate(h) if i != p)


def test_omega_zero_face_is_binomial_power():
    lat, sub = square_setup()
    om = omega_oracle(sub, lat.zero_id)
    expected = monomial(0, -3) * (BiLaurentPolynomial.one() + monomial(-1, 1)) ** 3
    assert om == expected


def test_omega_sigma_square_cone():
    lat, sub = square_setup()
    om = omega_oracle(sub, lat.top_id)
    assert om == bipoly_from_triples([(-2, 1, 1), (-1, -1, 6), (0, -3, 1)])


def test_omega_sigma_simplicial_3cone():
    lat = face_lattice(ORTHANT3)
    sub = barycentric_subdivision(lat)
    om = omega_oracle(sub, lat.top_id)
    # fiber series (q^2-1)^2 + 6(q^2-1) + 6 under q -> L K^{-1/2}, times L^{-3}
    fiber = poly_from_pairs([(4, 1), (2, 4), (0, 1)])
    assert om == omega_from_fiber_poincare(fiber, 3, 3)


def test_three_way_agreement_all_faces():
    lat, sub = square_setup()
    d = multiplicity_table(sub)
    for f in lat.faces:
        oracle = omega_oracle(sub, f.id)
        check_second_degree(sub, f.id, oracle)
        closed = omega_closed_form(d, f.id)
        fiber = omega_from_fiber_poincare(fiber_poincare(d, f.id), lat.rank, f.dim)
        assert oracle == closed == fiber
        assert oracle.is_integer() and oracle.is_nonnegative()


SECOND_DEGREE_CONES = ["polygon-4", "cube", "octahedron", "polygon-5"]


@pytest.mark.parametrize("name", SECOND_DEGREE_CONES)
def test_second_degree_reads_the_first_degree_complex(name):
    # the kept cones depend on the face alone, so both degrees share one
    # memoized quotient; its exact ranks match a dense Fraction elimination
    lat = corpus_by_name(name).lattice()
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        for f in lat.faces:
            if f.id == lat.top_id:
                continue
            deg = pick_degree(lat, f.id)
            other = second_degree(lat, deg)
            assert other is not None and other != deg
            for p in range(lat.rank + 1):
                complex = build_degree_complex(sub, p, deg)
                assert build_degree_complex(sub, p, other) is complex
                for i, m in enumerate(complex.mats):
                    dense = [[row.get(j, 0) for j in range(complex.dims[i + 1])] for row in m]
                    assert integer_rank(m) == dense_gauss_rank(dense)


@pytest.mark.parametrize("name", ["cube", "polygon-5"])
def test_the_memo_holds_four_named_entries_and_no_echelon_state(name):
    # the echelon columns and pairings live in the apex walk alone: no key
    # of the fan's memo, or of its entries, is a cone or a (cone, ray) pair
    lat = corpus_by_name(name).lattice()
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        for f in lat.faces:
            check_second_degree(sub, f.id, omega_oracle(sub, f.id))
        memo = sub.ishida_memo
        assert sorted(memo) == ["apex", "degree_faces", "first_degrees", "quotients"]
        keys = [k for entry in memo.values() if isinstance(entry, dict) for k in entry]
        assert keys and not [
            k
            for k in keys
            if isinstance(k, frozenset) or isinstance(k, tuple) and isinstance(k[0], frozenset)
        ]


def test_invalid_degree_raises_after_the_face_complex_is_memoized():
    lat, sub = square_setup()
    face = lat.faces_of_dim(2)[0]
    deg = pick_degree(lat, face)
    assert build_degree_complex(sub, 1, deg) is build_degree_complex(sub, 1, deg)
    with pytest.raises(DegreeMismatch):
        build_degree_complex(sub, 1, tuple(-x for x in deg))


def test_second_degree_check_rejects_wrong_omega():
    lat, sub = square_setup()
    tau = next(
        f.id for f in lat.faces if second_degree(lat, pick_degree(lat, f.id)) is not None
    )
    with pytest.raises(CrossCheckMismatch):
        check_second_degree(sub, tau, omega_oracle(sub, tau) + 1)


def test_second_degree_check_reads_the_dual_complex(monkeypatch):
    # a rank that undercounts on matrices with more rows than columns in use
    # gives a wrong Omega at both degrees; only the dual complex, whose
    # matrices are the transposes, exposes it
    real = differentials.integer_rank

    def undercount(rows):
        return real(rows) - (len(rows) > len(set().union(*rows)))

    monkeypatch.setattr(differentials, "integer_rank", undercount)
    lat, sub = square_setup()
    two_face = lat.faces_of_dim(2)[0]
    omega = omega_oracle(sub, two_face)
    with pytest.raises(CrossCheckMismatch):
        check_second_degree(sub, two_face, omega)


def _flip_first_block(real):
    """``_contraction`` with the sign of the block from the zero cone to ray 0 flipped."""

    def flipped(walk, rays, mu, nu):
        signed, e = real(walk, rays, mu, nu)
        if nu == {0}:
            signed = [-x for x in signed]
        return signed, e

    return flipped


def test_flipped_block_sign_raises_off_the_apex(monkeypatch):
    # the quotient at a face is not checked again, but the apex it is read
    # off is, whatever face asks first
    monkeypatch.setattr(
        differentials, "_contraction", _flip_first_block(differentials._contraction)
    )
    lat, sub = square_setup()
    face = next(f.id for f in lat.faces if f.dim == 2 and 0 in f.rays)
    assert face != lat.top_id
    with pytest.raises(CrossCheckMismatch):
        omega_oracle(sub, face)


def test_nonzero_composite_raises_under_optimize(child_env):
    # the check is a raise, not an assert, so ``python -O`` keeps it, also
    # for a complex read off the apex at a face below sigma
    code = (
        "from icstalks import differentials\n"
        "from icstalks.cones import face_lattice\n"
        "from icstalks.differentials import ChainComplexQ, omega_oracle\n"
        "from icstalks.errors import CrossCheckMismatch\n"
        "from icstalks.subdivision import barycentric_subdivision\n"
        "print(__debug__)\n"
        "try:\n"
        "    ChainComplexQ(dims=[1, 1, 1], mats=[[{0: 1}], [{0: 1}]])\n"
        "except CrossCheckMismatch:\n"
        "    print('raised')\n"
        "real = differentials._contraction\n"
        "def flipped(walk, rays, mu, nu):\n"
        "    signed, e = real(walk, rays, mu, nu)\n"
        "    return ([-x for x in signed] if nu == {0} else signed), e\n"
        "differentials._contraction = flipped\n"
        f"lat = face_lattice({SQUARE})\n"
        "face = next(f.id for f in lat.faces if f.dim == 2 and 0 in f.rays)\n"
        "try:\n"
        "    omega_oracle(barycentric_subdivision(lat), face)\n"
        "except CrossCheckMismatch:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.stdout.split() == ["False", "raised", "raised"], proc.stderr


def test_closed_form_tau_zero():
    lat, sub = square_setup()
    d = multiplicity_table(sub)
    expected = monomial(0, -3) * (BiLaurentPolynomial.one() + monomial(-1, 1)) ** 3
    assert omega_closed_form(d, lat.zero_id) == expected


def _per_face_closed_form(d, tau):
    """The closed form with one product per (face below tau, j), as a reference."""
    lattice = d.lattice
    n, d_tau = lattice.rank, lattice.faces[tau].dim
    one = BiLaurentPolynomial.one()
    kl2 = monomial(-1, 2)
    inner = BiLaurentPolynomial({})
    for f in lattice.faces:
        if f.rays <= lattice.faces[tau].rays:
            for j in range(d_tau + 1):
                inner = inner + d.get(j, f.id) * (one - kl2) ** (d_tau - j) * kl2**j
    return monomial(0, -n) * (one + K_INV * L_VAR) ** (n - d_tau) * inner


@pytest.mark.parametrize(
    "name, rays, rank", CORPUS_AND_RANK5, ids=[c[0] for c in CORPUS_AND_RANK5]
)
def test_closed_form_matches_the_per_face_sum(name, rays, rank):
    lat = face_lattice(rays, rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        d = multiplicity_table(sub)
        for f in lat.faces:
            expected = _per_face_closed_form(d, f.id)
            got = omega_closed_form(d, f.id)
            assert got == expected
            assert got.to_json_obj() == expected.to_json_obj()


def _reference_closed_form(d, tau):
    """The closed form with one power product per j, as a reference."""
    lattice = d.lattice
    d_tau = lattice.face(tau).dim
    one, q2 = LaurentPolynomial.one(), LaurentPolynomial.term(2)
    inner = LaurentPolynomial({})
    for j in range(d_tau + 1):
        count = sum(d.get(j, f) for f in lattice.down[tau])
        if count:
            inner = inner + count * (one - q2) ** (d_tau - j) * q2**j
    return stalk_formula(inner.shift(-d_tau), 0, d_tau, lattice.rank)


@pytest.mark.parametrize("name", CONES)
def test_closed_form_matches_the_power_expansion(name):
    lat = _lattice(name)
    for fan in FANS:
        d, _ = _pipeline(name, fan)
        for f in lat.faces:
            expected = _reference_closed_form(d, f.id)
            got = omega_closed_form(d, f.id)
            assert got == expected
            assert got.to_json_obj() == expected.to_json_obj()
