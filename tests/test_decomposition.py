import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from icstalks import decomposition
from icstalks.cones import face_lattice
from icstalks.corpus import CORPUS, polygon_cone
from icstalks.decomposition import (
    DecompositionResult,
    _fiber_series,
    _split,
    _validate,
    fiber_poincare,
    lowest_degree_normalized,
    solve_decomposition,
)
from icstalks.errors import InvariantViolation, NegativeCoefficient, NotFullDimensional
from icstalks.polynomials import LaurentPolynomial
from icstalks.subdivision import (
    MultiplicityTable,
    barycentric_subdivision,
    interior_ray_subdivision,
    multiplicity_table,
)
from polys import poly_from_pairs
from test_cones import _cones
from test_derham import _extreme_rays
from test_golden import CONES, FANS, _lattice, _pipeline

L = LaurentPolynomial
SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
CUBE = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
OCTA = [
    (1, 0, 0, 1),
    (-1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, -1, 0, 1),
    (0, 0, 1, 1),
    (0, 0, -1, 1),
]
SIMPLEX5 = [(0, 0, 0, 0, 1)] + [tuple(int(i == j) for j in range(4)) + (1,) for i in range(4)]
CUBE5 = [v + (1,) for v in itertools.product((0, 1), repeat=4)]
CROSS5 = [tuple(s * (i == j) for j in range(4)) + (1,) for i in range(4) for s in (1, -1)]
FIBER_CONES = [(spec.name, list(spec.rays), spec.rank) for spec in CORPUS] + [
    ("simplex5", SIMPLEX5, 5),
    ("cube5", CUBE5, 5),
    ("cross5", CROSS5, 5),
]


def test_fiber_poincare_stellar_3dim():
    for m in (3, 4, 5):
        verts = {3: [(0, 0), (1, 0), (0, 1)], 4: [(0, 0), (1, 0), (0, 1), (1, 1)]}.get(
            m, [(k, k * k) for k in range(m)]
        )
        lat = face_lattice([(x, y, 1) for x, y in verts])
        sub = interior_ray_subdivision(lat)
        fib = fiber_poincare(multiplicity_table(sub), lat.top_id)
        q2m1 = poly_from_pairs([(2, 1), (0, -1)])
        assert fib == q2m1**2 + m * q2m1 + m


def test_fiber_poincare_barycentric_square():
    lat = face_lattice(SQUARE)
    fib = fiber_poincare(multiplicity_table(barycentric_subdivision(lat)), lat.top_id)
    assert fib == poly_from_pairs([(4, 1), (2, 6), (0, 1)])


def _fiber_series_by_products(counts):
    """The fiber series as the sum of the products count * (q^2 - 1)^(n - l)."""
    n = len(counts) - 1
    q2m1 = poly_from_pairs([(2, 1), (0, -1)])
    out = L({})
    for l, count in enumerate(counts):
        if count:
            out = out + count * q2m1 ** (n - l)
    return out


@pytest.mark.parametrize(
    "rays, rank", [c[1:] for c in FIBER_CONES], ids=[c[0] for c in FIBER_CONES]
)
def test_fiber_series_matches_product_form(rays, rank):
    lat = face_lattice(rays, rank=rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        d = multiplicity_table(sub)
        for f in lat.faces:
            counts = [d.get(l, f.id) for l in range(f.dim + 1)]
            assert _fiber_series(counts) == _fiber_series_by_products(counts)
    # the chain-count series of the intervals [lo, hi] with lo != 0
    for f in lat.faces:
        for lo in lat.down[f.id] - {lat.zero_id}:
            counts = lat.chain_counts(lo, f.id)
            assert _fiber_series(counts) == _fiber_series_by_products(counts)


def test_solver_expands_each_chain_count_tuple_once(monkeypatch):
    lat = face_lattice(CUBE5, rank=5)
    d = multiplicity_table(barycentric_subdivision(lat))
    tuples = {
        lat.chain_counts(lo, f.id)
        for f in lat.faces
        for lo in lat.down[f.id] - {lat.zero_id, f.id}
    }
    calls = []

    def counted(counts):
        calls.append(counts)
        return _fiber_series(counts)

    faces = {tuple(d.get(l, f.id) for l in range(f.dim + 1)) for f in lat.faces}
    monkeypatch.setattr(decomposition, "_fiber_series", counted)
    solve_decomposition(lat, d)
    # faces and intervals share one memo: one call per distinct tuple
    assert (len(lat.faces), len(tuples), len(faces)) == (82, 4, 6)
    assert sorted(calls) == sorted(tuples | faces)
    assert len(calls) == 8


def test_fiber_poincare_zero_face():
    lat = face_lattice(SQUARE)
    d = multiplicity_table(barycentric_subdivision(lat))
    assert fiber_poincare(d, lat.zero_id) == L.one()


def test_fiber_poincare_rejects_bad_table():
    lat = face_lattice(SQUARE)
    # a lone middle count gives (q^2-1)^1, which has a negative coefficient
    bad = MultiplicityTable({(2, lat.top_id): 1}, lat)
    with pytest.raises(NegativeCoefficient):
        fiber_poincare(bad, lat.top_id)


def test_solver_names_the_first_face_with_a_negative_fiber():
    # two 2-faces given the same bad counts share one expansion; the error is
    # still the one fiber_poincare raises for the smaller of them
    lat = face_lattice(SQUARE)
    counts = dict(multiplicity_table(barycentric_subdivision(lat)).counts)
    first, second = lat.faces_of_dim(2)[1:3]
    for fid in (second, first):
        counts[0, fid] = 1
    bad = MultiplicityTable(counts, lat)
    with pytest.raises(NegativeCoefficient) as expected:
        fiber_poincare(bad, first)
    with pytest.raises(NegativeCoefficient) as found:
        solve_decomposition(lat, bad)
    assert str(found.value) == str(expected.value)
    assert f"face {first} " in str(found.value)


def test_split_examples():
    neg, pal = _split(dict(poly_from_pairs([(1, 1), (-1, 2), (-3, 1)]).items()))
    assert pal == poly_from_pairs([(1, 1), (-1, 1)])
    assert neg == poly_from_pairs([(-1, 1), (-3, 1)])

    neg, pal = _split({-2: 1})
    assert not pal and neg == L.term(-2)

    neg, pal = _split(dict(poly_from_pairs([(2, 1), (0, 5), (-2, 5), (-4, 1)]).items()))
    assert pal == poly_from_pairs([(2, 1), (0, 5), (-2, 1)])
    assert neg == poly_from_pairs([(-2, 4), (-4, 1)])


def test_split_is_exact_decomposition():
    rng = random.Random(3)
    for _ in range(50):
        p = L({rng.randint(-5, 5): rng.randint(-3, 3) for _ in range(4)})
        neg, pal = _split(dict(p.items()))
        assert neg + pal == p
        assert pal == pal.mirror()
        assert all(e < 0 for e in neg.support())


def _reference_split(p):
    """The palindromic part mirrored from degrees >= 0, and p minus it."""
    pal_terms = {}
    for e in p.support():
        if e == 0:
            pal_terms[0] = p.coefficient(0)
        elif e > 0:
            pal_terms[e] = p.coefficient(e)
            pal_terms[-e] = p.coefficient(e)
    palindromic = L(pal_terms)
    return p - palindromic, palindromic


def _same(a, b):
    """Equal polynomials with equal JSON and the same coefficient types."""
    assert a == b
    assert a.to_json_obj() == b.to_json_obj()
    assert sorted((e, type(c)) for e, c in a.items()) == sorted(
        (e, type(c)) for e, c in b.items()
    )


def test_split_matches_the_reference_split():
    # Fraction coefficients, and mirrored pairs that cancel in the negative
    # part or leave an integral Fraction there
    rng = random.Random(29)
    values = [1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
    for _ in range(300):
        terms = {rng.randint(-5, 5): rng.choice(values) for _ in range(rng.randint(0, 6))}
        for e in list(terms):
            if e > 0 and rng.random() < 0.5:
                terms[-e] = terms[e] + rng.choice([0, 0, 1, Fraction(1, 2)])
        p = L(terms)
        got, expected = _split(dict(p.items())), _reference_split(p)
        _same(got[0], expected[0])
        _same(got[1], expected[1])


def _reference_solve(lattice, d):
    """The stalk recursion on polynomial objects: middles in id order."""
    result = DecompositionResult(lattice=lattice)
    htilde, dpal, zero = result.Htilde, {}, lattice.zero_id
    for f in lattice.faces:
        hi = f.id
        result.F[hi] = fiber_poincare(d, hi)
        for lo in sorted(lattice.down[hi], reverse=True):
            if lo == hi:
                htilde[lo, hi] = dpal[lo, hi] = L.one()
                continue
            length = f.dim - lattice.dim(lo)
            if lo == zero:
                fiber = result.F[hi].shift(-length)
            else:
                fiber = _fiber_series(lattice.chain_counts(lo, hi)).shift(-length)
            lhs = fiber - L.sum_of_products(
                (htilde[mid, hi], dpal[lo, mid]) for mid in lattice.strictly_between(lo, hi)
            )
            htilde[lo, hi], dpal[lo, hi] = _reference_split(lhs)
        result.D[hi] = dpal[zero, hi]
    _validate(result)
    return result


def _check_against_reference(lattice, d, dec=None):
    dec = dec or solve_decomposition(lattice, d)
    ref = _reference_solve(lattice, d)
    for name in ("Htilde", "D", "F"):
        got, expected = getattr(dec, name), getattr(ref, name)
        assert got.keys() == expected.keys()
        for key, poly in expected.items():
            _same(got[key], poly)
    assert dec.to_json_obj() == ref.to_json_obj()


@pytest.mark.parametrize("fan", FANS)
@pytest.mark.parametrize("name", CONES)
def test_solver_matches_the_reference_recursion(name, fan):
    d, dec = _pipeline(name, fan)
    _check_against_reference(_lattice(name), d, dec)


@pytest.mark.parametrize("fan", FANS)
@pytest.mark.parametrize("m", range(12, 18))
def test_solver_matches_the_reference_recursion_on_polygons(m, fan):
    lat = polygon_cone(m).lattice()
    _check_against_reference(lat, multiplicity_table(FANS[fan](lat)))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_cones(pointed=True, ranks=(3, 4)))
def test_solver_matches_the_reference_recursion_on_random_cones(cone):
    rays, rank = cone
    try:
        lat = face_lattice(_extreme_rays(rays, rank), rank)
    except NotFullDimensional:
        return
    for subdivide in FANS.values():
        _check_against_reference(lat, multiplicity_table(subdivide(lat)))


def test_solve_2dim_face_stalk():
    lat = face_lattice(SQUARE)
    dec = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    for fid in lat.faces_of_dim(2):
        assert dec.htilde(0, fid) == L.term(-2)
        assert dec.D[fid] == L.one()


def test_solve_square_cone():
    lat = face_lattice(SQUARE)
    dec = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    sigma = lat.top_id
    assert dec.htilde(0, sigma) == poly_from_pairs([(-3, 1), (-1, 1)])
    assert dec.D[sigma] == poly_from_pairs([(1, 1), (-1, 1)])


def test_solve_cube_interior_ray():
    lat = face_lattice(CUBE)
    dec = solve_decomposition(lat, multiplicity_table(interior_ray_subdivision(lat)))
    sigma = lat.top_id
    assert dec.D[sigma] == poly_from_pairs([(2, 1), (0, 5), (-2, 1)])
    assert dec.htilde(0, sigma) == poly_from_pairs([(-4, 1), (-2, 4)])
    for fid in lat.faces_of_dim(3):  # all cube facets have 4 rays
        assert dec.htilde(0, fid) == poly_from_pairs([(-3, 1), (-1, 1)])
        assert dec.D[fid] == poly_from_pairs([(1, 1), (-1, 1)])


def test_solve_octahedron_interior_ray():
    lat = face_lattice(OCTA)
    dec = solve_decomposition(lat, multiplicity_table(interior_ray_subdivision(lat)))
    sigma = lat.top_id
    assert dec.D[sigma] == poly_from_pairs([(2, 1), (0, 3), (-2, 1)])
    assert dec.htilde(0, sigma) == poly_from_pairs([(-4, 1), (-2, 2)])
    for fid in lat.faces_of_dim(3):  # octahedron facets are simplicial
        assert dec.htilde(0, fid) == L.term(-3)


def test_stalk_identity_closure():
    lat = face_lattice(CUBE)
    d = multiplicity_table(barycentric_subdivision(lat))
    dec = solve_decomposition(lat, d)
    for f in lat.faces:
        total = L({})
        for g in lat.faces:
            if lat.leq(g.id, f.id):
                total = total + dec.htilde(g.id, f.id) * dec.D[g.id]
        assert total == dec.F[f.id].shift(-f.dim)


def test_interval_locality_cube_vertex_figure():
    # the quotient of the cube cone by a ray is a cone over a triangle, so
    # the off-diagonal stalk must match the 3-gon value q^-3
    lat = face_lattice(CUBE)
    dec = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    for ray in lat.faces_of_dim(1):
        assert dec.htilde(ray, lat.top_id) == L.term(-3)
    # for the octahedron the vertex figure is a square, so q^-3 + q^-1
    octa = face_lattice(OCTA)
    dec2 = solve_decomposition(
        octa, multiplicity_table(barycentric_subdivision(octa))
    )
    for ray in octa.faces_of_dim(1):
        assert dec2.htilde(ray, octa.top_id) == poly_from_pairs([(-3, 1), (-1, 1)])


def test_simplicial_faces_have_unit_stalk():
    lat = face_lattice(OCTA)
    dec = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    for f in lat.faces:
        if f.dim and len(f.rays) == f.dim:
            assert dec.htilde(0, f.id) == L.term(-f.dim)


def test_lowest_degree_coefficient_is_one():
    for rays in (SQUARE, CUBE, OCTA):
        lat = face_lattice(rays)
        dec = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
        assert lowest_degree_normalized(dec) == []


def test_subdivision_independence_of_stalks():
    lat = face_lattice(CUBE)
    a = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    b = solve_decomposition(lat, multiplicity_table(interior_ray_subdivision(lat)))
    assert a.Htilde == b.Htilde
    # multiplicities at the 3-dimensional facets agree as well
    for fid in lat.faces_of_dim(3):
        assert a.D[fid] == b.D[fid]


def test_validate_rejects_a_multiplicity_that_is_not_unimodal():
    # palindromic, nonnegative and of the parity of the 4-dimensional cube
    lat = face_lattice(CUBE)
    bad = poly_from_pairs([(-4, 1), (-2, 3), (0, 1), (2, 3), (4, 1)])
    with pytest.raises(InvariantViolation, match="multiplicity unimodality"):
        _validate(DecompositionResult(lattice=lat, D={lat.top_id: bad}))


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(-2, 1), (0, -1), (2, 1)], "negative or fractional multiplicity"),
        ([(-2, Fraction(1, 2)), (0, 1), (2, Fraction(1, 2))], "negative or fractional multiplicity"),
        ([(-1, 1), (1, 1)], "multiplicity parity"),
        # a parity term before a negative one: the value error is still named
        ([(-1, 1), (1, 1), (0, -1)], "negative or fractional multiplicity"),
    ],
)
def test_validate_names_a_bad_multiplicity(pairs, message):
    lat = face_lattice(CUBE)
    with pytest.raises(InvariantViolation, match=message):
        _validate(DecompositionResult(lattice=lat, D={lat.top_id: poly_from_pairs(pairs)}))


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(-4, 1), (-2, -2)], "negative or fractional stalk coefficient"),
        ([(-4, Fraction(3, 2))], "negative or fractional stalk coefficient"),
        ([(-3, 1)], "stalk parity"),
        ([(-3, 1), (-2, -1)], "negative or fractional stalk coefficient"),
    ],
)
def test_validate_names_a_bad_stalk(pairs, message):
    # the stalk of the 4-dimensional cube cone over the zero face: even degrees
    lat = face_lattice(CUBE)
    stalks = {(lat.zero_id, lat.top_id): poly_from_pairs(pairs)}
    with pytest.raises(InvariantViolation, match=message):
        _validate(DecompositionResult(lattice=lat, Htilde=stalks))


def test_validate_rejects_a_stalk_identity_that_does_not_close():
    lat = face_lattice(SQUARE)
    dec = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    dec.Htilde[lat.zero_id, lat.top_id] = poly_from_pairs([(-3, 1), (-1, 2)])
    with pytest.raises(InvariantViolation, match="stalk identity does not close"):
        _validate(dec)
