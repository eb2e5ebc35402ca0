"""Cones beyond the built-in corpus: mixed facet types and sheared lattices."""

from icstalks.cones import face_lattice
from icstalks.decomposition import solve_decomposition
from icstalks.derham import check_main_identity, derham_table
from icstalks.differentials import omega_closed_form, omega_oracle
from icstalks.polynomials import LaurentPolynomial
from icstalks.shelling import lexicographic_shelling
from icstalks.subdivision import (
    barycentric_subdivision,
    interior_ray_subdivision,
    multiplicity_table,
    validate_subdivision,
)
from polys import bipoly_from_triples, poly_from_pairs

# square pyramid: one quadrilateral facet and four triangles
PYRAMID = [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (2, 2, 0, 1), (1, 1, 1, 1)]
# triangular prism: two triangles and three quadrilaterals
PRISM = [
    (0, 0, 0, 1),
    (1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, 0, 1, 1),
    (1, 0, 1, 1),
    (0, 1, 1, 1),
]


def full_pipeline(rays):
    lat = face_lattice(rays)
    bary = barycentric_subdivision(lat)
    validate_subdivision(bary)
    interior = interior_ray_subdivision(lat)
    validate_subdivision(interior)
    dec_b = solve_decomposition(lat, multiplicity_table(bary))
    dec_i = solve_decomposition(lat, multiplicity_table(interior))
    return lat, bary, dec_b, dec_i


def test_square_pyramid_mixed_facets():
    lat, bary, dec_b, dec_i = full_pipeline(PYRAMID)
    counts = [len(lat.faces_of_dim(d)) for d in range(5)]
    assert counts == [1, 5, 8, 5, 1]
    sigma = lat.top_id
    assert dec_i.D[sigma] == poly_from_pairs([(2, 1), (0, 2), (-2, 1)])
    assert dec_i.htilde(0, sigma) == poly_from_pairs([(-4, 1), (-2, 1)])
    for fid in lat.faces_of_dim(3):
        nk = len(lat.faces[fid].rays)
        assert dec_i.htilde(0, fid) == poly_from_pairs([(-3, 1), (-1, nk - 3)])
        assert dec_i.D[fid] == poly_from_pairs([(1, 1), (-1, 1)])
    assert dec_b.Htilde == dec_i.Htilde
    assert derham_table(dec_b)[0, sigma] == bipoly_from_triples(
        [(0, -4, 1), (-1, -2, 1)]
    )


def test_square_pyramid_closure_and_shelling():
    lat, bary, dec_b, _ = full_pipeline(PYRAMID)
    d = multiplicity_table(bary)
    table = derham_table(dec_b)
    for f in lat.faces:
        om = omega_oracle(bary, f.id)
        assert om == omega_closed_form(d, f.id)
        check_main_identity(dec_b, table, om, f.id)
    order = lexicographic_shelling(lat, bary)
    assert order.type_histogram()[0] == 1


def test_triangular_prism():
    lat, bary, dec_b, dec_i = full_pipeline(PRISM)
    counts = [len(lat.faces_of_dim(d)) for d in range(5)]
    assert counts == [1, 6, 9, 5, 1]
    sigma = lat.top_id
    assert dec_i.D[sigma] == poly_from_pairs([(2, 1), (0, 3), (-2, 1)])
    assert dec_i.htilde(0, sigma) == poly_from_pairs([(-4, 1), (-2, 2)])
    facet_rays = sorted(len(lat.faces[fid].rays) for fid in lat.faces_of_dim(3))
    assert facet_rays == [3, 3, 4, 4, 4]
    assert dec_b.Htilde == dec_i.Htilde
    table = derham_table(dec_b)
    for f in lat.faces:
        om = omega_oracle(bary, f.id)
        check_main_identity(dec_b, table, om, f.id)


def shear(rays, matrix):
    return [
        tuple(sum(matrix[i][j] * r[j] for j in range(len(r))) for i in range(len(r)))
        for r in rays
    ]


def test_unimodular_invariance_square_cone():
    square = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    # an integer matrix with determinant 1
    u = [(1, 2, 0), (0, 1, 3), (0, 0, 1)]
    sheared = shear(square, u)
    a = full_pipeline(square)
    b = full_pipeline(sheared)
    assert a[2].Htilde == b[2].Htilde
    assert a[2].D == b[2].D
    assert a[3].D == b[3].D
    for f in a[0].faces:
        assert omega_oracle(a[1], f.id) == omega_oracle(b[1], f.id)


def test_unimodular_invariance_cube_cone():
    cube = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    u = [(1, 0, 1, 0), (0, 1, 0, 2), (0, 0, 1, 1), (0, 0, 0, 1)]
    a = full_pipeline(cube)
    b = full_pipeline(shear(cube, u))
    assert a[2].Htilde == b[2].Htilde
    assert a[2].D == b[2].D
    sigma = a[0].top_id
    assert omega_oracle(a[1], sigma) == omega_oracle(b[1], sigma)
    assert derham_table(a[2])[0, sigma] == derham_table(b[2])[0, sigma]


def test_stalks_depend_only_on_poset_not_geometry():
    # the prism's quadrilateral facets and the square cone have the same
    # interval poset, so their stalk polynomials must agree
    lat, _, dec_b, _ = full_pipeline(PRISM)
    for fid in lat.faces_of_dim(3):
        if len(lat.faces[fid].rays) == 4:
            assert dec_b.htilde(0, fid) == poly_from_pairs([(-3, 1), (-1, 1)])
        else:
            assert dec_b.htilde(0, fid) == LaurentPolynomial.term(-3)
