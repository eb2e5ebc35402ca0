import pytest

from icstalks.cones import dot, face_lattice
from icstalks.decomposition import solve_decomposition
from icstalks.errors import InvariantViolation
from icstalks.subdivision import (
    barycentric_subdivision,
    chain_count_oracle,
    interior_ray_subdivision,
    multiplicity_table,
    validate_subdivision,
)

SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
TRIANGLE = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
CUBE = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
CUBE5 = [(x, y, z, w, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1) for w in (0, 1)]


def test_barycentric_square_cone_counts():
    lat = face_lattice(SQUARE)
    sub = barycentric_subdivision(lat)
    # 4 original rays + 4 two-face barycenters + 1 center
    assert len(sub.rays) == 9
    assert len(sub.maximal) == 8
    assert all(len(c) == 3 for c in sub.maximal)
    validate_subdivision(sub)


def test_barycentric_simplicial_2cone():
    lat = face_lattice([(1, 0), (0, 1)])
    sub = barycentric_subdivision(lat)
    assert len(sub.maximal) == 2
    assert (1, 1) in sub.rays


def test_barycentric_pushforward_minimality():
    lat = face_lattice(SQUARE)
    sub = barycentric_subdivision(lat)
    for cone, tau in sub.pushforward.items():
        face = lat.faces[tau]
        for i in cone:
            for s in face.normals:
                assert dot(lat.dual_generators[s], sub.rays[i]) == 0
    # monotone on nested cones
    cones = sorted(sub.cones, key=len)
    for a in cones:
        for b in cones:
            if a < b:
                assert lat.leq(sub.pushforward[a], sub.pushforward[b])


def test_multiplicity_square_cone():
    lat = face_lattice(SQUARE)
    d = multiplicity_table(barycentric_subdivision(lat))
    sigma = lat.top_id
    assert [d.get(l, sigma) for l in (1, 2, 3)] == [1, 8, 8]
    for fid in lat.faces_of_dim(1):
        assert d.get(1, fid) == 1
        assert d.get(2, fid) == 0
    for fid in lat.faces_of_dim(2):
        assert d.get(1, fid) == 1
        assert d.get(2, fid) == 2
    assert d.get(0, lat.zero_id) == 1


def test_multiplicity_table_rejects_cone_over_smaller_face():
    lat = face_lattice(SQUARE)
    sub = barycentric_subdivision(lat)
    two_cone = min((c for c in sub.cones if len(c) == 2), key=sorted)
    sub.pushforward[two_cone] = lat.faces_of_dim(1)[0]
    with pytest.raises(InvariantViolation):
        multiplicity_table(sub)


def test_chain_count_examples():
    lat = face_lattice(SQUARE)
    for fid in lat.faces_of_dim(1):
        assert chain_count_oracle(lat, fid, 1) == 1
    assert chain_count_oracle(lat, lat.top_id, 2) == 8
    cube = face_lattice(CUBE)
    assert chain_count_oracle(cube, cube.top_id, 2) == 26  # v + e + f


def test_chain_count_matches_multiplicities():
    for rays in (TRIANGLE, SQUARE, CUBE):
        lat = face_lattice(rays)
        d = multiplicity_table(barycentric_subdivision(lat))
        for f in lat.faces:
            for l in range(lat.rank + 1):
                assert d.get(l, f.id) == chain_count_oracle(lat, f.id, l)


def test_chain_count_recursion():
    lat = face_lattice(CUBE)
    for f in lat.faces:
        if f.dim == 0:
            continue
        assert chain_count_oracle(lat, f.id, 1) == 1
        for j in range(2, lat.rank + 1):
            total = sum(
                chain_count_oracle(lat, mid, j - 1)
                for mid in lat.strictly_between(lat.zero_id, f.id)
            )
            assert chain_count_oracle(lat, f.id, j) == total


def test_stellar_3dim_counts():
    for rays, v in ((TRIANGLE, 3), (SQUARE, 4)):
        lat = face_lattice(rays)
        sub = interior_ray_subdivision(lat)
        d = multiplicity_table(sub)
        sigma = lat.top_id
        assert [d.get(l, sigma) for l in (1, 2, 3)] == [1, v, v]


def test_interior_ray_cube_recipe():
    lat = face_lattice(CUBE)
    sub = interior_ray_subdivision(lat)
    validate_subdivision(sub)
    d = multiplicity_table(sub)
    sigma = lat.top_id
    e = len(lat.faces_of_dim(2))
    nk = [len(lat.faces[fid].rays) for fid in lat.faces_of_dim(3)]
    assert sum(nk) == 2 * e
    assert d.get(1, sigma) == 1
    assert d.get(2, sigma) == e + 2
    assert d.get(3, sigma) == sum(nk) + e
    assert d.get(4, sigma) == 2 * e
    for fid, k in zip(lat.faces_of_dim(3), nk):
        assert [d.get(l, fid) for l in (1, 2, 3)] == [1, k, k]


def test_interior_ray_low_rank_is_identity():
    for rays, rank in (([], 0), ([(1,)], 1), ([(1, 0), (0, 1)], 2)):
        lat = face_lattice(rays, rank=rank)
        sub = interior_ray_subdivision(lat)
        assert not sub.added_rays()


def test_validate_rejects_uncovered_fan():
    lat = face_lattice(CUBE)
    sub = interior_ray_subdivision(lat)
    sub.maximal = sub.maximal[1:]
    with pytest.raises(InvariantViolation):
        validate_subdivision(sub)


def test_interior_ray_rank5_cube_matches_barycentric_stalks():
    lat = face_lattice(CUBE5)
    interior = interior_ray_subdivision(lat)
    assert len(interior.maximal) == 192
    a = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    b = solve_decomposition(lat, multiplicity_table(interior))
    assert a.Htilde == b.Htilde


def test_total_cone_count_equals_table_total():
    lat = face_lattice(SQUARE)
    sub = barycentric_subdivision(lat)
    d = multiplicity_table(sub)
    assert d.total() == len(sub.cones)
