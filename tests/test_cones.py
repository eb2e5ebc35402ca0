import pytest

from icstalks.cones import (
    dot,
    dual_cone,
    face_lattice,
    pick_degree,
    primitive,
    second_degree,
    validate_degree,
)
from icstalks.errors import NotFullDimensional, NotStronglyConvex

ORTHANT3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
CUBE = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
OCTAHEDRON = [
    (1, 0, 0, 1),
    (-1, 0, 0, 1),
    (0, 1, 0, 1),
    (0, -1, 0, 1),
    (0, 0, 1, 1),
    (0, 0, -1, 1),
]


def test_primitive():
    assert primitive((2, 4, 6)) == (1, 2, 3)
    assert primitive((-3, 0)) == (-1, 0)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_dual_of_orthant_is_orthant():
    assert sorted(dual_cone(ORTHANT3, 3)) == sorted(ORTHANT3)


def test_dual_of_square_cone():
    normals = dual_cone(SQUARE, 3)
    assert sorted(normals) == sorted([(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)])
    for u in normals:
        zero = [r for r in SQUARE if dot(u, r) == 0]
        assert len(zero) == 2
        assert all(dot(u, r) >= 0 for r in SQUARE)


def test_dual_rejects_line():
    with pytest.raises(NotStronglyConvex):
        dual_cone([(1, 0), (-1, 0), (0, 1)], 2)


def test_dual_rejects_low_rank():
    with pytest.raises(NotFullDimensional):
        dual_cone([(1, 0, 0), (0, 1, 0)], 3)


def test_orthant_face_lattice_is_boolean():
    lat = face_lattice(ORTHANT3)
    assert len(lat.faces) == 8
    raysets = {f.rays for f in lat.faces}
    import itertools

    expected = {
        frozenset(s)
        for k in range(4)
        for s in itertools.combinations(range(3), k)
    }
    assert raysets == expected


def test_square_cone_face_lattice():
    lat = face_lattice(SQUARE)
    dims = [f.dim for f in lat.faces]
    assert [dims.count(d) for d in range(4)] == [1, 4, 4, 1]
    assert len(lat.faces) == 10
    # ids are sorted by (dim, smallest ray set): zero face first, sigma last
    assert lat.faces[0].rays == frozenset()
    assert lat.faces[-1].rays == frozenset(range(4))


def test_cube_cone_face_counts_and_euler():
    lat = face_lattice(CUBE)
    counts = [len(lat.faces_of_dim(d)) for d in range(5)]
    assert counts == [1, 8, 12, 6, 1]
    v, e, f = counts[1], counts[2], counts[3]
    assert v - e + f == 2


def test_octahedron_cone_face_counts():
    lat = face_lattice(OCTAHEDRON)
    counts = [len(lat.faces_of_dim(d)) for d in range(5)]
    assert counts == [1, 6, 12, 8, 1]
    for fid in lat.faces_of_dim(3):
        assert len(lat.faces[fid].rays) == 3


def test_rank_zero_lattice():
    lat = face_lattice([], rank=0)
    assert len(lat.faces) == 1
    assert lat.zero_id == lat.top_id == 0


def test_meet_is_ray_intersection():
    lat = face_lattice(CUBE)
    for a in lat.faces:
        for b in lat.faces:
            m = lat.meet(a.id, b.id)
            assert lat.faces[m].rays == (a.rays & b.rays)


def test_pick_degree_orthant_ray():
    lat = face_lattice(ORTHANT3)
    fid = lat.id_of_rayset(frozenset({0}))
    deg = pick_degree(lat, fid)
    assert deg.u == (0, 1, 1)


def test_pick_degree_sigma_is_zero():
    lat = face_lattice(ORTHANT3)
    assert pick_degree(lat, lat.top_id).u == (0, 0, 0)


def test_pick_degree_square_cone_two_face():
    lat = face_lattice(SQUARE)
    fid = lat.id_of_rayset(frozenset({0, 1}))  # spanned by (0,0,1) and (1,0,1)
    deg = pick_degree(lat, fid)
    assert deg.u == (0, 1, 0)
    assert validate_degree(lat, fid, deg.u)


def test_pick_degree_validates_on_all_faces():
    for rays in (ORTHANT3, SQUARE, CUBE, OCTAHEDRON):
        lat = face_lattice(rays)
        for f in lat.faces:
            deg = pick_degree(lat, f.id)
            for i, r in enumerate(lat.rays):
                if i in f.rays:
                    assert dot(deg.u, r) == 0
                else:
                    assert dot(deg.u, r) > 0
            second = second_degree(lat, deg)
            if f.id != lat.top_id:
                assert second is not None
                assert second.u != deg.u
                assert validate_degree(lat, f.id, second.u)
