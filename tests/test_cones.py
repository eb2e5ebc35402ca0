import itertools

import pytest

from icstalks.cones import (
    dot,
    dual_cone,
    face_lattice,
    pick_degree,
    primitive,
    rank_of,
    second_degree,
    validate_degree,
)
from icstalks.corpus import CORPUS, polygon_cone
from icstalks.errors import InvariantViolation, NotFullDimensional, NotStronglyConvex

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
# square pyramid and triangular prism, as in test_stress
PYRAMID = [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (2, 2, 0, 1), (1, 1, 1, 1)]
PRISM = [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 1, 1), (0, 1, 1, 1)]
SIMPLEX5 = [(0, 0, 0, 0, 1)] + [
    tuple(1 if i == j else 0 for j in range(4)) + (1,) for i in range(4)
]
CUBE5 = [v + (1,) for v in itertools.product((0, 1), repeat=4)]


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


def _subset_lattice(lat):
    """Faces and covers by brute force, from the zero set of every subset of normals.

    Faces are sorted by (dim, sorted rays); a cover is a pair of faces one
    dimension apart with nested ray sets.
    """
    normals = lat.dual_generators
    vanishing = {}
    for size in range(len(normals) + 1):
        for subset in itertools.combinations(normals, size):
            zero = frozenset(
                i for i, r in enumerate(lat.rays) if all(dot(u, r) == 0 for u in subset)
            )
            vanishing[zero] = frozenset(
                s for s, u in enumerate(normals) if all(dot(u, lat.rays[i]) == 0 for i in zero)
            )
    dims = {z: rank_of([lat.rays[i] for i in z]) for z in vanishing}
    keyed = sorted(vanishing, key=lambda z: (dims[z], sorted(z)))
    faces = [(fid, z, dims[z], vanishing[z]) for fid, z in enumerate(keyed)]
    covers = [
        (lo[0], hi[0]) for lo in faces for hi in faces if lo[2] + 1 == hi[2] and lo[1] < hi[1]
    ]
    return faces, covers


REFERENCE_CONES = [(spec.name, list(spec.rays), spec.rank) for spec in CORPUS] + [
    ("pyramid", PYRAMID, 4),
    ("prism", PRISM, 4),
    ("simplex5", SIMPLEX5, 5),
    ("cube5", CUBE5, 5),
    ("polygon-12", list(polygon_cone(12).rays), 3),
]


@pytest.mark.parametrize("name, rays, rank", REFERENCE_CONES, ids=[c[0] for c in REFERENCE_CONES])
def test_walk_matches_subset_enumeration(name, rays, rank):
    lat = face_lattice(rays, rank)
    faces, covers = _subset_lattice(lat)
    assert [(f.id, f.rays, f.dim, f.normals) for f in lat.faces] == faces
    assert lat.covers == covers


def test_polygon_32_lattice():
    # the subset enumeration would test 2^32 sets of normals here
    lat = polygon_cone(32).lattice()
    assert [len(lat.faces_of_dim(d)) for d in range(4)] == [1, 32, 32, 1]
    assert len(lat.covers) == 4 * 32
    lat._validate()


@pytest.mark.parametrize("dropped", [0, -1])
def test_validate_rejects_a_missing_cover(dropped):
    # without one cover, an interval of length 2 has a single middle face
    lat = face_lattice(CUBE)
    lo, hi = lat.covers.pop(dropped)
    lat.above[lo] -= {hi}
    lat.below[hi] -= {lo}
    with pytest.raises(InvariantViolation, match="middle faces"):
        lat._validate()


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
