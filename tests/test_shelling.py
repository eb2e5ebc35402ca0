import pytest

from icstalks.cones import face_lattice
from icstalks.errors import NoShellingFound, NotAShelling, NotPure
from icstalks.shelling import (
    SimplicialComplex,
    complex_from_fan,
    find_shelling,
    lexicographic_shelling,
    verify_shelling,
)
from icstalks.subdivision import barycentric_subdivision, interior_ray_subdivision

SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
ORTHANT3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
CUBE = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def fs(*vals):
    return frozenset(vals)


def test_complex_from_square_barycentric():
    lat = face_lattice(SQUARE)
    cx = complex_from_fan(barycentric_subdivision(lat))
    assert len(cx.facets) == 8
    assert cx.facet_size == 3
    assert len(cx.vertices) == 9


def test_complex_from_simplicial_3cone():
    lat = face_lattice(ORTHANT3)
    cx = complex_from_fan(barycentric_subdivision(lat))
    assert len(cx.facets) == 6  # 3! maximal chains


def test_complex_from_stellar_square():
    lat = face_lattice(SQUARE)
    cx = complex_from_fan(interior_ray_subdivision(lat))
    assert len(cx.facets) == 4


def test_not_pure_rejected():
    with pytest.raises(NotPure):
        SimplicialComplex(facets=[fs(0, 1, 2), fs(3, 4)])


def test_single_facet_shelling():
    cx = SimplicialComplex(facets=[fs(0, 1, 2)])
    order = verify_shelling(cx, [fs(0, 1, 2)])
    assert order.types == [0]
    assert order.restriction == [frozenset()]


def test_two_triangles_sharing_vertex_rejected():
    cx = SimplicialComplex(facets=[fs(0, 1, 2), fs(2, 3, 4)])
    with pytest.raises(NotAShelling) as err:
        verify_shelling(cx, [fs(0, 1, 2), fs(2, 3, 4)])
    assert err.value.index == 1
    with pytest.raises(NoShellingFound):
        find_shelling(cx)


def test_two_triangles_sharing_edge():
    cx = SimplicialComplex(facets=[fs(0, 1, 2), fs(1, 2, 3)])
    order = verify_shelling(cx, [fs(0, 1, 2), fs(1, 2, 3)])
    assert order.types == [0, 1]
    assert order.restriction[1] == fs(3)


def test_tetrahedron_boundary_any_order_shells():
    import itertools

    facets = [fs(*c) for c in itertools.combinations(range(4), 3)]
    cx = SimplicialComplex(facets=facets)
    found = find_shelling(cx)
    assert len(found.order) == 4
    # the closing facet of the sphere has full type
    assert found.types[-1] == 3
    for perm in itertools.permutations(facets):
        assert verify_shelling(cx, list(perm))


def test_find_shelling_on_barycentric_square():
    lat = face_lattice(SQUARE)
    cx = complex_from_fan(barycentric_subdivision(lat))
    order = find_shelling(cx)
    assert sorted(order.order, key=sorted) == sorted(cx.facets, key=sorted)


def test_lexicographic_square_cone():
    lat = face_lattice(SQUARE)
    order = lexicographic_shelling(lat)
    assert len(order.order) == 8
    hist = order.type_histogram()
    assert hist[0] == 1
    assert set(hist) <= {0, 1, 2}


def test_lexicographic_simplicial_3cone():
    lat = face_lattice(ORTHANT3)
    order = lexicographic_shelling(lat)
    assert len(order.order) == 6
    assert order.type_histogram()[0] == 1


def test_lexicographic_cube():
    lat = face_lattice(CUBE)
    order = lexicographic_shelling(lat)
    assert len(order.order) == 48
    assert order.type_histogram()[0] == 1


def test_restriction_faces_describe_new_faces():
    # the faces of each facet not seen earlier are exactly those containing
    # the restriction face
    lat = face_lattice(SQUARE)
    order = lexicographic_shelling(lat)
    import itertools

    for j, facet in enumerate(order.order):
        earlier = order.order[:j]
        for size in range(len(facet) + 1):
            for sub in itertools.combinations(sorted(facet), size):
                s = frozenset(sub)
                is_old = any(s <= e for e in earlier)
                contains_restriction = order.restriction[j] <= s
                assert is_old == (not contains_restriction)
