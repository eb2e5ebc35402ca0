import itertools
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icstalks.cones import (
    degree_face,
    dot,
    dual_cone,
    face_lattice,
    pick_degree,
    primitive,
    rank_of,
    second_degree,
)
from icstalks.corpus import CORPUS, polygon_cone
from icstalks.errors import (
    DegreeMismatch,
    InvariantViolation,
    NotFullDimensional,
    NotStronglyConvex,
    ToricError,
)
from icstalks.linalg import sparse_row
from test_linalg import nullspace

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
CROSS5 = [
    tuple(s if i == j else 0 for j in range(4)) + (1,) for i in range(4) for s in (1, -1)
]


def face_id(lattice, rays):
    """The id of the face whose ray index set is ``rays``."""
    rays = frozenset(rays)
    (fid,) = [f.id for f in lattice.faces if f.rays == rays]
    return fid


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


def _subset_dual_cone(rays, rank):
    """Facet normals by brute force, from the hyperplane of every (rank-1)-subset of rays.

    A subset whose span is a hyperplane gives a normal; it is kept, oriented
    positive on the cone, when every ray lies on one side and the rays on the
    hyperplane span rank - 1.
    """
    if rank_of(rays) < rank:
        raise NotFullDimensional("rays do not span the ambient space")
    if rank == 0:
        return []
    normals = set()
    for subset in itertools.combinations(range(len(rays)), rank - 1):
        basis, _cols = nullspace([sparse_row(rays[i]) for i in subset], rank)
        if len(basis) != 1:
            continue
        scale = lcm(*(Fraction(x).denominator for x in basis[0]))
        u = primitive([int(x * scale) for x in basis[0]])
        pairings = [dot(u, r) for r in rays]
        if any(p > 0 for p in pairings) and any(p < 0 for p in pairings):
            continue
        if all(p <= 0 for p in pairings):
            u = tuple(-x for x in u)
        if rank_of([r for r in rays if dot(u, r) == 0]) == rank - 1:
            normals.add(u)
    normal_list = sorted(normals)
    if rank_of(normal_list) < rank:
        raise NotStronglyConvex("the cone contains a line")
    return normal_list


def _sheared(rays, seed):
    """The rays under a seeded signed permutation followed by one transvection."""
    rng = random.Random(seed)
    n = len(rays[0])
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    c = rng.choice((-2, -1, 1, 2))
    out = []
    for r in rays:
        v = [signs[k] * r[perm[k]] for k in range(n)]
        v[i] += c * v[j]
        out.append(tuple(v))
    return out


def _sheared_and_permuted(rays, seed):
    """The rays sheared as in ``_sheared`` (from rank 2) and listed in a seeded order.

    Returns the new rays and ``order``, with ``order[k]`` the old index of
    new ray k.
    """
    rays = _sheared(rays, seed) if rays and len(rays[0]) >= 2 else list(rays)
    order = random.Random(seed).sample(range(len(rays)), len(rays))
    return [rays[k] for k in order], order


DUAL_CONES = (
    [(spec.name, list(spec.rays), spec.rank) for spec in CORPUS]
    + [("pyramid", PYRAMID, 4), ("prism", PRISM, 4)]
    + [("simplex5", SIMPLEX5, 5), ("cube5", CUBE5, 5), ("cross5", CROSS5, 5)]
    + [(f"polygon-{m}", list(polygon_cone(m).rays), 3) for m in range(5, 25)]
)
SHEARED_CONES = [
    (f"{name}-shear{seed}", _sheared(rays, seed), rank)
    for name, rays, rank in DUAL_CONES
    if rank >= 2
    for seed in (1, 2, 3)
]


@pytest.mark.parametrize(
    "name, rays, rank", DUAL_CONES + SHEARED_CONES, ids=[c[0] for c in DUAL_CONES + SHEARED_CONES]
)
def test_dual_cone_matches_subset_loop(name, rays, rank):
    assert dual_cone(rays, rank) == _subset_dual_cone(rays, rank)


def _outcome(route, rays, rank):
    try:
        return route(rays, rank)
    except ToricError as exc:
        return type(exc)


@st.composite
def _cones(draw, pointed, ranks=(2, 5)):
    """Rank in ``ranks`` (2-5 by default) and rank to 10 distinct nonzero rays.

    A pointed cone has every last coordinate positive; otherwise one ray is
    followed by its negative, so the cone contains a line.
    """
    rank = draw(st.integers(*ranks))
    last = st.integers(1, 3) if pointed else st.integers(-3, 3)
    ray = st.tuples(*[st.integers(-3, 3)] * (rank - 1), last).filter(any)
    rays = draw(st.lists(ray, min_size=rank, max_size=10 if rank < 5 else 8, unique=True))
    if not pointed:
        rays.append(tuple(-x for x in rays[0]))
    return rays, rank


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_cones(pointed=True))
def test_dual_cone_agrees_with_subset_loop_on_pointed_cones(cone):
    rays, rank = cone
    normals = _outcome(dual_cone, rays, rank)
    assert normals == _outcome(_subset_dual_cone, rays, rank)
    if normals is NotFullDimensional:
        return
    assert isinstance(normals, list)
    for u in normals:
        assert all(dot(u, r) >= 0 for r in rays)
        assert rank_of([r for r in rays if dot(u, r) == 0]) == rank - 1


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_cones(pointed=False))
def test_dual_cone_raises_like_subset_loop_on_lines(cone):
    rays, rank = cone
    error = _outcome(dual_cone, rays, rank)
    assert error in (NotFullDimensional, NotStronglyConvex)
    assert error is _outcome(_subset_dual_cone, rays, rank)


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


@pytest.mark.parametrize("dim", [1, 2], ids=["ray", "edge"])
@pytest.mark.parametrize("rays", [CUBE, CUBE5], ids=["cube", "cube5"])
def test_validate_rejects_a_face_set_missing_an_intersection(rays, dim):
    # a ray and an edge are each an intersection of facets, so deleting one
    # leaves the face set without some intersection of two of its faces
    lat = face_lattice(rays)
    missing = lat.faces[lat.faces_of_dim(dim)[0]].rays
    del lat._by_rayset[missing]
    with pytest.raises(InvariantViolation, match="not intersection-closed"):
        lat._validate()


INTERVAL_LATTICES = [(spec.name, list(spec.rays), spec.rank) for spec in CORPUS] + [
    ("cube5", CUBE5, 5),
    ("cross5", CROSS5, 5),
]


@pytest.mark.parametrize(
    "name, rays, rank", INTERVAL_LATTICES, ids=[c[0] for c in INTERVAL_LATTICES]
)
def test_intervals_match_the_ray_set_scan(name, rays, rank):
    # the reference reads the order off the ray sets and scans every face
    lat = face_lattice(rays, rank)
    ray_sets = [f.rays for f in lat.faces]
    for lo in range(len(ray_sets)):
        for hi in range(len(ray_sets)):
            between = [
                f
                for f, z in enumerate(ray_sets)
                if f not in (lo, hi) and ray_sets[lo] < z < ray_sets[hi]
            ]
            assert lat.strictly_between(lo, hi) == between
            assert lat.leq(lo, hi) == (ray_sets[lo] <= ray_sets[hi])


def test_rank_zero_lattice():
    lat = face_lattice([], rank=0)
    assert len(lat.faces) == 1
    assert lat.zero_id == lat.top_id == 0


@pytest.mark.parametrize(
    "entry", [1.5, Fraction(3, 2), True], ids=["float", "fraction", "bool"]
)
def test_face_lattice_rejects_ray_entries_that_are_not_ints(entry):
    # each would otherwise be truncated to 1, giving the orthant
    with pytest.raises(ValueError, match="not an int"):
        face_lattice([(entry, 0), (0, 1)])


@pytest.mark.parametrize(
    "rays, rank", [([(1, 0), (0, 1, 0)], None), ([(1, 0), (0, 1)], 3)], ids=["mixed", "short"]
)
def test_face_lattice_rejects_a_ray_of_the_wrong_length(rays, rank):
    with pytest.raises(ValueError, match="ray length does not match the ambient rank"):
        face_lattice(rays, rank=rank)


def test_meet_is_ray_intersection():
    lat = face_lattice(CUBE)
    for a in lat.faces:
        for b in lat.faces:
            m = lat.meet(a.id, b.id)
            assert lat.faces[m].rays == (a.rays & b.rays)


def test_pick_degree_orthant_ray():
    lat = face_lattice(ORTHANT3)
    fid = face_id(lat, {0})
    assert pick_degree(lat, fid) == (0, 1, 1)


def test_pick_degree_sigma_is_zero():
    lat = face_lattice(ORTHANT3)
    assert pick_degree(lat, lat.top_id) == (0, 0, 0)


def test_pick_degree_square_cone_two_face():
    lat = face_lattice(SQUARE)
    fid = face_id(lat, {0, 1})  # spanned by (0,0,1) and (1,0,1)
    u = pick_degree(lat, fid)
    assert u == (0, 1, 0)
    assert degree_face(lat, u) == fid


def test_pick_degree_validates_on_all_faces():
    for rays in (ORTHANT3, SQUARE, CUBE, OCTAHEDRON):
        lat = face_lattice(rays)
        for f in lat.faces:
            u = pick_degree(lat, f.id)
            for i, r in enumerate(lat.rays):
                if i in f.rays:
                    assert dot(u, r) == 0
                else:
                    assert dot(u, r) > 0
            second = second_degree(lat, u)
            if f.id != lat.top_id:
                assert second is not None
                assert second != u
                assert degree_face(lat, second) == f.id


def _scanned_face(lat, u):
    """The face whose ray set is u's zero set, by a scan of every face."""
    zero = frozenset(i for i, r in enumerate(lat.rays) if dot(u, r) == 0)
    (fid,) = [f.id for f in lat.faces if f.rays == zero]
    return fid


@pytest.mark.parametrize("spec", CORPUS, ids=lambda s: s.name)
def test_degree_face_matches_a_scan_of_the_faces(spec):
    lat = spec.lattice()
    rng = random.Random(spec.name)
    gens = lat.dual_generators
    for _ in range(40):
        # a nonnegative combination of the dual generators lies in the dual cone
        coefficients = rng.choices(range(3), k=len(gens))
        u = tuple(sum(c * g[j] for c, g in zip(coefficients, gens)) for j in range(lat.rank))
        assert degree_face(lat, u) == _scanned_face(lat, u)
        # any integer vector: in the dual cone or not
        v = tuple(rng.randint(-3, 3) for _ in range(lat.rank))
        if min((dot(v, r) for r in lat.rays), default=0) < 0:
            with pytest.raises(DegreeMismatch):
                degree_face(lat, v)
        else:
            assert degree_face(lat, v) == _scanned_face(lat, v)
    with pytest.raises(DegreeMismatch):
        degree_face(lat, (0,) * (lat.rank + 1))
    for g in gens:
        # -g pairs to zero or less with every ray, and not to zero with all
        with pytest.raises(DegreeMismatch):
            degree_face(lat, tuple(-x for x in g))
    for f in lat.faces:
        u = pick_degree(lat, f.id)
        assert degree_face(lat, u) == f.id
        second = second_degree(lat, u)
        if f.id == lat.top_id:
            assert second is None
        else:
            assert second != u and degree_face(lat, second) == f.id
