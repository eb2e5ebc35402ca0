import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest

from icstalks import linalg, subdivision
from icstalks.cones import dot, face_lattice, vector_sum
from icstalks.corpus import CORPUS, polygon_cone
from icstalks.decomposition import solve_decomposition
from icstalks.errors import InvariantViolation, NotSimplicialResult
from icstalks.subdivision import (
    SubdivisionMap,
    _chain_subdivision,
    barycentric_subdivision,
    chain_count_oracle,
    interior_ray_subdivision,
    multiplicity_table,
    validate_subdivision,
)
from test_cones import _sheared_and_permuted

SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
TRIANGLE = [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
CUBE = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
CUBE5 = [(x, y, z, w, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1) for w in (0, 1)]
SIMPLEX5 = [(0, 0, 0, 0, 1)] + [tuple(int(i == j) for j in range(4)) + (1,) for i in range(4)]
CROSS5 = [tuple(s * (i == j) for j in range(4)) + (1,) for i in range(4) for s in (1, -1)]
# the corpus cones and the rank-5 cones, with their interior-ray maximal cone
# counts: a d-face with d >= 3 contributes the counts of its facets, a 2-face 1
FAN_CONES = [(spec.name, list(spec.rays), spec.rank) for spec in CORPUS] + [
    ("simplex5", SIMPLEX5, 5),
    ("cube5", CUBE5, 5),
    ("cross5", CROSS5, 5),
]
RANK5 = [("simplex5", SIMPLEX5, 60), ("cube5", CUBE5, 192), ("cross5", CROSS5, 192)]


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


def test_multiplicity_table_rejects_fan_missing_a_maximal_cone():
    lat = face_lattice(CUBE)
    sub = barycentric_subdivision(lat)
    sub.cones.discard(sub.maximal[0])
    with pytest.raises(InvariantViolation) as info:
        multiplicity_table(sub)
    assert info.value.face == lat.top_id


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


def _enumerated_chain_counts(lat, lo, hi):
    """Chains lo < v_1 < ... < v_l = hi counted by l, each chain listed once.

    Order is ray-set containment, not the lattice's ``down``/``up`` sets.
    """
    rays = [f.rays for f in lat.faces]
    if not rays[lo] <= rays[hi]:
        return ()
    counts = [0] * (lat.dim(hi) - lat.dim(lo) + 1)
    if lo == hi:
        counts[0] = 1
        return tuple(counts)
    between = [f for f in range(len(rays)) if rays[lo] < rays[f]]
    chains = [(hi, 1)]  # (v_1, l) of every chain found so far
    while chains:
        bottom, l = chains.pop()
        counts[l] += 1
        chains.extend((f, l + 1) for f in between if rays[f] < rays[bottom])
    return tuple(counts)


@pytest.mark.parametrize(
    "name, rays, rank",
    FAN_CONES[:-3] + [("cube5", CUBE5, 5)],
    ids=[name for name, _, _ in FAN_CONES[:-3]] + ["cube5"],
)
def test_chain_counts_match_enumerated_chains(name, rays, rank):
    lat = face_lattice(rays, rank=rank)
    pairs = [(lo, hi) for lo in range(len(lat.faces)) for hi in range(len(lat.faces))]
    # a seeded order, so the first query of each lo asks for an arbitrary hi
    random.Random(name).shuffle(pairs)
    for lo, hi in pairs:
        expected = _enumerated_chain_counts(lat, lo, hi)
        assert lat.chain_counts(lo, hi) == expected, (lo, hi)
        # incomparable pairs and out-of-range lengths count 0
        assert (expected == ()) == (not lat.leq(lo, hi))
        for length in range(-1, rank + 2):
            in_range = 0 <= length < len(expected)
            assert lat.chain_count(lo, hi, length) == (expected[length] if in_range else 0)


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


def _fan(lattice, added_rays, maximal):
    """A fan over ``lattice`` from extra (ray, face id) pairs and maximal cones."""
    rays = list(lattice.rays) + [r for r, _ in added_rays]
    ray_face = [lattice.id_of_rayset(frozenset((i,))) for i in range(len(lattice.rays))]
    return SubdivisionMap(
        lattice=lattice,
        rays=rays,
        ray_face=ray_face + [f for _, f in added_rays],
        maximal=[frozenset(c) for c in maximal],
    )


def test_validate_rejects_fold():
    # (1,1) and (3,1) subdivide the quadrant, but the cones {e1,(1,1)} and
    # {(1,1),(3,1)} lie on the same side of their common ray
    lat = face_lattice([(1, 0), (0, 1)])
    fan = _fan(lat, [((1, 1), lat.top_id), ((3, 1), lat.top_id)], [{0, 2}, {2, 3}, {3, 1}])
    with pytest.raises(InvariantViolation) as info:
        validate_subdivision(fan)
    assert info.value.prop == "orientation"


def test_validate_rejects_double_cover():
    # the star of the centre (1,1,1) of the triangle cone, winding around it
    # twice: the corner rays come back under the new indices 4, 5, 6
    lat = face_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    corner = [lat.id_of_rayset(frozenset((i,))) for i in range(3)]
    added = [((1, 1, 1), lat.top_id)] + [(lat.rays[i], corner[i]) for i in range(3)]
    ring = [0, 1, 2, 4, 5, 6]
    maximal = [{ring[k], ring[(k + 1) % 6], 3} for k in range(6)]
    fan = _fan(lat, added, maximal)
    with pytest.raises(InvariantViolation) as info:
        validate_subdivision(fan)
    assert info.value.prop == "degree"


@pytest.mark.parametrize("name, rays, count", RANK5, ids=[name for name, _, _ in RANK5])
def test_interior_ray_rank5_matches_barycentric_stalks(name, rays, count):
    lat = face_lattice(rays)
    barycentric = barycentric_subdivision(lat)
    interior = interior_ray_subdivision(lat)
    assert len(interior.maximal) == count
    validate_subdivision(barycentric)
    validate_subdivision(interior)
    a = solve_decomposition(lat, multiplicity_table(barycentric))
    b = solve_decomposition(lat, multiplicity_table(interior))
    assert a.Htilde == b.Htilde


def test_fan_cones_are_the_faces_of_its_maximal_cones():
    lat = face_lattice(SQUARE)
    fan = _fan(lat, [((1, 1, 2), lat.top_id)], [{0, 1, 4}, {1, 3, 4}, {3, 2, 4}, {2, 0, 4}])
    assert len(fan.cones) == 1 + 5 + 8 + 4
    assert fan.pushforward[frozenset()] == lat.zero_id
    assert fan.pushforward[frozenset((0, 4))] == lat.top_id
    assert fan.pushforward[frozenset((0, 1))] == lat.id_of_rayset(frozenset((0, 1)))
    validate_subdivision(fan)


@pytest.mark.parametrize("name, rays, rank", FAN_CONES, ids=[name for name, _, _ in FAN_CONES])
def test_pushforward_is_the_face_of_the_ray_sum(name, rays, rank):
    # the geometric route: the sum of a cone's rays lies in the relative
    # interior of its minimal containing face
    lat = face_lattice(rays, rank=rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        for cone, tau in sub.pushforward.items():
            assert tau == lat.face_of_point(vector_sum([sub.rays[i] for i in cone], rank))


@pytest.mark.parametrize("spec", CORPUS, ids=[spec.name for spec in CORPUS])
def test_join_is_the_least_upper_bound(spec):
    lat = spec.lattice()
    ids = [f.id for f in lat.faces]
    for a in ids:
        for b in ids:
            j = lat.join(a, b)
            uppers = [f for f in ids if lat.leq(a, f) and lat.leq(b, f)]
            assert j in uppers
            assert all(lat.leq(j, f) for f in uppers)


def test_validate_rejects_a_flat_maximal_cone():
    # the ray (1,1,0) lies on the 2-face of e1 and e2, so {e1, e2, (1,1,0)}
    # spans only a plane
    lat = face_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    edge = lat.id_of_rayset(frozenset((0, 1)))
    fan = _fan(lat, [((1, 1, 0), edge)], [{0, 1, 3}, {0, 2, 3}, {1, 2, 3}])
    with pytest.raises(InvariantViolation) as info:
        validate_subdivision(fan)
    assert info.value.prop == "simplicial"


def test_fan_rejects_a_wrong_ray_tag():
    # (1,1) is interior to the quadrant, not to the zero face
    lat = face_lattice([(1, 0), (0, 1)])
    with pytest.raises(InvariantViolation) as info:
        _fan(lat, [((1, 1), lat.zero_id)], [{0, 2}, {2, 1}])
    assert info.value.prop == "ray tag"


def test_validate_rejects_a_pushforward_leaving_its_face():
    lat = face_lattice(SQUARE)
    sub = barycentric_subdivision(lat)
    centre = frozenset((len(sub.rays) - 1,))
    sub.pushforward[centre] = lat.faces_of_dim(1)[0]
    with pytest.raises(InvariantViolation) as info:
        validate_subdivision(sub)
    assert info.value.prop == "pushforward"


def _reference_cones(sub):
    """Cones and pushforward by definition: every subset of every maximal
    cone, each over the join of all its ray tags."""
    lat = sub.lattice
    faces = (combinations(c, k) for c in sub.maximal for k in range(len(c) + 1))
    cones = {frozenset(f) for fs in faces for f in fs}
    pushforward = {
        c: reduce(lat.join, (sub.ray_face[i] for i in c), lat.zero_id) for c in cones
    }
    return cones, pushforward


def _reference_maximal(cones):
    """The cones that are no facet of another cone, sorted."""
    covered = {c - {i} for c in cones for i in c}
    return sorted(cones - covered, key=sorted)


@pytest.mark.parametrize("name, rays, rank", FAN_CONES, ids=[name for name, _, _ in FAN_CONES])
def test_fan_walk_matches_subset_enumeration(name, rays, rank):
    lat = face_lattice(rays, rank=rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        cones, pushforward = _reference_cones(sub)
        assert sub.cones == cones
        assert sub.pushforward == pushforward
        assert sub.maximal == _reference_maximal(cones)


def test_fan_walk_takes_mixed_size_maximal_cones():
    # a 3-cone, a 2-cone inside none of the others, a lone ray and a 2-cone
    # listed though it is a face of the 3-cone: the walk starts each at its
    # own size and reaches every cone once
    lat = face_lattice(SQUARE)
    fan = _fan(lat, [((1, 1, 2), lat.top_id)], [{0, 1, 4}, {2, 4}, {3}, {1, 4}])
    cones, pushforward = _reference_cones(fan)
    assert fan.cones == cones
    assert fan.pushforward == pushforward
    assert len(cones) == 1 + 5 + 4 + 1


def test_fan_walk_joins_once_per_nonzero_cone(monkeypatch):
    for rays in (SQUARE, CUBE, CUBE5):
        lat = face_lattice(rays)
        calls = []
        join = lat.join

        def counting(a, b):
            calls.append((a, b))
            return join(a, b)

        monkeypatch.setattr(lat, "join", counting)
        for build in (barycentric_subdivision, interior_ray_subdivision):
            calls.clear()
            sub = build(lat)
            assert len(calls) == len(sub.cones) - 1


def test_chain_subdivision_rejects_a_cone_with_too_many_rays():
    # with nothing centred the square cone itself is a chain cone of 4 rays
    with pytest.raises(NotSimplicialResult):
        _chain_subdivision(face_lattice(SQUARE), [], "x")


def test_chain_subdivision_rejects_a_long_cone_before_building_the_fan(monkeypatch):
    # the fan's walk would visit all 2^16 subsets of the 16-ray chain cone
    def refuse(*args, **kwargs):
        pytest.fail("SubdivisionMap built for a chain cone with more than n rays")

    monkeypatch.setattr(subdivision, "SubdivisionMap", refuse)
    with pytest.raises(NotSimplicialResult, match=r"x maximal cone \[0, 1, .*, 15\] is not"):
        _chain_subdivision(polygon_cone(16).lattice(), [], "x")


def test_chain_subdivision_rejects_a_cone_in_no_full_cone():
    # centring only the edge {0, 1} of the simplicial 3-cone leaves the chain
    # cone {0, centre} in no 3-ray chain cone
    lat = face_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    edge = lat.id_of_rayset(frozenset((0, 1)))
    with pytest.raises(NotSimplicialResult, match=r"cone \[0, 3\]"):
        _chain_subdivision(lat, [edge], "x")


def dense_gauss_det(m):
    """Textbook Gaussian elimination on dense Fraction rows, with row swaps."""
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _determinant_sign(sub, cone):
    det = dense_gauss_det([sub.rays[i] for i in sorted(cone)])
    return (det > 0) - (det < 0)


@pytest.mark.parametrize("name, rays, rank", FAN_CONES, ids=[name for name, _, _ in FAN_CONES])
def test_orientation_is_the_determinant_sign(name, rays, rank):
    lat = face_lattice(rays, rank=rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        assert sub.orientation.keys() == set(sub.maximal)
        for c in sub.maximal:
            assert sub.orientation[c] == _determinant_sign(sub, c) != 0


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name, rays, rank", FAN_CONES, ids=[name for name, _, _ in FAN_CONES])
def test_orientation_is_the_determinant_sign_after_a_shear(name, rays, rank, seed):
    # new coordinates and a new ray order change every key of the prefix walk
    rays, _ = _sheared_and_permuted(rays, seed)
    lat = face_lattice(rays, rank=rank)
    for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
        for c in sub.maximal:
            assert sub.orientation[c] == _determinant_sign(sub, c) != 0


def test_subdivision_map_takes_no_determinant(monkeypatch):
    fans = []
    for rays in (SQUARE, CUBE, CUBE5, CROSS5):
        lat = face_lattice(rays)
        fans += [barycentric_subdivision(lat), interior_ray_subdivision(lat)]
    calls = []
    eliminate = linalg._eliminate

    def counted(rows):
        calls.append(rows)
        return eliminate(rows)

    # every sparse rank and nullspace goes through ``linalg._eliminate``
    monkeypatch.setattr(linalg, "_eliminate", counted)
    for fan in fans:
        again = SubdivisionMap(fan.lattice, fan.rays, fan.ray_face, fan.maximal)
        assert again.orientation == fan.orientation
    assert calls == []


def test_orientation_is_zero_on_degenerate_maximal_cones():
    # a flat 3-ray cone, a 4-ray cone in rank 3, and short cones among full ones
    orthant = face_lattice([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    edge = orthant.id_of_rayset(frozenset((0, 1)))
    flat = _fan(orthant, [((1, 1, 0), edge)], [{0, 1, 3}, {0, 2, 3}, {1, 2, 3}])
    square = face_lattice(SQUARE)
    wide = _fan(square, [], [{0, 1, 2, 3}])
    mixed = _fan(square, [((1, 1, 2), square.top_id)], [{0, 1, 4}, {2, 4}, {3}, {1, 4}])
    assert flat.orientation[frozenset((0, 1, 3))] == 0
    assert flat.orientation[frozenset((0, 2, 3))] != 0
    assert wide.orientation == {frozenset((0, 1, 2, 3)): 0}
    assert [mixed.orientation[c] for c in mixed.maximal[1:]] == [0, 0, 0]
    assert mixed.orientation[mixed.maximal[0]] == _determinant_sign(mixed, mixed.maximal[0]) != 0
    for fan in (flat, wide, mixed):
        with pytest.raises(InvariantViolation) as info:
            validate_subdivision(fan)
        assert info.value.prop == "simplicial"


def test_validate_takes_no_determinant_of_a_maximal_cone(monkeypatch):
    fans = []
    for rays in (SQUARE, CUBE, CROSS5):
        lat = face_lattice(rays)
        fans += [barycentric_subdivision(lat), interior_ray_subdivision(lat)]
    calls = []
    real = subdivision.determinants

    def recording(vectors, keys):
        keys = list(keys)
        calls.append([sorted(tuple(vectors[i]) for i in key) for key in keys])
        return real(vectors, keys)

    monkeypatch.setattr(subdivision, "determinants", recording)
    for sub in fans:
        calls.clear()
        validate_subdivision(sub)
        own = [sorted(tuple(sub.rays[i]) for i in c) for c in sub.maximal]
        # one walk over every (cone, replaced row) key, none a cone's own rows
        assert len(calls) == 1 and calls[0]
        assert not any(rows in own for rows in calls[0])
