import inspect
import itertools
import random
import sys
from math import comb

import pytest

from icstalks import shelling
from icstalks.cones import face_lattice
from icstalks.corpus import CORPUS
from icstalks.errors import NoShellingFound, NotAShelling, NotPure, ShellingSearchFailed
from icstalks.shelling import (
    ShellingOrder,
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
SIMPLEX5 = [(0, 0, 0, 0, 1)] + [
    tuple(1 if i == j else 0 for j in range(4)) + (1,) for i in range(4)
]


def fs(*vals):
    return frozenset(vals)


def test_complex_from_square_barycentric():
    lat = face_lattice(SQUARE)
    cx = complex_from_fan(barycentric_subdivision(lat))
    assert len(cx.facets) == 8
    assert {len(f) for f in cx.facets} == {3}
    assert len(frozenset().union(*cx.facets)) == 9


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


@pytest.mark.parametrize(
    "order",
    [
        [fs(0, 1), fs(1, 2)],
        [fs(0, 1), fs(1, 2), fs(2, 3), fs(3, 4)],
        [fs(0, 1), fs(1, 2), fs(1, 2)],
    ],
    ids=["missing", "extra", "repeated"],
)
def test_verify_shelling_rejects_an_order_that_is_not_a_permutation(order):
    cx = SimplicialComplex(facets=[fs(0, 1), fs(1, 2), fs(2, 3)])
    with pytest.raises(ValueError, match="order is not a permutation of the facets"):
        verify_shelling(cx, order)


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


def test_lexicographic_rejects_a_fan_that_is_not_barycentric():
    # the cube's edges are simplicial 2-faces: the interior-ray fan adds no ray
    lat = face_lattice(CUBE)
    first = min(f.id for f in lat.faces if f.dim == 2)
    with pytest.raises(ValueError, match=f"face {first} has no ray"):
        lexicographic_shelling(lat, interior_ray_subdivision(lat))


def _subsets(facet):
    items = sorted(facet)
    for size in range(len(items) + 1):
        for sub in itertools.combinations(items, size):
            yield frozenset(sub)


def _reference_restriction(facet, earlier):
    """The step test by definition: a face is old when it lies in an earlier facet."""
    restriction = frozenset(v for v in facet if any(facet - {v} <= e for e in earlier))
    if not restriction:
        return None
    for s in _subsets(facet):
        if any(s <= e for e in earlier) == (restriction <= s):
            return None
    return restriction


def _reference_verify(order):
    """(index of the first failing step, None) or (None, (types, restrictions))."""
    types, restriction = [0], [frozenset()]
    for j in range(1, len(order)):
        r = _reference_restriction(order[j], order[:j])
        if r is None:
            return j, None
        types.append(len(r))
        restriction.append(r)
    return None, (types, restriction)


def test_restriction_faces_describe_new_faces():
    # the faces of each facet not seen earlier are exactly those containing
    # the restriction face
    for rays in (SQUARE, CUBE, SIMPLEX5):
        order = lexicographic_shelling(face_lattice(rays))
        for j, facet in enumerate(order.order):
            earlier = order.order[:j]
            for s in _subsets(facet):
                is_old = any(s <= e for e in earlier)
                contains_restriction = order.restriction[j] <= s
                assert is_old == (not contains_restriction)


def test_restriction_face_must_start_an_interval():
    # {0, 1, 2} meets the earlier facets in the edge {0, 1}, so R = {2}, but
    # also in the vertex {2}, a face containing R that is already old
    facets = [fs(0, 1, 3), fs(1, 3, 4), fs(2, 3, 4), fs(0, 1, 2)]
    assert _reference_verify(facets) == (3, None)
    with pytest.raises(NotAShelling) as err:
        verify_shelling(SimplicialComplex(facets=facets), facets)
    assert err.value.index == 3


@pytest.mark.parametrize("rays", [SQUARE, CUBE], ids=["square", "cube"])
def test_verify_shelling_matches_quadratic_reference(rays):
    lat = face_lattice(rays)
    cx = complex_from_fan(barycentric_subdivision(lat))
    shelling = lexicographic_shelling(lat).order
    rng = random.Random(11)
    verdicts = set()
    for trial in range(100):
        if trial % 2:
            order = list(cx.facets)
            rng.shuffle(order)
        else:
            # a shelling with one transposition: often still a shelling
            order = list(shelling)
            i, j = rng.sample(range(len(order)), 2)
            order[i], order[j] = order[j], order[i]
        index, expected = _reference_verify(order)
        if index is None:
            found = verify_shelling(cx, order)
            assert (found.types, found.restriction) == expected
        else:
            with pytest.raises(NotAShelling) as err:
                verify_shelling(cx, order)
            assert err.value.index == index
        verdicts.add(index is None)
    assert verdicts == {True, False}


def _random_pure_complex(rng):
    d = rng.randint(2, 4)
    candidates = [fs(*c) for c in itertools.combinations(range(rng.randint(d + 1, 8)), d)]
    return rng.sample(candidates, rng.randint(2, min(10, len(candidates))))


def test_step_test_matches_subset_reference_on_random_complexes():
    # random pure complexes of dimension 1..3 on up to 8 vertices, in random
    # orders and, when the complex shells, in a found shelling and in that
    # shelling with two facets swapped
    rng = random.Random(19)
    verdicts = set()
    for _ in range(150):
        cx = SimplicialComplex(facets=_random_pure_complex(rng))
        orders = []
        for _ in range(3):
            order = list(cx.facets)
            rng.shuffle(order)
            orders.append(order)
        try:
            shelled = find_shelling(cx).order
        except NoShellingFound:
            shelled = None
        if shelled is not None:
            swapped = list(shelled)
            i, j = rng.sample(range(len(swapped)), 2)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            orders += [shelled, swapped]
        for order in orders:
            index, expected = _reference_verify(order)
            if index is None:
                found = verify_shelling(cx, order)
                assert (found.types, found.restriction) == expected
            else:
                with pytest.raises(NotAShelling) as err:
                    verify_shelling(cx, order)
                assert err.value.index == index
            verdicts.add(index is None)
    assert verdicts == {True, False}


def test_verify_shelling_adds_each_face_once(monkeypatch):
    for rays in (SQUARE, CUBE, SIMPLEX5):
        lat = face_lattice(rays)
        sub = barycentric_subdivision(lat)
        order = lexicographic_shelling(lat, sub).order
        made = []
        faces = shelling._faces

        def counting(vertices):
            out = faces(vertices)
            made.extend(out)
            return out

        # the first facet's faces, then at each step the subsets of facet - R,
        # one for each new face R | rest: every face of the complex once
        monkeypatch.setattr(shelling, "_faces", counting)
        verify_shelling(complex_from_fan(sub), order)
        monkeypatch.setattr(shelling, "_faces", faces)
        assert len(made) == len(sub.cones)


def test_find_shelling_returns_the_first_shelling_permutation():
    # the search extends prefixes in facet order, so it must return the first
    # permutation of the sorted facets that the reference accepts
    rng = random.Random(5)
    triangles = [fs(*t) for t in itertools.combinations(range(6), 3)]
    complexes = [rng.sample(triangles, rng.randint(3, 6)) for _ in range(40)]
    # here the prefix [0, 1, 2], [0, 2, 4], [0, 3, 4], [0, 3, 5] cannot be
    # extended, so the search must undo it
    backtracks = [
        (0, 1, 2), (0, 2, 4), (0, 3, 4), (0, 3, 5), (1, 2, 5),
        (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 4, 5),
    ]
    complexes.append([fs(*t) for t in backtracks])
    outcomes = set()
    for facets in complexes:
        cx = SimplicialComplex(facets=facets)
        facets = sorted(cx.facets, key=sorted)
        first = next(
            (list(p) for p in itertools.permutations(facets) if _reference_verify(p)[0] is None),
            None,
        )
        if first is None:
            with pytest.raises(NoShellingFound):
                find_shelling(cx)
        else:
            assert find_shelling(cx).order == first
        outcomes.add(first is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("spec", CORPUS, ids=[spec.name for spec in CORPUS])
def test_cover_adjacency_matches_scans(spec):
    lat = spec.lattice()
    for f in lat.faces:
        assert lat.facets_of(f.id) == sorted(lo for lo, hi in lat.covers if hi == f.id)
    for lo in lat.faces:
        for hi in lat.faces:
            if hi.dim == lo.dim + 2 and lat.leq(lo.id, hi.id):
                middles = lat.above[lo.id] & lat.below[hi.id]
                assert sorted(middles) == lat.strictly_between(lo.id, hi.id)
                assert len(middles) == 2


CUBE5 = [(x, y, z, w, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1) for w in (0, 1)]
CROSS5 = [tuple(s * (i == j) for j in range(4)) + (1,) for i in range(4) for s in (1, -1)]
# the rank-0 cone returns before the walk, having no chain of nonzero faces
LEX_CONES = [(spec.name, list(spec.rays), spec.rank) for spec in CORPUS if spec.rank] + [
    ("simplex5", SIMPLEX5, 5),
    ("cube5", CUBE5, 5),
    ("cross5", CROSS5, 5),
]


def _reference_lexicographic(lat):
    """The lexicographic order by definition: every maximal chain, found in
    face-id order, sorted by the positions of its faces in the facet orders."""
    boundaries = shelling._BoundaryShellings(lat)
    memo = {}

    def facet_order(chain):
        if chain not in memo:
            prefix = frozenset()
            if len(chain) > 1:
                parent = facet_order(chain[:-1])
                pos = parent.index(chain[-1])
                if pos:
                    prefix = boundaries._meets_restriction(chain[-1], parent[:pos])
            memo[chain] = [f for f, _ in boundaries.shelling_with_prefix(chain[-1], prefix)]
        return memo[chain]

    def chains(chain):
        if lat.dim(chain[-1]) == 1:
            yield chain
            return
        for lo in lat.facets_of(chain[-1]):
            yield from chains(chain + (lo,))

    def key_of(chain):
        return tuple(
            facet_order(chain[: i + 1]).index(chain[i + 1]) for i in range(len(chain) - 1)
        )

    return sorted(chains((lat.top_id,)), key=key_of)


@pytest.mark.parametrize("name, rays, rank", LEX_CONES, ids=[name for name, _, _ in LEX_CONES])
def test_lexicographic_walk_is_the_sorted_order(name, rays, rank):
    lat = face_lattice(rays, rank=rank)
    sub = barycentric_subdivision(lat)
    face_ray = {fid: ri for ri, fid in enumerate(sub.ray_face)}
    order = [frozenset(face_ray[fid] for fid in chain) for chain in _reference_lexicographic(lat)]
    expected = verify_shelling(complex_from_fan(sub), order)
    found = lexicographic_shelling(lat, sub)
    assert found.order == expected.order
    assert found.types == expected.types
    assert found.restriction == expected.restriction


@pytest.mark.parametrize("name, rays, rank", LEX_CONES, ids=[name for name, _, _ in LEX_CONES])
def test_boundary_search_pairs_each_facet_with_its_own_prefix(monkeypatch, name, rays, rank):
    made = []

    class Recording(shelling._BoundaryShellings):
        def __init__(self, lattice):
            super().__init__(lattice)
            made.append(self)

    monkeypatch.setattr(shelling, "_BoundaryShellings", Recording)
    lat = face_lattice(rays, rank=rank)
    lexicographic_shelling(lat)
    (boundaries,) = made
    for (fid, prefix), found in boundaries._memo.items():
        if found is None:
            continue
        facets = [f for f, _ in found]
        assert sorted(facets) == lat.facets_of(fid)
        assert set(facets[: len(prefix)]) == prefix
        assert found[0][1] == frozenset()
        for i in range(1, len(found)):
            if lat.dim(fid) == 2:
                # a ray's boundary is empty, so a 2-face pairs its rays with no prefix
                assert found[i][1] == frozenset()
            else:
                assert found[i][1] == boundaries._meets_restriction(facets[i], facets[:i])


def test_lexicographic_walk_computes_no_prefix_itself(monkeypatch):
    depth = 0
    outside = []
    calls = []
    search = shelling._BoundaryShellings.shelling_with_prefix
    meets = shelling._BoundaryShellings._meets_restriction

    def counted_search(self, fid, prefix):
        nonlocal depth
        depth += 1
        try:
            return search(self, fid, prefix)
        finally:
            depth -= 1

    def watched_meets(self, new_facet, earlier):
        calls.append(new_facet)
        if depth == 0:
            outside.append(new_facet)
        return meets(self, new_facet, earlier)

    monkeypatch.setattr(shelling._BoundaryShellings, "shelling_with_prefix", counted_search)
    monkeypatch.setattr(shelling._BoundaryShellings, "_meets_restriction", watched_meets)
    for rays, rank in ((CUBE, 4), (CROSS5, 5)):
        lexicographic_shelling(face_lattice(rays, rank=rank))
    assert calls
    assert outside == []


def test_lexicographic_rejects_types_that_miscount_earlier_neighbours(monkeypatch):
    lat = face_lattice(CUBE)
    verify = shelling.verify_shelling
    size = len(lexicographic_shelling(lat).order)
    for k in (0, 1, size // 2, size - 1):

        def perturbed(complex, order):
            found = verify(complex, order)
            types = list(found.types)
            types[k] += 1
            return ShellingOrder(order=found.order, types=types, restriction=found.restriction)

        monkeypatch.setattr(shelling, "verify_shelling", perturbed)
        with pytest.raises(ShellingSearchFailed, match=f"type mismatch at facet {k}:"):
            lexicographic_shelling(lat)


@pytest.mark.parametrize("name, shelled", [("octahedron", 12), ("cube", 12)])
def test_boundary_search_rejects_and_backtracks_on_a_forced_prefix(name, shelled):
    # a pair of facets of sigma leads a boundary shelling exactly when the two
    # meet in a 2-face: a pair meeting in a ray or only in the zero face is
    # rejected at the second step, and the search backtracks to nothing
    lat = next(spec for spec in CORPUS if spec.name == name).lattice()
    top = lat.top_id
    facets = lat.facets_of(top)
    found = 0
    for a, b in itertools.combinations(facets, 2):
        order = shelling._BoundaryShellings(lat).shelling_with_prefix(top, fs(a, b))
        if lat.dim(lat.meet(a, b)) == 2:
            assert order is not None
            assert sorted(f for f, _ in order) == sorted(facets)
            assert {f for f, _ in order[:2]} == {a, b}
            found += 1
        else:
            assert order is None
    assert found == shelled


# a seeded random rank-4 cone, face counts (1, 10, 23, 15, 1), on which the
# boundary search takes a step it later undoes; the rays' order fixes the
# face ids, and with the rays sorted the same cone shells without backtracking
BACKTRACKING_CONE = [
    (1, -1, -3, 3), (2, 0, 0, 1), (-1, 0, 3, 2), (2, -3, 3, 3), (-2, -1, 1, 2),
    (-3, 0, 0, 2), (-3, 2, 1, 2), (-1, -3, 0, 3), (0, 1, 1, 1), (1, 0, 3, 2),
]


def test_boundary_search_backtracks_on_a_random_rank4_cone():
    lat = face_lattice(BACKTRACKING_CONE)
    assert [sum(f.dim == d for f in lat.faces) for d in range(5)] == [1, 10, 23, 15, 1]
    lines, start = inspect.getsourcelines(shelling._BoundaryShellings.shelling_with_prefix)
    (pop,) = [start + k for k, line in enumerate(lines) if line.strip() == "order.pop()"]
    source = shelling.lexicographic_shelling.__code__.co_filename
    popped = []

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno == pop:
            popped.append(frame.f_code.co_name)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == source else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        found = lexicographic_shelling(lat)
    finally:
        sys.settrace(previous)
    assert popped and set(popped) == {"extend"}
    # the type histogram of a shelling is the h-vector of the complex
    n = lat.rank
    f = [len(cones) for _, cones in sorted(barycentric_subdivision(lat).cones_by_dim().items())]
    h = [sum((-1) ** (j - i) * comb(n - i, j - i) * f[i] for i in range(j + 1)) for j in range(n + 1)]
    assert h == [1, 45, 45, 1, 0]
    assert [found.type_histogram().get(j, 0) for j in range(n + 1)] == h
