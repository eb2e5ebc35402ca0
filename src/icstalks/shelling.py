"""Shellability of simplicial complexes and of barycentric boundary complexes.

The public operations work on abstract simplicial complexes (facets are
vertex sets; coordinates are never consulted):

  * ``verify_shelling`` checks a facet order by the unique-minimal-new-face
    characterization: at each step the faces not seen earlier must form an
    interval [R, F] (Ziegler, *Lectures on Polytopes*, sec. 8.1).  The
    restriction face R gives the facet's type |R|.  One set holds every
    face of the earlier facets; it is closed under subsets, so a step holds
    exactly when R = {v : F - v is old} is nonempty and not old itself.
    F facets of size d cost O(F * d) set lookups plus one insertion per face
    of the complex, not a rescan of the earlier facets.
  * ``find_shelling`` searches for a shelling order by depth-first extension
    with backtracking, memoizing dead prefix sets (step validity depends only
    on the set of earlier facets, not their order).  It keeps the face set of
    its current prefix, adding a facet's new faces on extension and removing
    them on backtrack, so the set stays closed under subsets.
  * ``lexicographic_shelling`` builds the recursive lexicographic order on
    the maximal chains of a face lattice, the barycentric analogue of a line
    shelling: chains are compared at the largest level where they differ,
    using shellings of polytope boundary complexes keyed by (face, prefix);
    the search that shells a face's boundary hands each facet the prefix
    that leads the facet's own boundary shelling.

The polytope boundary complexes needed by the lexicographic construction are
not simplicial (e.g. the square facets of a cube), so a small recursive
verifier/searcher for polytopal shellings over the face lattice is included;
its complexes never exceed a handful of facets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cones import FaceLattice
from .errors import NoShellingFound, NotAShelling, NotPure, ShellingSearchFailed
from .subdivision import SubdivisionMap, barycentric_subdivision


@dataclass
class SimplicialComplex:
    """A pure abstract simplicial complex given by its facets."""

    facets: list[frozenset[int]]

    def __post_init__(self):
        if not self.facets:
            raise ValueError("a complex needs at least one facet")
        sizes = {len(f) for f in self.facets}
        if len(sizes) != 1:
            raise NotPure(f"facet sizes {sorted(sizes)} are mixed")
        if len(set(self.facets)) != len(self.facets):
            raise ValueError("duplicate facets")


@dataclass
class ShellingOrder:
    """A verified shelling: facet order, per-facet types, restriction faces."""

    order: list[frozenset[int]]
    types: list[int]
    restriction: list[frozenset[int]]

    def type_histogram(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for t in self.types:
            out[t] = out.get(t, 0) + 1
        return out

    def to_json_obj(self) -> dict:
        return {
            "order": [sorted(f) for f in self.order],
            "types": list(self.types),
            "restriction_faces": [sorted(r) for r in self.restriction],
            "type_histogram": {str(k): v for k, v in sorted(self.type_histogram().items())},
        }


def complex_from_fan(sub: SubdivisionMap) -> SimplicialComplex:
    """Vertex sets of the maximal cones, with the cone point dropped."""
    return SimplicialComplex(facets=sorted(sub.maximal, key=sorted))


def _faces(vertices: frozenset[int]) -> list[frozenset[int]]:
    """Every subset of ``vertices``, the empty face included."""
    items = sorted(vertices)
    return [
        frozenset(subset)
        for size in range(len(items) + 1)
        for subset in itertools.combinations(items, size)
    ]


def _step_restriction(
    facet: frozenset[int], old: set[frozenset[int]]
) -> frozenset[int] | None:
    """The unique minimal new face at this step, or None if the step fails.

    ``old`` holds every face of the earlier facets, so a subset of ``facet``
    lies in an earlier facet exactly when it is in ``old``.  The step is valid
    when the old subsets are exactly those missing some vertex of the
    candidate restriction face R = {v : facet - v is old}, R nonempty.
    Since ``old`` is closed under subsets, that holds exactly when R is not
    old: a subset missing a vertex v of R lies in the old facet - v, and a
    subset containing R is old only if R is.  So the test makes d + 1 set
    lookups for a facet of size d.
    """
    restriction = frozenset(v for v in facet if facet - {v} in old)
    if not restriction or restriction in old:
        return None
    return restriction


def _new_faces(facet: frozenset[int], restriction: frozenset[int]) -> list[frozenset[int]]:
    """The faces a valid step adds: the subsets of ``facet`` containing R."""
    return [restriction | rest for rest in _faces(facet - restriction)]


def verify_shelling(
    complex: SimplicialComplex, order: list[frozenset[int]]
) -> ShellingOrder:
    """Check a facet order; raises NotAShelling at the first violating index.

    One set ``old`` holds every face of the facets checked so far, closed
    under subsets, and each step adds the faces the new facet brings, so F
    facets of size d cost O(F * d) lookups plus one insertion per face.
    """
    if len(order) != len(complex.facets) or set(order) != set(complex.facets):
        raise ValueError("order is not a permutation of the facets")
    types = [0]
    restriction: list[frozenset[int]] = [frozenset()]
    old = set(_faces(order[0]))
    for j in range(1, len(order)):
        r = _step_restriction(order[j], old)
        if r is None:
            raise NotAShelling(j)
        types.append(len(r))
        restriction.append(r)
        old.update(_new_faces(order[j], r))
    return ShellingOrder(order=list(order), types=types, restriction=restriction)


def find_shelling(complex: SimplicialComplex) -> ShellingOrder:
    """Depth-first search for a shelling order; raises NoShellingFound."""
    facets = sorted(complex.facets, key=sorted)
    n = len(facets)
    dead: set[frozenset[int]] = set()
    old: set[frozenset[int]] = set()  # every face of the facets in the prefix

    def extend(order: list[int], used: frozenset[int]) -> list[int] | None:
        if len(order) == n:
            return list(order)
        if used in dead:
            return None
        for i in range(n):
            if i in used:
                continue
            r = _step_restriction(facets[i], old) if order else frozenset()
            if r is None:
                continue
            new = _new_faces(facets[i], r)
            old.update(new)
            order.append(i)
            found = extend(order, used | {i})
            if found is not None:
                return found
            order.pop()
            old.difference_update(new)
        dead.add(used)
        return None

    found = extend([], frozenset())
    if found is None:
        raise NoShellingFound(f"no shelling exists for {n} facets")
    return verify_shelling(complex, [facets[i] for i in found])


# ---------------------------------------------------------------------------
# Polytopal shellings of boundary complexes of lattice faces (internal).
# ---------------------------------------------------------------------------


# a face's facets in boundary-shelling order, each with its own prefix
_FacetOrder = tuple[tuple[int, frozenset[int]], ...]


class _BoundaryShellings:
    """Shellings of C(boundary of a face), with a prescribed leading set.

    Facets of the boundary complex of a face F are the lattice faces covered
    by F.  A shelling step is valid when the intersection with the earlier
    facets is a nonempty union of codimension-1 faces that itself starts some
    shelling of the new facet's boundary (checked recursively; dimension-0
    boundaries accept every order).  That intersection, the facet's prefix,
    is returned with the facet, and orders are memoized by (face, prefix).
    """

    def __init__(self, lattice: FaceLattice):
        self.lattice = lattice
        self._memo: dict[tuple[int, frozenset[int]], _FacetOrder | None] = {}

    def _meets_restriction(
        self, new_facet: int, earlier: list[int]
    ) -> frozenset[int] | None:
        """Maximal meet faces if they are codim-1 in ``new_facet``, else None."""
        lat = self.lattice
        meets = {lat.meet(new_facet, e) for e in earlier}
        meets.discard(lat.zero_id)
        if not meets:
            return None
        maximal = [
            m for m in meets if not any(m != m2 and lat.leq(m, m2) for m2 in meets)
        ]
        want = lat.dim(new_facet) - 1
        if any(lat.dim(m) != want for m in maximal):
            return None
        return frozenset(maximal)

    def shelling_with_prefix(
        self, fid: int, prefix: frozenset[int]
    ) -> _FacetOrder | None:
        """A shelling of C(boundary of fid) whose leading set is ``prefix``.

        Each facet comes paired with its own prefix, the maximal meets with
        the facets before it (empty for the first), which leads its boundary
        shelling in turn.
        """
        lat = self.lattice
        key = (fid, prefix)
        if key in self._memo:
            return self._memo[key]
        facets = lat.facets_of(fid)
        if lat.dim(fid) <= 1:
            raise ShellingSearchFailed("boundary shelling of a ray is undefined")
        if lat.dim(fid) == 2:
            # boundary is two points: every order works
            rays = sorted(prefix) + sorted(set(facets) - prefix)
            order = tuple((ray, frozenset()) for ray in rays)
            self._memo[key] = order
            return order

        def extend(
            order: list[tuple[int, frozenset[int]]], used: frozenset[int]
        ) -> _FacetOrder | None:
            if len(order) == len(facets):
                return tuple(order)
            earlier = [f for f, _ in order]
            for cand in facets:
                if cand in used:
                    continue
                if len(order) < len(prefix) and cand not in prefix:
                    continue
                own: frozenset[int] | None = frozenset()
                if order:
                    own = self._meets_restriction(cand, earlier)
                    if own is None or self.shelling_with_prefix(cand, own) is None:
                        continue
                order.append((cand, own))
                found = extend(order, used | {cand})
                if found is not None:
                    return found
                order.pop()
            return None

        result = extend([], frozenset())
        self._memo[key] = result
        return result


def lexicographic_shelling(
    lattice: FaceLattice, sub: SubdivisionMap | None = None
) -> ShellingOrder:
    """The recursive lexicographic shelling of the barycentric complex.

    Maximal simplices correspond to maximal chains of nonzero faces; they are
    compared at the largest level where they differ, via a boundary shelling
    of each face led by the prefix that its parent's shelling paired it
    with; chains reaching a face with the same prefix share one order, keyed
    by (face, prefix).  A walk down from sigma that visits each face's
    facets in that order reaches the chains already in this lexicographic
    order, so nothing is sorted.  The returned order is verified, and each
    facet's type is additionally checked against the number of its earlier
    codim-1 neighbors, read from the chains' positions in the walk.
    """
    if sub is None:
        sub = barycentric_subdivision(lattice)
    complex = complex_from_fan(sub)
    n = lattice.rank
    if n == 0:
        return verify_shelling(complex, list(complex.facets))

    face_ray = {fid: ri for ri, fid in enumerate(sub.ray_face)}
    for f in lattice.faces:
        if f.id != lattice.zero_id and f.id not in face_ray:
            raise ValueError(
                f"face {f.id} has no ray in the fan; the lexicographic shelling "
                "needs the barycentric fan, with one ray per nonzero face"
            )
    boundaries = _BoundaryShellings(lattice)
    chains: list[tuple[int, ...]] = []

    def walk(chain: tuple[int, ...], prefix: frozenset[int]):
        if lattice.dim(chain[-1]) == 1:
            chains.append(chain)
            return
        found = boundaries.shelling_with_prefix(chain[-1], prefix)
        if found is None:
            raise ShellingSearchFailed(f"no boundary shelling for face {chain[-1]}")
        for nxt, own in found:
            walk(chain + (nxt,), own)

    walk((lattice.top_id,), frozenset())
    position = {chain: i for i, chain in enumerate(chains)}

    def simplex_of(chain: tuple[int, ...]) -> frozenset[int]:
        return frozenset(face_ray[fid] for fid in chain)

    order = [simplex_of(c) for c in chains]
    result = verify_shelling(complex, order)

    # claimed types: count earlier neighbors obtained by swapping one level
    for idx, chain in enumerate(chains):
        swaps = 0
        # chain = (sigma, dim n-1 face, ..., ray); level j swaps chain[j]
        for j in range(1, len(chain)):
            hi = chain[j - 1]
            lo = lattice.zero_id if j == len(chain) - 1 else chain[j + 1]
            # the lattice's own validation made every length-2 interval a diamond
            (other,) = (lattice.above[lo] & lattice.below[hi]) - {chain[j]}
            swapped = chain[:j] + (other,) + chain[j + 1 :]
            if position[swapped] < idx:
                swaps += 1
        if swaps != result.types[idx]:
            raise ShellingSearchFailed(
                f"type mismatch at facet {idx}: verified {result.types[idx]}, "
                f"neighbor count {swaps}"
            )
    return result
