"""Shellability of simplicial complexes and of barycentric boundary complexes.

The public operations work on abstract simplicial complexes (facets are
vertex sets; coordinates are never consulted):

  * ``verify_shelling`` checks a facet order by the unique-minimal-new-face
    characterization: at each step the faces not seen earlier must form an
    interval [R, F] (Ziegler, *Lectures on Polytopes*, sec. 8.1).  The
    restriction face R gives the facet's type |R|.  A face is an int
    bitmask, bit i for the i-th smallest vertex label.  One set holds the
    mask of every face of the earlier facets; it is closed under subsets, so
    a step holds exactly when R = {v : F - v is old} is nonempty and not old
    itself.  F facets of size d cost O(F * d) set lookups plus one insertion
    per face of the complex.
  * ``find_shelling`` searches for a shelling order by depth-first extension
    with backtracking, memoizing dead prefix sets (step validity depends only
    on the set of earlier facets, not their order).  It keeps the face masks
    of its current prefix, adding a facet's new faces on extension and
    removing them on backtrack, so the set stays closed under subsets.
  * ``lexicographic_shelling`` builds the recursive lexicographic order on
    the maximal chains of a face lattice, the barycentric analogue of a line
    shelling: chains are compared at the largest level where they differ,
    using shellings of polytope boundary complexes keyed by (face, prefix);
    the search that shells a face's boundary hands each facet the prefix
    that leads the facet's own boundary shelling.  The type check reads each
    diamond's two middles once.

The polytope boundary complexes needed by the lexicographic construction are
not simplicial (e.g. the square facets of a cube), so a small recursive
verifier/searcher for polytopal shellings over the face lattice is included;
its complexes never exceed a handful of facets.
"""

from __future__ import annotations

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


def _vertex_bits(facets) -> dict[int, int]:
    """Each vertex's bit in a face mask: bit i for the i-th smallest label."""
    return {v: 1 << i for i, v in enumerate(sorted(set().union(*facets)))}


def _restriction(facet: int, bits: list[int], old: set[int]) -> int | None:
    """The restriction face R = {v : facet - v is old} as a mask, or None.

    The step fails when R is empty or old: ``old``, the earlier facets' face
    masks, is closed under subsets, so the subsets missing a vertex of R are
    old, and those containing R are new exactly when R is."""
    restriction = 0
    for b in bits:
        if facet ^ b in old:
            restriction |= b
    return restriction if restriction and restriction not in old else None


def _new_faces(facet: int, restriction: int) -> list[int]:
    """The faces a valid step adds, each once: R | s for the submasks s of
    facet - R, run down from facet - R to 0 as s = (s - 1) & (facet - R)."""
    free = facet ^ restriction
    out, s = [facet], free
    while s:
        s = (s - 1) & free
        out.append(restriction | s)
    return out


def verify_shelling(complex: SimplicialComplex, order: list[frozenset[int]]) -> ShellingOrder:
    """Check a facet order; raises NotAShelling at the first violating index.

    One set ``old`` holds the mask of every face of the facets checked so
    far, closed under subsets; each step adds the new facet's new faces.
    """
    if len(order) != len(complex.facets) or set(order) != set(complex.facets):
        raise ValueError("order is not a permutation of the facets")
    bit, old = _vertex_bits(order), set()
    restriction: list[frozenset[int]] = []
    for j, facet in enumerate(order):
        bits = [bit[v] for v in facet]
        r = _restriction(sum(bits), bits, old) if j else 0
        if r is None:
            raise NotAShelling(j)
        restriction.append(frozenset(v for v, b in zip(facet, bits) if r & b))
        old.update(_new_faces(sum(bits), r))
    types = [len(r) for r in restriction]
    return ShellingOrder(order=list(order), types=types, restriction=restriction)


def find_shelling(complex: SimplicialComplex) -> ShellingOrder:
    """Depth-first search for a shelling order; raises NoShellingFound.

    The search is a loop over an explicit stack with one entry per placed
    facet, so a complex of any size fits in the recursion limit.
    """
    facets = sorted(complex.facets, key=sorted)
    n = len(facets)
    bit = _vertex_bits(facets)
    bits = [[bit[v] for v in f] for f in facets]
    masks = [sum(b) for b in bits]
    dead: set[frozenset[int]] = set()
    old: set[int] = set()  # the mask of every face of the facets in the prefix

    def extend() -> list[int] | None:
        order: list[int] = []
        # per placed facet: the set placed before it, that set's candidates
        # not yet tried, and the faces the facet added to ``old``
        stack = []
        used, candidates = frozenset(), iter(range(n))
        while len(order) < n:
            for i in candidates:
                if i in used:
                    continue
                r = _restriction(masks[i], bits[i], old) if order else 0
                if r is None:
                    continue
                new = _new_faces(masks[i], r)
                old.update(new)
                order.append(i)
                stack.append((used, candidates, new))
                used = used | {i}
                # a set already known not to extend is not searched again
                candidates = iter(() if used in dead else range(n))
                break
            else:
                dead.add(used)
                if not stack:
                    return None
                used, candidates, new = stack.pop()
                order.pop()
                old.difference_update(new)
        return order

    found = extend()
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
    The search over one face's facets keeps its own stack; only the check of
    a candidate's boundary recurses, to a depth bounded by the rank.
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

        def extend() -> _FacetOrder | None:
            # a loop over an explicit stack, one entry per placed facet: the
            # facets placed before it, and their candidates not yet tried
            order: list[int] = []
            owns: list[frozenset[int]] = []
            stack = []
            used, candidates = frozenset(), iter(facets)
            while len(order) < len(facets):
                for cand in candidates:
                    if cand in used:
                        continue
                    if len(order) < len(prefix) and cand not in prefix:
                        continue
                    own: frozenset[int] | None = frozenset()
                    if order:
                        own = self._meets_restriction(cand, order)
                        if own is None or self.shelling_with_prefix(cand, own) is None:
                            continue
                    order.append(cand)
                    owns.append(own)
                    stack.append((used, candidates))
                    used, candidates = used | {cand}, iter(facets)
                    break
                else:
                    if not stack:
                        return None
                    used, candidates = stack.pop()
                    order.pop()
                    owns.pop()
            return tuple(zip(order, owns))

        result = extend()
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
    order = [frozenset(face_ray[fid] for fid in chain) for chain in chains]
    result = verify_shelling(complex, order)

    # claimed types: count earlier neighbors; (lo, mid, hi) -> a diamond's other middle
    others: dict[tuple[int, int, int], int] = {}
    for idx, chain in enumerate(chains):
        swaps = 0
        # chain = (sigma, dim n-1 face, ..., ray); level j swaps chain[j]
        for j in range(1, len(chain)):
            hi = chain[j - 1]
            lo = lattice.zero_id if j == len(chain) - 1 else chain[j + 1]
            key = lo, chain[j], hi
            if key not in others:
                # the lattice's own validation made every length-2 interval a diamond
                a, b = lattice.above[lo] & lattice.below[hi]
                others[lo, a, hi], others[lo, b, hi] = b, a
            swapped = chain[:j] + (others[key],) + chain[j + 1 :]
            if position[swapped] < idx:
                swaps += 1
        if swaps != result.types[idx]:
            raise ShellingSearchFailed(
                f"type mismatch at facet {idx}: verified {result.types[idx]}, "
                f"neighbor count {swaps}"
            )
    return result
