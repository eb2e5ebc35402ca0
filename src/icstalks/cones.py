"""Strongly convex rational polyhedral cones and their face lattices.

A full-dimensional cone sigma in Z^n is given by its primitive ray
generators.  The facet normals (the extreme rays of the dual cone) come from
an incremental double description that adds one ray at a time, in integer
arithmetic.  The faces and covers come from one top-down walk over ray sets
(Kaibel & Pfetsch 2002): the facets of a face are the maximal proper
intersections of its rays with the facets of sigma, so the walk visits only
faces.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    DegenerateSelection,
    DegreeMismatch,
    InvariantViolation,
    NotComparable,
    NotFullDimensional,
    NotStronglyConvex,
)
from .linalg import determinants, integer_rank, sparse_row

Vector = tuple[int, ...]


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def vector_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vector_sum(vectors, rank: int) -> Vector:
    out = (0,) * rank
    for v in vectors:
        out = vector_add(out, v)
    return out


def primitive(v) -> Vector:
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    if g == 0:
        raise ValueError("the zero vector has no primitive representative")
    return tuple(int(x) // g for x in v)


def rank_of(vectors) -> int:
    return integer_rank([sparse_row(v) for v in vectors])


def dual_cone(rays: list[Vector], rank: int) -> list[Vector]:
    """Primitive generators (extreme rays) of the dual of a full-dim cone.

    These are precisely the facet normals of the input cone.  They come from
    an incremental double description (Motzkin et al. 1953; Fukuda & Prodon
    1996): the dual of the simplicial cone on ``rank`` independent rays,
    chosen greedily by index, has one generator per omitted basis ray, the
    cofactor vector u of the other rank - 1 basis rays (so <u, x> is their
    determinant with x appended), signed positive on the omitted ray; each
    further ray r keeps the generators pairing >= 0 with r and adds
    <a, r> b - <b, r> a for every adjacent pair with <a, r> > 0 > <b, r>.
    The dual cone is pointed because the input is full-dimensional, so a and
    b are adjacent exactly when no other generator vanishes on every ray,
    processed so far, that both vanish on.
    """
    if rank_of(rays) < rank:
        raise NotFullDimensional(
            f"rays span rank {rank_of(rays)} < ambient rank {rank}; "
            "restrict the lattice to the span of the cone first"
        )
    if rank == 0:
        return []
    basis: list[int] = []
    for i, r in enumerate(rays):
        if rank_of([rays[j] for j in basis] + [r]) > len(basis):
            basis.append(i)
            if len(basis) == rank:
                break
    # u[c] is the determinant of the other basis rays and unit c; one walk
    # takes every key, and an i's keys share all rows but the unit
    units = [tuple(int(c == j) for j in range(rank)) for c in range(rank)]
    others = {i: tuple(j for j in basis if j != i) for i in basis}
    unit_keys = {i: [others[i] + (len(rays) + c,) for c in range(rank)] for i in basis}
    dets = determinants([*rays, *units], [key for keys in unit_keys.values() for key in keys])
    # generator -> bitmask of the processed rays it vanishes on
    gens: dict[Vector, int] = {}
    for i in basis:
        u = primitive([dets[key] for key in unit_keys[i]])
        if dot(u, rays[i]) < 0:
            u = tuple(-x for x in u)
        gens[u] = sum(1 << j for j in others[i])
    for i, r in enumerate(rays):
        if i in basis:
            continue
        pairings = {u: dot(u, r) for u in gens}
        pos = [u for u, p in pairings.items() if p > 0]
        neg = [u for u, p in pairings.items() if p < 0]
        added: dict[Vector, int] = {}
        for a in pos:
            for b in neg:
                common = gens[a] & gens[b]
                if any(z & common == common for g, z in gens.items() if g != a and g != b):
                    continue
                pa, pb = pairings[a], pairings[b]
                w = primitive([pa * y - pb * x for x, y in zip(a, b)])
                added[w] = common | 1 << i
        gens = {
            u: z | 1 << i if pairings[u] == 0 else z
            for u, z in gens.items()
            if pairings[u] >= 0
        }
        gens.update(added)
    normal_list = sorted(gens)
    if rank_of(normal_list) < rank:
        raise NotStronglyConvex("the cone contains a line")
    return normal_list


@dataclass(frozen=True)
class Face:
    """A face of sigma: its rays, dimension, and vanishing facet normals."""

    id: int
    rays: frozenset[int]
    dim: int
    normals: frozenset[int]  # indices of sigma's facet normals vanishing on it


class FaceLattice:
    """The graded poset of faces of a full-dimensional strongly convex cone.

    Face ids are stable: faces are sorted by (dim, lexicographically smallest
    ray index set), so id 0 is the zero face and the last id is sigma itself.
    ``below[f]`` holds the faces covered by face f and ``above[f]`` the faces
    covering it; ``covers`` lists the same relation as sorted (lo, hi) pairs.
    ``down[f]`` holds the faces <= f and ``up[f]`` the faces >= f.
    """

    def __init__(self, rays: list[Vector], rank: int):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.rank = rank
        for r in rays:
            if len(r) != rank:
                raise ValueError("ray length does not match the ambient rank")
            # a float, Fraction or bool entry would be truncated into another cone
            if any(isinstance(x, bool) or not isinstance(x, int) for x in r):
                raise ValueError(f"ray {list(r)} has an entry that is not an int")
            if not any(r):
                raise ValueError("the zero vector is not a valid ray")
        self.rays = [primitive(r) for r in rays]
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays after normalization")
        self.dual_generators = dual_cone(self.rays, rank)
        self.faces: list[Face] = []
        self._by_rayset: dict[frozenset[int], int] = {}
        self._by_normalset: dict[frozenset[int], int] = {}
        self._enumerate_faces()
        for i, r in enumerate(self.rays):
            if frozenset((i,)) not in self._by_rayset:
                raise ValueError(f"ray {i} = {list(r)} is not an extreme ray of the cone")
        self._validate()
        # lo -> hi -> chain counts of [lo, hi] by length, filled by chain_counts
        self._chain_counts: dict[int, dict[int, tuple[int, ...]]] = {}

    # -- construction ---------------------------------------------------

    def _enumerate_faces(self):
        """Walk down from sigma, finding every face with its covers.

        ``zero_sets[s]``, Z_s, holds the rays on facet s.  The facets of a
        face F are the maximal sets among the proper intersections F & Z_s,
        so the walk visits only faces and meets each cover once, from above.
        """
        self._zero_sets = zero_sets = [
            frozenset(i for i, r in enumerate(self.rays) if dot(u, r) == 0)
            for u in self.dual_generators
        ]
        below: dict[frozenset[int], list[frozenset[int]]] = {}
        todo = [frozenset(range(len(self.rays)))]
        while todo:
            face = todo.pop()
            if face in below:
                continue
            facets: list[frozenset[int]] = []
            for cut in sorted({face & z for z in zero_sets} - {face}, key=len, reverse=True):
                if not any(cut < f for f in facets):
                    facets.append(cut)
            below[face] = facets
            todo.extend(facets)
        dims = {z: rank_of([self.rays[i] for i in z]) for z in below}
        for fid, zero in enumerate(sorted(below, key=lambda z: (dims[z], sorted(z)))):
            normals = frozenset(s for s, z in enumerate(zero_sets) if zero <= z)
            self.faces.append(Face(id=fid, rays=zero, dim=dims[zero], normals=normals))
            self._by_rayset[zero] = fid
            self._by_normalset[normals] = fid
        ids = self._by_rayset
        self.below = [frozenset(ids[lo] for lo in below[f.rays]) for f in self.faces]
        above: list[set[int]] = [set() for _ in self.faces]
        for hi, los in enumerate(self.below):
            for lo in los:
                above[lo].add(hi)
        self.above = [frozenset(ups) for ups in above]
        self.covers = sorted((lo, hi) for hi, los in enumerate(self.below) for lo in los)
        # ids grow with dimension, so a face's covers are closed before it
        down: list[frozenset[int]] = []
        for f, los in enumerate(self.below):
            down.append(frozenset({f}).union(*(down[lo] for lo in los)))
        up: list[frozenset[int]] = [frozenset()] * len(self.faces)
        for f in reversed(range(len(self.faces))):
            up[f] = frozenset({f}).union(*(up[hi] for hi in self.above[f]))
        self.down, self.up = down, up

    def _validate(self):
        """Closed under intersection, diamonds, two rays per 2-face.  Every face the
        walk yields is an intersection of facet ray sets Z_s, so F & G is reached by
        meeting F with G's facets one at a time: checking each F & Z_s suffices."""
        for a in self.faces:
            for z in self._zero_sets:
                if a.rays & z not in self._by_rayset:
                    raise InvariantViolation(a.id, "lattice", "face set not intersection-closed")
        # every interval of length 2 has exactly two middle faces
        middles: dict[tuple[int, int], int] = {}
        for lo, ups in enumerate(self.above):
            for mid in ups:
                for hi in self.above[mid]:
                    middles[lo, hi] = middles.get((lo, hi), 0) + 1
        for (lo, hi), count in middles.items():
            if count != 2:
                message = f"interval [{lo}, {hi}] has {count} middle faces, not 2"
                raise InvariantViolation(hi, "lattice", message)
        for f in self.faces:
            if f.dim == 2 and len(f.rays) != 2:
                raise InvariantViolation(f.id, "lattice", "a 2-dimensional face must have 2 rays")
        if self.faces[0].rays or self.faces[-1].dim != self.rank:
            raise InvariantViolation(None, "lattice", "faces must run from zero to sigma")

    # -- queries ---------------------------------------------------------

    @property
    def zero_id(self) -> int:
        return 0

    @property
    def top_id(self) -> int:
        return len(self.faces) - 1

    def face(self, fid: int) -> Face:
        """The face with id ``fid``; ``NotComparable`` if there is none."""
        if not 0 <= fid <= self.top_id:
            raise NotComparable(f"face {fid} is not in the lattice")
        return self.faces[fid]

    def dim(self, fid: int) -> int:
        return self.faces[fid].dim

    def leq(self, lo: int, hi: int) -> bool:
        return lo in self.down[hi]

    def meet(self, a: int, b: int) -> int:
        return self._by_rayset[self.faces[a].rays & self.faces[b].rays]

    def join(self, a: int, b: int) -> int:
        return self._by_normalset[self.faces[a].normals & self.faces[b].normals]

    def faces_of_dim(self, d: int) -> list[int]:
        return [f.id for f in self.faces if f.dim == d]

    def facets_of(self, fid: int) -> list[int]:
        """Faces covered by ``fid``."""
        return sorted(self.below[fid])

    def strictly_between(self, lo: int, hi: int) -> list[int]:
        """Faces f with lo < f < hi, in id order; empty unless lo <= hi."""
        return sorted((self.down[hi] & self.up[lo]) - {lo, hi})

    def chain_counts(self, lo: int, hi: int) -> tuple[int, ...]:
        """Chains lo < v_1 < ... < v_l = hi of faces counted by length l (memoized).

        The tuple has one entry per l = 0 .. dim hi − dim lo, and is empty
        unless lo <= hi.  Every face above lo is counted in one pass from lo
        upward, with counts(lo, lo) = (1,) and, for hi > lo, counts(lo, hi)
        the sum over lo <= mid < hi of counts(lo, mid) shifted one length
        up: the chain's last face below hi is mid.  Ids grow with dimension,
        so walking mid in id order finishes each tuple before it is pushed.
        """
        if lo not in self._chain_counts:
            lo_dim = self.faces[lo].dim
            counts = {f: [0] * (self.faces[f].dim - lo_dim + 1) for f in self.up[lo]}
            counts[lo][0] = 1
            for mid in sorted(self.up[lo]):
                below = counts[mid]
                for f in self.up[mid] - {mid}:
                    above = counts[f]
                    for l, x in enumerate(below):
                        above[l + 1] += x
            self._chain_counts[lo] = {f: tuple(c) for f, c in counts.items()}
        return self._chain_counts[lo].get(hi, ())

    def to_json_obj(self) -> dict:
        return {
            "faces": [
                {"id": f.id, "dim": f.dim, "rays": sorted(f.rays)} for f in self.faces
            ],
            "covers": sorted([lo, hi] for lo, hi in self.covers),
        }


def face_lattice(rays: list[Vector], rank: int | None = None) -> FaceLattice:
    """Enumerate all faces of the cone spanned by ``rays``."""
    if rank is None:
        rank = len(rays[0]) if rays else 0
    return FaceLattice(list(rays), rank)


def degree_face(lattice: FaceLattice, u: Vector) -> int:
    """The face of sigma that a degree u of the dual cone cuts out: u's zero rays.

    u lies in the relative interior of the dual face of exactly that face.
    A negative pairing puts u outside the dual cone and raises
    ``DegreeMismatch``, as does a length other than the rank.
    """
    if len(u) != lattice.rank:
        raise DegreeMismatch(f"degree {list(u)} does not have length {lattice.rank}")
    zero = []
    for i, r in enumerate(lattice.rays):
        p = dot(u, r)
        if p < 0:
            raise DegreeMismatch(f"degree {list(u)} pairs negatively with ray {i}")
        if p == 0:
            zero.append(i)
    return lattice._by_rayset[frozenset(zero)]


def pick_degree(lattice: FaceLattice, fid: int) -> Vector:
    """A lattice degree in the relative interior of the dual face of ``fid``.

    The degree is the sum of the dual-cone generators annihilating the face.
    Their common zero set on sigma is exactly the face, so the sum pairs to 0
    on the face's rays and positively on every other ray.  The result is
    still checked by ``degree_face``, and a different face raises
    ``DegenerateSelection``.
    """
    face = lattice.face(fid)
    gens = [lattice.dual_generators[i] for i in sorted(face.normals)]
    u = vector_sum(gens, lattice.rank)
    if degree_face(lattice, u) != fid:
        raise DegenerateSelection(f"no valid degree found for face {fid}")
    return u


def second_degree(lattice: FaceLattice, u: Vector) -> Vector | None:
    """A different degree of u's face: u plus the face's first facet normal.

    Adding a dual generator annihilating the face stays in the relative
    interior of its dual face, which ``degree_face`` checks; a different
    face raises ``DegenerateSelection``.  Sigma has no such normal: its only
    degree is 0, and there is no second one.
    """
    face = lattice.faces[degree_face(lattice, u)]
    if not face.normals:
        return None
    other = vector_add(u, lattice.dual_generators[min(face.normals)])
    if degree_face(lattice, other) != face.id:
        raise DegenerateSelection(f"no second degree found for face {face.id}")
    return other
