"""Strongly convex rational polyhedral cones and their face lattices.

A full-dimensional cone sigma in Z^n is described by its primitive ray
generators.  The dual description (facet normals = extreme rays of the dual
cone) is computed by enumerating the hyperplanes spanned by (n-1)-subsets of
rays; faces are then exactly the zero sets of subsets of facet normals on
sigma.  Everything is exact integer/rational arithmetic; performance is not a
concern at this scale (rank <= 6, a couple dozen rays).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import (
    DegenerateSelection,
    NotComparable,
    NotFullDimensional,
    NotStronglyConvex,
)
from .linalg import integer_rank, nullspace

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


def primitive_from_rational(v) -> Vector:
    """Primitive integer vector on the ray spanned by a rational vector."""
    lcm = 1
    for x in v:
        d = Fraction(x).denominator
        lcm = lcm * d // gcd(lcm, d)
    return primitive(tuple(int(Fraction(x) * lcm) for x in v))


def rank_of(vectors) -> int:
    return integer_rank([list(v) for v in vectors])


def dual_cone(rays: list[Vector], rank: int) -> list[Vector]:
    """Primitive generators (extreme rays) of the dual of a full-dim cone.

    These are precisely the facet normals of the input cone.  Every facet of a
    polyhedral cone is spanned by the input rays it contains, so enumerating
    normals of hyperplanes through (rank-1)-subsets of rays finds them all.
    """
    if rank_of(rays) < rank:
        raise NotFullDimensional(
            f"rays span rank {rank_of(rays)} < ambient rank {rank}; "
            "restrict the lattice to the span of the cone first"
        )
    if rank == 0:
        return []
    normals: set[Vector] = set()
    for subset in itertools.combinations(range(len(rays)), rank - 1):
        basis, _cols = nullspace([list(rays[i]) for i in subset], rank)
        if len(basis) != 1:
            continue
        u = primitive_from_rational(basis[0])
        pairings = [dot(u, r) for r in rays]
        if any(p > 0 for p in pairings) and any(p < 0 for p in pairings):
            continue
        if all(p <= 0 for p in pairings):
            u = tuple(-x for x in u)
            pairings = [-p for p in pairings]
        zero_set = [i for i, p in enumerate(pairings) if p == 0]
        if rank_of([rays[i] for i in zero_set]) == rank - 1:
            normals.add(u)
    normal_list = sorted(normals)
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


@dataclass(frozen=True)
class DegreeVector:
    """A lattice degree pairing to 0 on a face and positively off it."""

    u: Vector
    face: int


class FaceLattice:
    """The graded poset of faces of a full-dimensional strongly convex cone.

    Face ids are stable: faces are sorted by (dim, lexicographically smallest
    ray index set), so id 0 is the zero face and the last id is sigma itself.
    """

    def __init__(self, rays: list[Vector], rank: int):
        self.rank = rank
        for r in rays:
            if len(r) != rank:
                raise ValueError("ray length does not match the ambient rank")
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
        self.covers = self._covering_pairs()
        self._validate()
        self._chain_counts: dict[tuple[int, int, int], int] = {}

    # -- construction ---------------------------------------------------

    def _enumerate_faces(self):
        n_normals = len(self.dual_generators)
        seen: dict[frozenset[int], frozenset[int]] = {}
        for size in range(n_normals + 1):
            for subset in itertools.combinations(range(n_normals), size):
                zero = frozenset(
                    i
                    for i, r in enumerate(self.rays)
                    if all(dot(self.dual_generators[s], r) == 0 for s in subset)
                )
                if zero not in seen:
                    # store the full vanishing set, not the defining subset
                    seen[zero] = frozenset(
                        s
                        for s in range(n_normals)
                        if all(dot(self.dual_generators[s], self.rays[i]) == 0 for i in zero)
                    )
        keyed = sorted(seen, key=lambda z: (rank_of([self.rays[i] for i in z]), sorted(z)))
        for fid, zero in enumerate(keyed):
            face = Face(
                id=fid,
                rays=zero,
                dim=rank_of([self.rays[i] for i in zero]),
                normals=seen[zero],
            )
            self.faces.append(face)
            self._by_rayset[zero] = fid
            self._by_normalset[seen[zero]] = fid

    def _covering_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for lo in self.faces:
            for hi in self.faces:
                if lo.dim + 1 == hi.dim and lo.rays < hi.rays:
                    pairs.append((lo.id, hi.id))
        return pairs

    def _validate(self):
        # closed under intersection, graded covers, two rays per 2-face
        for a in self.faces:
            for b in self.faces:
                meet = a.rays & b.rays
                assert meet in self._by_rayset, "face set not intersection-closed"
        for lo, hi in self.covers:
            assert self.faces[hi].dim == self.faces[lo].dim + 1
        for f in self.faces:
            if f.dim == 2:
                assert len(f.rays) == 2, "a 2-dimensional face must have 2 rays"
        assert self.faces[0].rays == frozenset()
        assert self.faces[-1].dim == self.rank

    # -- queries ---------------------------------------------------------

    @property
    def zero_id(self) -> int:
        return 0

    @property
    def top_id(self) -> int:
        return len(self.faces) - 1

    def dim(self, fid: int) -> int:
        return self.faces[fid].dim

    def id_of_rayset(self, rays: frozenset[int]) -> int:
        return self._by_rayset[rays]

    def leq(self, lo: int, hi: int) -> bool:
        if lo == hi:
            return True
        return self.faces[lo].rays < self.faces[hi].rays

    def meet(self, a: int, b: int) -> int:
        return self._by_rayset[self.faces[a].rays & self.faces[b].rays]

    def faces_of_dim(self, d: int) -> list[int]:
        return [f.id for f in self.faces if f.dim == d]

    def facets_of(self, fid: int) -> list[int]:
        """Faces covered by ``fid``."""
        return sorted(lo for lo, hi in self.covers if hi == fid)

    def strictly_between(self, lo: int, hi: int) -> list[int]:
        return [
            f.id
            for f in self.faces
            if f.id not in (lo, hi) and self.leq(lo, f.id) and self.leq(f.id, hi)
        ]

    def chain_count(self, lo: int, hi: int, length: int) -> int:
        """Number of chains lo < v_1 < ... < v_length = hi of faces (memoized)."""
        if hi == lo:
            return 1 if length == 0 else 0
        if length <= 0:
            return 0
        if length == 1:
            return 1 if self.leq(lo, hi) else 0
        key = (lo, hi, length)
        if key not in self._chain_counts:
            self._chain_counts[key] = sum(
                self.chain_count(lo, mid, length - 1)
                for mid in self.strictly_between(lo, hi)
            )
        return self._chain_counts[key]

    def face_of_point(self, point: Vector) -> int:
        """The face whose relative interior contains a point of sigma."""
        vanish = frozenset(
            i for i, u in enumerate(self.dual_generators) if dot(u, point) == 0
        )
        for i, u in enumerate(self.dual_generators):
            if dot(u, point) < 0:
                raise ValueError("point lies outside the cone")
        if vanish not in self._by_normalset:
            # the relative interiors of the faces partition sigma
            raise ValueError("point does not lie in the relative interior of a face")
        return self._by_normalset[vanish]

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


def validate_degree(lattice: FaceLattice, fid: int, u: Vector) -> bool:
    """Check u pairs to 0 exactly on the rays of the face, positively off it."""
    face_rays = lattice.faces[fid].rays
    for i, r in enumerate(lattice.rays):
        p = dot(u, r)
        if i in face_rays and p != 0:
            return False
        if i not in face_rays and p <= 0:
            return False
    return True


def pick_degree(lattice: FaceLattice, fid: int) -> DegreeVector:
    """A lattice degree in the relative interior of the dual face of ``fid``.

    The degree is the sum of the dual-cone generators annihilating the face.
    Their common zero set on sigma is exactly the face, so the sum pairs to 0
    on the face's rays and positively on every other ray.  The result is
    still validated by direct pairing against every ray, and a failure
    raises ``DegenerateSelection``.
    """
    if fid >= len(lattice.faces):
        raise NotComparable(f"face {fid} is not in the lattice")
    face = lattice.faces[fid]
    gens = [lattice.dual_generators[i] for i in sorted(face.normals)]
    candidate = vector_sum(gens, lattice.rank)
    if not validate_degree(lattice, fid, candidate):
        raise DegenerateSelection(f"no valid degree found for face {fid}")
    return DegreeVector(u=candidate, face=fid)


def second_degree(lattice: FaceLattice, deg: DegreeVector) -> DegreeVector | None:
    """A different degree for the same face, when one exists.

    Adding any dual generator annihilating the face stays in the relative
    interior of the dual face.  For sigma itself the only degree is 0.
    """
    if deg.face == lattice.top_id:
        return None
    for i in sorted(lattice.faces[deg.face].normals):
        u = vector_add(deg.u, lattice.dual_generators[i])
        if u != deg.u and validate_degree(lattice, deg.face, u):
            return DegreeVector(u=u, face=deg.face)
    return None
