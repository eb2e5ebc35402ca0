"""Simplicial subdivisions of a cone and their multiplicity tables.

Both subdivisions come from one face-chain construction.  Pick a set of
*centred* faces of sigma, each of dimension >= 2, and give each one an
interior ray: the primitive sum of the face's ray generators.  A cone of the
subdivision is a face g of sigma that is not centred, joined with the
interior rays of a chain of centred faces whose smallest member contains g
(the chain may be empty).  Its minimal containing face of sigma is the top
of the chain, or g itself when the chain is empty.

  * ``barycentric_subdivision`` centres every face of dimension >= 2, so its
    maximal cones correspond to maximal chains of nonzero faces.  The table
    is read off the geometric pushforward, so the chain-counting oracle stays
    an independent cross-check of it rather than a restatement of the
    construction.
  * ``interior_ray_subdivision`` centres every face of dimension >= 3.  It
    equals the staged stellar subdivision that stars those faces in
    decreasing dimension order: once every face of dimension > d is starred,
    the only cones containing the interior ray of a d-face f are the joins of
    f itself with chains above it, so starring f swaps f for the joins of its
    proper faces with the new ray.  Faces of dimension <= 2 are simplicial
    already, so the result is a simplicial fan.

The multiplicity table d_l(tau) counts l-dimensional cones of the subdivision
whose minimal containing face of sigma is tau.  The minimal containing face is
located exactly: the sum of a cone's primitive ray generators lies in the
relative interior of precisely that face.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cones import FaceLattice, Vector, dot, primitive, rank_of, vector_sum
from .errors import CrossCheckMismatch, InvariantViolation, NotSimplicialResult
from .linalg import rref

ConeSet = frozenset[int]


@dataclass
class SubdivisionMap:
    """A subdivision of sigma together with the minimal-containing-face map.

    ``rays`` starts with sigma's own rays (same indices as the lattice), then
    any added interior rays; ``ray_face`` tags each ray with the face of sigma
    whose relative interior contains it.  ``cones`` contains every cone of the
    subdivision including the zero cone (the empty index set).
    """

    lattice: FaceLattice
    rays: list[Vector]
    ray_face: list[int]
    cones: set[ConeSet]
    maximal: list[ConeSet]
    pushforward: dict[ConeSet, int] = field(default_factory=dict)
    kind: str = ""

    def __post_init__(self):
        if not self.pushforward:
            self.pushforward = {c: self._locate(c) for c in self.cones}

    def _locate(self, cone: ConeSet) -> int:
        point = vector_sum([self.rays[i] for i in cone], self.lattice.rank)
        return self.lattice.face_of_point(point)

    def cone_dim(self, cone: ConeSet) -> int:
        return rank_of([self.rays[i] for i in cone])

    def is_simplicial(self) -> bool:
        return all(self.cone_dim(c) == len(c) for c in self.cones)

    def cones_by_dim(self) -> dict[int, list[ConeSet]]:
        out: dict[int, list[ConeSet]] = {}
        for c in self.cones:
            out.setdefault(len(c), []).append(c)
        for lst in out.values():
            lst.sort(key=sorted)
        return out

    def added_rays(self) -> list[tuple[int, Vector, int]]:
        n0 = len(self.lattice.rays)
        return [
            (i, self.rays[i], self.ray_face[i]) for i in range(n0, len(self.rays))
        ]

    def to_json_obj(self) -> dict:
        return {
            "added_rays": [
                {"index": i, "vector": list(v), "face_id": f}
                for i, v, f in self.added_rays()
            ],
            "maximal_cones": sorted(sorted(c) for c in self.maximal),
        }


class MultiplicityTable:
    """Counts d_l(tau) of l-dimensional subdivision cones lying over tau."""

    def __init__(self, counts: dict[tuple[int, int], int], lattice: FaceLattice):
        self.counts = dict(counts)
        self.lattice = lattice

    def get(self, l: int, tau: int) -> int:
        return self.counts.get((l, tau), 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def to_json_obj(self) -> dict:
        rows = [
            {"tau": tau, "l": l, "count": c}
            for (l, tau), c in sorted(self.counts.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        return {"d": rows}


def multiplicity_table(sub: SubdivisionMap) -> MultiplicityTable:
    counts: dict[tuple[int, int], int] = {}
    for cone in sub.cones:
        l = len(cone)
        tau = sub.pushforward[cone]
        counts[(l, tau)] = counts.get((l, tau), 0) + 1
    lattice = sub.lattice
    table = MultiplicityTable(counts, lattice)
    for (l, tau), c in counts.items():
        if l > lattice.dim(tau):
            raise InvariantViolation(
                tau, "multiplicity", f"a {l}-cone lies over the {lattice.dim(tau)}-face {tau}"
            )
        if l == 0 and (tau != lattice.zero_id or c != 1):
            raise InvariantViolation(
                tau, "multiplicity", "the zero cone must be the one 0-cone, over the zero face"
            )
    if table.total() != len(sub.cones):
        raise InvariantViolation(
            lattice.top_id,
            "multiplicity",
            f"the table counts {table.total()} cones, the fan has {len(sub.cones)}",
        )
    return table


def _chain_subdivision(
    lattice: FaceLattice, centred: list[int], kind: str
) -> SubdivisionMap:
    """The subdivision with an interior ray at each face in ``centred``.

    Sigma's rays keep their lattice indices; the interior ray of
    ``centred[k]`` gets index ``len(lattice.rays) + k``.  Every centred face
    must have dimension >= 2.  The construction is checked, not trusted:
    every cone must be simplicial, every maximal cone full-dimensional, and
    the geometric pushforward of a cone must be the top of its chain.
    """
    n = lattice.rank
    faces = lattice.faces
    rays: list[Vector] = list(lattice.rays)
    ray_face: list[int] = [0] * len(rays)
    for f in faces:
        if f.dim == 1:
            (ri,) = f.rays
            ray_face[ri] = f.id
    centre: dict[int, int] = {}
    for fid in centred:
        centre[fid] = len(rays)
        face_rays = [lattice.rays[i] for i in sorted(faces[fid].rays)]
        rays.append(primitive(vector_sum(face_rays, n)))
        ray_face.append(fid)

    # chains of centred faces keyed by their smallest member, each as
    # (interior rays, top face); larger faces first, so the chains above
    # a face are known before it is reached
    chains_from: dict[int, list[tuple[ConeSet, int]]] = {}
    for fid in sorted(centred, key=lattice.dim, reverse=True):
        chains = [(frozenset((centre[fid],)), fid)]
        for hid in centred:
            if hid != fid and lattice.leq(fid, hid):
                chains.extend((rs | {centre[fid]}, top) for rs, top in chains_from[hid])
        chains_from[fid] = chains

    top_of: dict[ConeSet, int] = {}
    for g in faces:
        if g.id in centre:
            continue
        top_of[g.rays] = g.id
        for fid in centred:
            if lattice.leq(g.id, fid):
                for rs, top in chains_from[fid]:
                    top_of[g.rays | rs] = top

    for cone in top_of:
        if rank_of([rays[i] for i in cone]) != len(cone):
            raise NotSimplicialResult(f"{kind} cone {sorted(cone)} is not simplicial")
    # the cones are closed under faces, so a cone is maximal unless it is a
    # facet of another cone
    cones = set(top_of)
    covered = {c - {i} for c in cones for i in c}
    maximal = sorted(cones - covered, key=sorted)
    if any(len(c) != n for c in maximal):
        raise NotSimplicialResult(f"{kind} maximal cones must be full-dimensional")
    sub = SubdivisionMap(
        lattice=lattice,
        rays=rays,
        ray_face=ray_face,
        cones=cones,
        maximal=maximal,
        kind=kind,
    )
    for cone, top in top_of.items():
        if sub.pushforward[cone] != top:
            raise CrossCheckMismatch(
                f"{kind} cone {sorted(cone)} lies over face {sub.pushforward[cone]}, "
                f"not over its chain top {top}"
            )
    return sub


def barycentric_subdivision(lattice: FaceLattice) -> SubdivisionMap:
    """The subdivision whose maximal cones are maximal chains of nonzero faces."""
    centred = [f.id for f in lattice.faces if f.dim >= 2]
    return _chain_subdivision(lattice, centred, "barycentric")


def interior_ray_subdivision(lattice: FaceLattice) -> SubdivisionMap:
    """Interior rays added to every face of dimension >= 3, largest first.

    This is the staged stellar subdivision in decreasing dimension order.
    Faces of dimension <= 2 are simplicial already, so the result is a
    simplicial subdivision; this is validated, not assumed.
    """
    centred = [fid for d in range(lattice.rank, 2, -1) for fid in lattice.faces_of_dim(d)]
    return _chain_subdivision(lattice, centred, "interior-ray")


def chain_count_oracle(lattice: FaceLattice, tau: int, length: int) -> int:
    """Number of chains of nonzero faces of the given length ending at tau."""
    return lattice.chain_count(lattice.zero_id, tau, length)


def in_simplicial_cone(sub: SubdivisionMap, cone: ConeSet, point) -> bool:
    """Exact membership of a rational point in a simplicial cone of the fan."""
    idx = sorted(cone)
    if not idx:
        return not any(point)
    rows = [[Fraction(sub.rays[i][j]) for i in idx] for j in range(sub.lattice.rank)]
    aug = [row + [Fraction(point[j])] for j, row in enumerate(rows)]
    reduced, pivots = rref(aug)
    width = len(idx)
    if width in pivots:
        return False  # inconsistent system: point outside the span
    coeffs = [Fraction(0)] * width
    for r, p in zip(reduced, pivots):
        coeffs[p] = r[width]
    recon = [
        sum((coeffs[k] * sub.rays[idx[k]][j] for k in range(width)), Fraction(0))
        for j in range(sub.lattice.rank)
    ]
    if any(recon[j] != Fraction(point[j]) for j in range(sub.lattice.rank)):
        return False
    return all(c >= 0 for c in coeffs)


def validate_subdivision(sub: SubdivisionMap, samples: int = 0) -> None:
    """Desk-scale fan validity checks: simpliciality, tags, covering, disjoint interiors.

    Covering: a ridge (a maximal cone minus one ray) lies in one maximal cone
    when it lies on the boundary of sigma and in two otherwise.  With the
    disjoint-interior probe this shows that the maximal cones cover sigma.
    """
    lattice = sub.lattice
    n = lattice.rank
    assert sub.is_simplicial()
    for c in sub.maximal:
        assert len(c) == n
    if not sub.maximal:
        raise InvariantViolation(lattice.top_id, "covering", "the fan has no maximal cone")
    ridge_count: dict[ConeSet, int] = {}
    for c in sub.maximal:
        for i in c:
            ridge_count[c - {i}] = ridge_count.get(c - {i}, 0) + 1
    for ridge, count in ridge_count.items():
        tau = sub.pushforward[ridge]
        expected = 2 if tau == lattice.top_id else 1
        if count != expected:
            raise InvariantViolation(
                tau,
                "covering",
                f"ridge {sorted(ridge)} over face {tau} lies in {count} maximal "
                f"cones, expected {expected}",
            )
    for idx, vec, fid in sub.added_rays():
        assert lattice.face_of_point(vec) == fid
    for cone, tau in sub.pushforward.items():
        face = lattice.faces[tau]
        for i in cone:
            for s in face.normals:
                assert dot(lattice.dual_generators[s], sub.rays[i]) == 0
    # pairwise disjoint interiors, probed at relative interior points
    points = {
        c: vector_sum([sub.rays[i] for i in c], n) for c in sub.maximal
    }
    for c in sub.maximal:
        for d in sub.maximal:
            if c != d and len(c) == n:
                assert not in_simplicial_cone(sub, d, points[c])
