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
    is read off the pushforward, the join of the ray tags, so the
    chain-counting oracle stays an independent cross-check of it rather than
    a restatement of the construction.
  * ``interior_ray_subdivision`` centres every face of dimension >= 3.  It
    equals the staged stellar subdivision that stars those faces in
    decreasing dimension order: once every face of dimension > d is starred,
    the only cones containing the interior ray of a d-face f are the joins of
    f itself with chains above it, so starring f swaps f for the joins of its
    proper faces with the new ray.  Faces of dimension <= 2 are simplicial
    already, so the result is a simplicial fan.

A fan is its maximal cones and its ray tags, the faces of sigma whose
relative interiors hold its rays.  The multiplicity table d_l(tau) counts
l-dimensional cones whose minimal containing face of sigma, the join of
their rays' tags, is tau.

``validate_subdivision`` proves that a fan subdivides sigma from one
determinant per maximal cone: its maximal cones meet in pairs across every
interior ridge, from opposite sides, and one point lies in exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations

from .cones import FaceLattice, Vector, dot, primitive, rank_of, vector_sum
from .errors import CrossCheckMismatch, InvariantViolation, NotSimplicialResult
from .linalg import determinant, sparse_row

ConeSet = frozenset[int]


@dataclass
class SubdivisionMap:
    """A simplicial fan in sigma: its maximal cones and its ray tags.

    ``rays`` starts with sigma's own rays (same indices as the lattice), then
    any added interior rays; ``ray_face`` tags each ray with the face of sigma
    whose relative interior contains it (checked here).  Derived: ``cones``,
    every face of a maximal cone with the zero cone (the empty index set),
    and ``pushforward``, each cone's minimal containing face.  That face is
    the join of the cone's ray tags: the rays pair >= 0 with every facet
    normal, so their sum vanishes on a normal exactly when each ray does.
    """

    lattice: FaceLattice
    rays: list[Vector]
    ray_face: list[int]
    maximal: list[ConeSet]
    cones: set[ConeSet] = field(init=False)
    pushforward: dict[ConeSet, int] = field(init=False)
    # the Ishida wedge bases, pairings and apex complexes of this fan,
    # memoized by ``differentials`` alone; not part of the fan's value
    ishida_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lattice = self.lattice
        for i, (ray, fid) in enumerate(zip(self.rays, self.ray_face)):
            if lattice.face_of_point(ray) != fid:
                raise InvariantViolation(fid, "ray tag", f"ray {i} is not interior to its face")
        faces = (combinations(c, k) for c in self.maximal for k in range(len(c) + 1))
        self.cones = {frozenset(f) for fs in faces for f in fs}
        join, zero, tags = lattice.join, lattice.zero_id, self.ray_face
        self.pushforward = {c: reduce(join, (tags[i] for i in c), zero) for c in self.cones}

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
    for l, tau in counts:
        if l > lattice.dim(tau):
            raise InvariantViolation(
                tau, "multiplicity", f"a {l}-cone lies over the {lattice.dim(tau)}-face {tau}"
            )
    # the fiber over every face is connected: F_tau(0) = 1; at the zero face
    # this says the zero cone is the one cone over it
    for f in lattice.faces:
        euler = sum((-1) ** l * table.get(l, f.id) for l in range(f.dim + 1))
        if euler != (-1) ** f.dim:
            message = f"alternating cone count {euler} over the {f.dim}-face {f.id}"
            raise InvariantViolation(f.id, "multiplicity", message)
    return table


def _chain_subdivision(
    lattice: FaceLattice, centred: list[int], kind: str
) -> SubdivisionMap:
    """The subdivision with an interior ray at each face in ``centred``.

    Sigma's rays keep their lattice indices; the interior ray of
    ``centred[k]`` gets index ``len(lattice.rays) + k``.  Every centred face
    must have dimension >= 2.  The construction is checked, not trusted:
    every maximal cone must be simplicial and n-dimensional, so every cone
    is simplicial, being a face of one; and the fan's derived cones and
    pushforward must be the chain cones and their chain tops.
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

    # the cones are closed under faces, so a cone is maximal unless it is a
    # facet of another cone
    cones = set(top_of)
    covered = {c - {i} for c in cones for i in c}
    maximal = sorted(cones - covered, key=sorted)
    for c in maximal:
        if len(c) != n or rank_of([rays[i] for i in c]) != n:
            raise NotSimplicialResult(f"{kind} maximal cone {sorted(c)} is not simplicial, {n}-dim")
    sub = SubdivisionMap(lattice=lattice, rays=rays, ray_face=ray_face, maximal=maximal)
    if sub.pushforward != top_of:
        cone = min((c for c, _ in sub.pushforward.items() ^ top_of.items()), key=sorted)
        raise CrossCheckMismatch(
            f"{kind} cone {sorted(cone)} lies over face {sub.pushforward.get(cone)}, "
            f"not over its chain top {top_of.get(cone)}"
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


def _sign(rows) -> int:
    det = determinant([sparse_row(r) for r in rows])
    return (det > 0) - (det < 0)


def validate_subdivision(sub: SubdivisionMap) -> None:
    """Check that the fan subdivides sigma: one pass over the ridges, one point.

    A maximal cone's determinant, rays in index order, is nonzero exactly
    when the cone is simplicial and n-dimensional, and its sign orients the
    cone.  Every cone must lie in its pushforward face.  A ridge (a maximal
    cone minus one ray) must lie in one maximal cone over the boundary of
    sigma and in two otherwise, those two on opposite sides of it.  This
    suffices (De Loera, Rambau and Santos, *Triangulations*, ch. 4): such a
    pseudomanifold covers sigma with constant degree, since a generic point
    crossing an interior ridge leaves one cone as it enters the other, and a
    point inside one cone and in no other fixes that degree at 1.
    """
    lattice = sub.lattice
    n = lattice.rank
    top = lattice.top_id
    if not sub.maximal:
        raise InvariantViolation(top, "covering", "the fan has no maximal cone")
    oriented: list[tuple[ConeSet, int]] = []
    for c in sub.maximal:
        sign = _sign([sub.rays[i] for i in sorted(c)]) if len(c) == n else 0
        if not sign:
            message = f"maximal cone {sorted(c)} is not simplicial and {n}-dimensional"
            raise InvariantViolation(top, "simplicial", message)
        oriented.append((c, sign))
    # the side of ridge c - {i} that c lies on: the sign of det(ridge rays in
    # index order, ray i), which moves row k of c's determinant to the end
    ridge_sides: dict[ConeSet, list[int]] = {}
    for c, sign in oriented:
        for k, i in enumerate(sorted(c)):
            ridge_sides.setdefault(c - {i}, []).append(sign * (-1) ** (n - 1 - k))
    for ridge, sides in ridge_sides.items():
        tau = sub.pushforward[ridge]
        expected = 2 if tau == top else 1
        if len(sides) != expected:
            message = f"ridge {sorted(ridge)} over face {tau} lies in {len(sides)} maximal cones"
            raise InvariantViolation(tau, "covering", f"{message}, expected {expected}")
        if expected == 2 and sides[0] == sides[1]:
            message = f"both maximal cones at ridge {sorted(ridge)} lie on one side of it"
            raise InvariantViolation(top, "orientation", message)
    for cone, tau in sub.pushforward.items():
        normals = [lattice.dual_generators[s] for s in lattice.faces[tau].normals]
        if any(dot(u, sub.rays[i]) for u in normals for i in cone):
            raise InvariantViolation(tau, "pushforward", f"cone {sorted(cone)} leaves its face")
    # Cramer's rule: a point lies in a simplicial cone when putting it in
    # place of any one generator never flips the sign of the determinant
    first = sub.maximal[0]
    point = vector_sum([sub.rays[i] for i in first], n)
    for c, sign in oriented[1:]:
        rows = [sub.rays[i] for i in sorted(c)]
        if all(_sign(rows[:k] + [point] + rows[k + 1 :]) in (0, sign) for k in range(n)):
            message = f"maximal cones {sorted(first)} and {sorted(c)} overlap"
            raise InvariantViolation(top, "degree", message)
