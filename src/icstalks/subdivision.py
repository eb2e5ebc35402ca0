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
relative interiors hold its rays.  A ray is checked against its tag F
alone: zero on F's facet normals, and positive on one normal per facet of
F that cuts that facet out of F.  Its cones are reached in one walk down
from the maximal cones, one ray at a time, each cone once; a cone lies over
the join of its rays' tags, found with one join per cone from the facet
without its largest ray.  The multiplicity table d_l(tau) counts
l-dimensional cones whose minimal containing face of sigma, the join of
their rays' tags, is tau.  Each maximal cone's orientation, the sign of
its determinant, is derived with the cones and read by both
``_chain_subdivision`` and the validator.  All orientations come from one call of
``linalg.determinants``, each cone's rays in decreasing index order.  In
the barycentric fan an interior ray's index grows with its face's id, so
the rows run down the flag from sigma's centre, and the flags through the
same faces share the elimination of those rows (cube5: 384 maximal cones,
1/8/48/192 shared prefixes of 1 to 4 rows).

``validate_subdivision`` proves from those orientations that a fan
subdivides sigma: its maximal cones meet in pairs across every interior
ridge, from opposite sides, and one point lies in exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cones import FaceLattice, Vector, dot, primitive, vector_sum
from .errors import CrossCheckMismatch, InvariantViolation, NotSimplicialResult
from .linalg import determinants

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
    The cones come from a walk down from the maximal cones, which may have
    mixed sizes, dropping one ray at a time; then, in increasing size, each
    cone's face is the join of its facet without its largest ray with that
    ray's tag, one join per nonzero cone.  ``orientation`` holds each
    maximal cone's determinant sign, rays in index order: nonzero exactly
    when the cone has n independent rays, so is simplicial and n-dimensional.
    It is read off the determinant of the rays in decreasing index order,
    from one ``determinants`` walk over all maximal cones, times the sign
    (-1)^(n(n-1)/2) of reversing n rows; a cone without n rays gets 0.
    """

    lattice: FaceLattice
    rays: list[Vector]
    ray_face: list[int]
    maximal: list[ConeSet]
    cones: set[ConeSet] = field(init=False)
    pushforward: dict[ConeSet, int] = field(init=False)
    orientation: dict[ConeSet, int] = field(init=False)
    # memoized by ``differentials`` alone, not part of the fan's value: the
    # Ishida free columns per cone, pairings per (cone, ray), the cone layers
    # with their positions grouped by face ("layers"), the apex complexes per
    # form degree p (one walk builds all of them), the quotients per (face,
    # p), each degree's verdict per (face, u) and the first degree per face
    ishida_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        lattice = self.lattice
        faces, normals = lattice.faces, lattice.dual_generators
        for i, (ray, fid) in enumerate(zip(self.rays, self.ray_face)):
            own = faces[fid].normals if 0 <= fid < len(faces) else None
            if own is None or any(dot(normals[s], ray) for s in own) or any(
                dot(normals[min(faces[g].normals - own)], ray) <= 0 for g in lattice.below[fid]
            ):
                raise InvariantViolation(fid, "ray tag", f"ray {i} is not interior to its face")
        # walk down from the maximal cones one ray at a time, size by size,
        # so each cone is reached once however many maximal cones hold it
        size = max(map(len, self.maximal), default=-1)
        levels: list[set[ConeSet]] = [set() for _ in range(size + 1)]
        for c in self.maximal:
            levels[len(c)].add(c)
        for k in range(size, 0, -1):
            levels[k - 1].update(c - {i} for c in levels[k] for i in c)
        self.cones = set().union(*levels)
        # join the largest ray's tag onto the pushforward of the facet without
        # it: by associativity that is the join of all the ray tags
        join, tags = lattice.join, self.ray_face
        pushforward = {frozenset(): lattice.zero_id} if levels else {}
        for level in levels[1:]:
            for c in level:
                top = max(c)
                pushforward[c] = join(pushforward[c - {top}], tags[top])
        self.pushforward = pushforward
        # reversing n rows multiplies the determinant by (-1)^(n(n-1)/2)
        n = lattice.rank
        keys = {c: tuple(sorted(c, reverse=True)) for c in self.maximal if len(c) == n}
        dets = determinants(self.rays, keys.values())
        flip = -1 if n * (n - 1) // 2 % 2 else 1
        self.orientation = {}
        for c in self.maximal:
            det = dets[keys[c]] if c in keys else 0
            self.orientation[c] = flip * ((det > 0) - (det < 0))

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
    no chain cone may have more than n rays, which is counted before the
    fan is built; the maximal cones are the chain cones with n rays, and
    each must have a nonzero orientation, so it is simplicial and
    n-dimensional; then every cone of the fan is simplicial, being a
    face of one; every chain cone must lie in one of them, or it would be a
    maximal cone of fewer rays; and the fan's derived cones and pushforward
    must be the chain cones and their chain tops.
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
        for hid in (lattice.up[fid] - {fid}) & centre.keys():
            chains.extend((rs | {centre[fid]}, top) for rs, top in chains_from[hid])
        chains_from[fid] = chains

    top_of: dict[ConeSet, int] = {}
    for g in faces:
        if g.id in centre:
            continue
        top_of[g.rays] = g.id
        for fid in lattice.up[g.id] & centre.keys():
            for rs, top in chains_from[fid]:
                top_of[g.rays | rs] = top

    maximal = sorted((c for c in top_of if len(c) >= n), key=sorted)
    long = next((c for c in maximal if len(c) > n), None)
    if long is not None:
        raise NotSimplicialResult(f"{kind} maximal cone {sorted(long)} is not simplicial, {n}-dim")
    sub = SubdivisionMap(lattice=lattice, rays=rays, ray_face=ray_face, maximal=maximal)
    flat = next((c for c in maximal if not sub.orientation[c]), None)
    if flat is not None:
        raise NotSimplicialResult(f"{kind} maximal cone {sorted(flat)} is not simplicial, {n}-dim")
    if sub.pushforward != top_of:
        missing = [c for c in top_of if c not in sub.cones]
        if missing:
            cone = min(missing, key=sorted)
            raise NotSimplicialResult(f"{kind} cone {sorted(cone)} lies in no {n}-ray cone")
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
    counts = lattice.chain_counts(lattice.zero_id, tau)
    return counts[length] if 0 <= length < len(counts) else 0


def validate_subdivision(sub: SubdivisionMap) -> None:
    """Check that the fan subdivides sigma: one pass over the ridges, one point.

    A maximal cone's orientation, derived with the fan, is nonzero exactly
    when the cone is simplicial and n-dimensional, and orients the cone;
    this check takes no determinant of a maximal cone's own rows.  Every
    cone must lie in its pushforward face.  A ridge (a maximal cone minus
    one ray) must lie in one maximal cone over the boundary of sigma and in
    two otherwise, those two on opposite sides of it.  This suffices (De
    Loera, Rambau and Santos, *Triangulations*, ch. 4): such a
    pseudomanifold covers sigma with constant degree, since a generic point
    crossing an interior ridge leaves one cone as it enters the other, and
    a point inside one cone and in no other fixes that degree at 1.
    """
    lattice = sub.lattice
    n = lattice.rank
    top = lattice.top_id
    if not sub.maximal:
        raise InvariantViolation(top, "covering", "the fan has no maximal cone")
    oriented: list[tuple[ConeSet, int]] = []
    for c in sub.maximal:
        sign = sub.orientation[c]
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
    # a ray lies in a face whatever cone holds it, so each (ray, face) pair
    # is tested once, at the first cone that brings it
    tested: dict[int, set[int]] = {}
    for cone, tau in sub.pushforward.items():
        done = tested.setdefault(tau, set())
        fresh = cone - done
        if not fresh:
            continue
        done |= fresh
        normals = [lattice.dual_generators[s] for s in lattice.faces[tau].normals]
        if any(dot(u, sub.rays[i]) for u in normals for i in fresh):
            raise InvariantViolation(tau, "pushforward", f"cone {sorted(cone)} leaves its face")
    # Cramer's rule: a point lies in a simplicial cone when putting it in
    # place of any one generator never flips the sign of the determinant;
    # the point is row ``len(sub.rays)``, and one walk takes every such
    # determinant, none of them a maximal cone's own
    first, point = sub.maximal[0], len(sub.rays)
    vectors = [*sub.rays, vector_sum([sub.rays[i] for i in first], n)]
    replaced: dict[ConeSet, list[tuple[int, ...]]] = {}
    for c, _ in oriented[1:]:
        rows = sorted(c)
        replaced[c] = [(*rows[:k], point, *rows[k + 1 :]) for k in range(n)]
    dets = determinants(vectors, (key for keys in replaced.values() for key in keys))
    for c, sign in oriented[1:]:
        if all(sign * dets[key] >= 0 for key in replaced[c]):
            message = f"maximal cones {sorted(first)} and {sorted(c)} overlap"
            raise InvariantViolation(top, "degree", message)
