"""Benchmark workloads: seeded inputs, one pass of work, and output digests.

A workload is a list of cones plus a pass function.  A pass rebuilds every
object from ray tuples, so no cache attached to a lattice or fan (chain
counter, interval stalk solver, Ishida term and block caches) survives from
one pass to the next.  A pass returns one outcome per operation:

  * ``corpus-verify``: an operation is one (cone, check) of
    ``verify.run_corpus``; its outcome is the check's pass/fail verdict.
  * ``polygon-lattice`` and ``rank5-fans``: an operation is one cone's
    pipeline; its outcome is a digest of outputs that do not depend on how a
    fan numbers its rays or orders its cones, or ``error: ...`` if it raised.

Seed 0 gives the cones as written.  Any other seed applies to every cone a
unimodular change of coordinates: a seeded signed permutation of the
coordinates followed by one elementary column operation
``col_j += s * col_i`` (``s = +-1``).  All outputs are invariant under it, so
the reference outcomes are the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Callable

Ray = tuple[int, ...]


@dataclass(frozen=True)
class Cone:
    name: str
    rank: int
    rays: tuple[Ray, ...]
    interior_fan: bool = False  # also build the interior-ray fan
    expected_face_counts: tuple[int, ...] = ()  # golden data read by verify


def simplex_cone(n: int) -> Cone:
    """Cone over the standard (n-1)-simplex at height 1."""
    verts = [(0,) * (n - 1)] + [
        tuple(1 if i == j else 0 for j in range(n - 1)) for i in range(n - 1)
    ]
    return Cone(f"simplex{n}", n, tuple(v + (1,) for v in verts))


def cube_cone(n: int) -> Cone:
    """Cone over the (n-1)-cube with 0/1 vertices at height 1."""
    verts = [()]
    for _ in range(n - 1):
        verts = [v + (x,) for v in verts for x in (0, 1)]
    return Cone(f"cube{n}", n, tuple(v + (1,) for v in verts))


def cross_cone(n: int) -> Cone:
    """Cone over the (n-1)-cross-polytope (vertices +-e_i) at height 1."""
    rays = []
    for i in range(n - 1):
        for s in (1, -1):
            rays.append(tuple(s if j == i else 0 for j in range(n - 1)) + (1,))
    return Cone(f"cross{n}", n, tuple(rays))


def _from_spec(spec) -> Cone:
    return Cone(spec.name, spec.rank, spec.rays, expected_face_counts=spec.expected_face_counts)


def polygon_cones(lo: int, hi: int) -> list[Cone]:
    from icstalks.corpus import polygon_cone

    return [_from_spec(polygon_cone(m)) for m in range(lo, hi + 1)]


def corpus_cones() -> list[Cone]:
    from icstalks.corpus import CORPUS

    return [_from_spec(spec) for spec in CORPUS]


def rank5_cones() -> list[Cone]:
    return [replace(simplex_cone(5), interior_fan=True), cube_cone(5), cross_cone(5)]


# -- seeded unimodular shear -------------------------------------------------


def shear(cone: Cone, seed: int) -> Cone:
    """The cone in new lattice coordinates chosen by ``seed`` (0: unchanged)."""
    n = cone.rank
    if seed == 0 or n < 2:
        return cone
    rng = random.Random(f"{seed}:{cone.name}")
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    i, j = rng.sample(range(n), 2)
    s = rng.choice((1, -1))
    out = []
    for r in cone.rays:
        v = [signs[k] * r[perm[k]] for k in range(n)]
        v[j] += s * v[i]
        out.append(tuple(v))
    return replace(cone, rays=tuple(out))


# -- digests -----------------------------------------------------------------


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fan_shape(sub) -> dict:
    """Cone counts of a fan by dimension; independent of ray numbering."""
    return {str(k): len(v) for k, v in sorted(sub.cones_by_dim().items())}


def run_pipeline(cone: Cone) -> dict:
    """The per-cone pipeline; returns its outputs."""
    import icstalks as ic

    lat = ic.face_lattice([tuple(r) for r in cone.rays], rank=cone.rank)
    bary = ic.barycentric_subdivision(lat)
    d = ic.multiplicity_table(bary)
    dec = ic.solve_decomposition(lat, d)
    out = {
        "lattice": lat,
        "barycentric": bary,
        "d": d,
        "dec": dec,
        "derham": ic.derham_table(dec),
        "omega_closed": {f.id: ic.omega_closed_form(d, f.id) for f in lat.faces},
        "shelling": ic.lexicographic_shelling(lat, bary),
    }
    if cone.interior_fan:
        inter = ic.interior_ray_subdivision(lat)
        d_i = ic.multiplicity_table(inter)
        out.update(interior=inter, d_interior=d_i, dec_interior=ic.solve_decomposition(lat, d_i))
    return out


def pipeline_digest(out: dict) -> str:
    """Digest of the outputs that do not depend on a fan's ray numbering."""
    dr, omega = out["derham"], out["omega_closed"]
    obj = {
        "lattice": out["lattice"].to_json_obj(),
        "d": out["d"].to_json_obj(),
        "dec": out["dec"].to_json_obj(),
        "derham": [[mu, tau, dr[(mu, tau)].to_json_obj()] for mu, tau in sorted(dr)],
        "omega_closed": [[t, omega[t].to_json_obj()] for t in sorted(omega)],
        "shelling_types": sorted(out["shelling"].type_histogram().items()),
        "fan_barycentric": _fan_shape(out["barycentric"]),
    }
    if "interior" in out:
        obj["d_interior"] = out["d_interior"].to_json_obj()
        obj["dec_interior"] = out["dec_interior"].to_json_obj()
        obj["fan_interior"] = _fan_shape(out["interior"])
    return digest(obj)


def pipeline_pass(cones: list[Cone]) -> dict:
    outputs = {}
    for cone in cones:
        try:
            outputs[cone.name] = run_pipeline(cone)
        except Exception as exc:  # noqa: BLE001 - one failed cone is one failed operation
            outputs[cone.name] = f"error: {type(exc).__name__}: {exc}"
    return outputs


def pipeline_outcomes(outputs: dict) -> dict[str, str]:
    return {
        name: out if isinstance(out, str) else pipeline_digest(out)
        for name, out in outputs.items()
    }


def verify_pass(cones: list[Cone]):
    from icstalks.corpus import ConeSpec
    from icstalks.verify import run_corpus

    return run_corpus(
        [ConeSpec(c.name, c.rank, c.rays, c.expected_face_counts) for c in cones]
    )


def verify_outcomes(report) -> dict[str, str]:
    return {f"{c.cone}/{c.name}": "pass" if c.passed else "fail" for c in report.checks}


@dataclass(frozen=True)
class Workload:
    name: str
    cones: Callable[[], list[Cone]]
    run_pass: Callable[[list[Cone]], object]  # the timed work of one pass
    outcomes: Callable[[object], dict[str, str]]  # operation -> outcome, untimed

    def inputs(self, seed: int) -> list[Cone]:
        return [shear(c, seed) for c in self.cones()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus-verify", corpus_cones, verify_pass, verify_outcomes),
        Workload("polygon-lattice", lambda: polygon_cones(12, 17), pipeline_pass, pipeline_outcomes),
        Workload("rank5-fans", rank5_cones, pipeline_pass, pipeline_outcomes),
    )
}


def program_failed(outcome: str) -> bool:
    """Whether the program itself reported the operation as failed."""
    return outcome == "fail" or outcome.startswith("error:")
