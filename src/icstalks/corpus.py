"""Built-in cone corpus: orthants, cones over polygons, cube, octahedron."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cones import FaceLattice, Vector, face_lattice


@dataclass(frozen=True)
class ConeSpec:
    """A named cone given by ray generators, with optional expected counts."""

    name: str
    rank: int
    rays: tuple[Vector, ...]
    expected_face_counts: tuple[int, ...] = ()

    def lattice(self) -> FaceLattice:
        return face_lattice(list(self.rays), rank=self.rank)


def orthant(n: int) -> ConeSpec:
    rays = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return ConeSpec(
        name=f"orthant-{n}",
        rank=n,
        rays=rays,
        expected_face_counts=tuple(comb(n, k) for k in range(n + 1)),
    )


def polygon_cone(m: int) -> ConeSpec:
    """Cone over a convex m-gon at height 1 (integer vertices)."""
    if m == 3:
        verts = [(0, 0), (1, 0), (0, 1)]
    elif m == 4:
        verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    else:
        # vertices on a parabola are in convex position for every m
        verts = [(k, k * k) for k in range(m)]
    rays = tuple((x, y, 1) for x, y in verts)
    return ConeSpec(
        name=f"polygon-{m}", rank=3, rays=rays, expected_face_counts=(1, m, m, 1)
    )


POINT = ConeSpec(name="point", rank=0, rays=(), expected_face_counts=(1,))

CUBE = ConeSpec(
    name="cube",
    rank=4,
    rays=tuple((x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)),
    expected_face_counts=(1, 8, 12, 6, 1),
)

OCTAHEDRON = ConeSpec(
    name="octahedron",
    rank=4,
    rays=(
        (1, 0, 0, 1),
        (-1, 0, 0, 1),
        (0, 1, 0, 1),
        (0, -1, 0, 1),
        (0, 0, 1, 1),
        (0, 0, -1, 1),
    ),
    expected_face_counts=(1, 6, 12, 8, 1),
)

CORPUS: tuple[ConeSpec, ...] = (
    POINT,
    orthant(1),
    orthant(2),
    orthant(3),
    orthant(4),
    polygon_cone(3),
    polygon_cone(4),
    polygon_cone(5),
    polygon_cone(6),
    polygon_cone(7),
    polygon_cone(8),
    CUBE,
    OCTAHEDRON,
)


def corpus_by_name(name: str) -> ConeSpec:
    for spec in CORPUS:
        if spec.name == name:
            return spec
    raise ValueError(f"no corpus cone named {name!r}")


def _json_type(x) -> str:
    """The JSON type of a decoded value, named without printing the value."""
    names = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array"}
    return "null" if x is None else names.get(type(x), "object")


def _json_int(x) -> int:
    # bool is an int in Python, but not a JSON integer
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected a JSON integer, got a JSON {_json_type(x)}")
    return x


def _json_list(x) -> list:
    if not isinstance(x, list):
        raise ValueError(f"expected a JSON array, got a JSON {_json_type(x)}")
    return x


def load_cone_spec(obj: dict) -> ConeSpec:
    """Parse the CLI input format {"name", "rank", "rays"}.

    ``rank`` and every number in ``rays`` and ``expected_face_counts`` must be
    a JSON integer, ``rays`` an array of arrays, ``expected_face_counts`` an
    array and ``name`` a string (``"cone"`` when absent); anything else
    raises ``ValueError``.
    """
    if not isinstance(obj, dict):
        raise ValueError("cone spec must be a JSON object")
    try:
        rank = _json_int(obj["rank"])
        rays = tuple(tuple(map(_json_int, _json_list(r))) for r in _json_list(obj["rays"]))
        expected = tuple(map(_json_int, _json_list(obj.get("expected_face_counts", []))))
    except KeyError as exc:
        raise ValueError(f"malformed cone spec: missing key {exc}") from exc
    if any(len(r) != rank for r in rays):
        raise ValueError("every ray must have exactly `rank` entries")
    name = obj.get("name", "cone")
    if not isinstance(name, str):
        raise ValueError(f"cone name must be a JSON string, got a JSON {_json_type(name)}")
    return ConeSpec(name=name, rank=rank, rays=rays, expected_face_counts=expected)
