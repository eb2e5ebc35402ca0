"""The golden route (toric g, local h) against closed forms, literals and the solver."""

import itertools
import json
from functools import cache
from math import comb

import pytest

from icstalks.cli import main
from icstalks.cones import face_lattice
from icstalks.corpus import CORPUS
from icstalks.decomposition import solve_decomposition
from icstalks.golden import golden_derham, local_h, toric_g
from icstalks.polynomials import LaurentPolynomial
from icstalks.subdivision import (
    barycentric_subdivision,
    interior_ray_subdivision,
    multiplicity_table,
)
from polys import K_INV, K_INV_PLUS_L_INV, bipoly_from_triples, monomial, poly_from_pairs

L = LaurentPolynomial
SIMPLEX5 = [(0, 0, 0, 0, 1)] + [tuple(int(i == j) for j in range(4)) + (1,) for i in range(4)]
CUBE5 = [v + (1,) for v in itertools.product((0, 1), repeat=4)]
CROSS5 = [tuple(s * (i == j) for j in range(4)) + (1,) for i in range(4) for s in (1, -1)]
CONES = {spec.name: (list(spec.rays), spec.rank) for spec in CORPUS}
CONES.update(simplex5=(SIMPLEX5, 5), cube5=(CUBE5, 5), cross5=(CROSS5, 5))
FANS = {"barycentric": barycentric_subdivision, "interior-ray": interior_ray_subdivision}


@cache
def _lattice(name):
    rays, rank = CONES[name]
    return face_lattice(rays, rank=rank)


@cache
def _pipeline(name, fan):
    """The multiplicity table and the solved decomposition of one fan."""
    lat = _lattice(name)
    d = multiplicity_table(FANS[fan](lat))
    return d, solve_decomposition(lat, d)


@cache
def _g(name, dual=False):
    return toric_g(_lattice(name), dual=dual)


# -- the closed forms for ranks up to 4, kept as the reference ---------------


def _reference_stalks(lattice):
    """Ht_{0,tau} by face dimension and ray count."""
    out = {}
    for f in lattice.faces:
        v = len(f.rays)
        if f.dim <= 2:
            out[f.id] = L.term(-f.dim)
        elif f.dim == 3:
            out[f.id] = poly_from_pairs([(-3, 1), (-1, v - 3)])
        else:
            out[f.id] = poly_from_pairs([(-4, 1), (-2, v - 4)])
    return out


def _reference_interior_multiplicities(lattice):
    """D_tau of the interior-ray fan by face dimension and ray count."""
    n = lattice.rank
    out = {}
    for f in lattice.faces:
        if f.id == lattice.zero_id:
            out[f.id] = L.one()
        elif f.dim < min(n, 3):
            out[f.id] = L({})
        elif f.dim == n:
            if n <= 2:
                out[f.id] = L({})
            elif n == 3:
                out[f.id] = poly_from_pairs([(1, 1), (-1, 1)])
            else:
                out[f.id] = poly_from_pairs([(2, 1), (0, len(f.rays) - 3), (-2, 1)])
        elif f.dim == 3:
            out[f.id] = poly_from_pairs([(1, 1), (-1, 1)])
        else:
            out[f.id] = L({})
    return out


def _reference_derham(lattice):
    """dR_{0,tau} by face dimension and ray count."""
    n = lattice.rank
    out = {}
    for f in lattice.faces:
        v = len(f.rays)
        cofactor = K_INV_PLUS_L_INV ** (n - f.dim)
        if f.dim <= 2:
            out[f.id] = cofactor * monomial(0, -f.dim)
        elif f.dim == 3:
            out[f.id] = cofactor * (monomial(0, -3) + (v - 3) * K_INV * monomial(0, -1))
        else:
            out[f.id] = bipoly_from_triples([(0, -4, 1), (-1, -2, v - 4)])
    return out


@pytest.mark.parametrize("name", [spec.name for spec in CORPUS])
def test_route_reproduces_the_closed_forms(name):
    lat = _lattice(name)
    g = _g(name)
    assert {tau: g[lat.zero_id, tau] for tau in range(len(lat.faces))} == _reference_stalks(lat)
    d, _ = _pipeline(name, "interior-ray")
    assert local_h(lat, d, _g(name, dual=True)) == _reference_interior_multiplicities(lat)
    assert golden_derham(lat, g) == _reference_derham(lat)


# -- frozen literals ---------------------------------------------------------


@pytest.mark.parametrize(
    "name, fan, expected",
    [
        ("cube", "interior-ray", [(-2, 1), (0, 5), (2, 1)]),
        ("cube", "barycentric", [(-2, 1), (0, 17), (2, 1)]),
        ("simplex5", "barycentric", [(-3, 1), (-1, 21), (1, 21), (3, 1)]),
        ("cube5", "barycentric", [(-3, 1), (-1, 68), (1, 68), (3, 1)]),
        ("cross5", "barycentric", [(-3, 1), (-1, 60), (1, 60), (3, 1)]),
    ],
)
def test_center_local_h_literals(name, fan, expected):
    lat = _lattice(name)
    d, _ = _pipeline(name, fan)
    assert local_h(lat, d, _g(name, dual=True))[lat.top_id] == poly_from_pairs(expected)


# -- the solver agrees at every rank -----------------------------------------


@pytest.mark.parametrize("fan", sorted(FANS))
@pytest.mark.parametrize("name", sorted(CONES))
def test_route_matches_the_solver(name, fan):
    lat = _lattice(name)
    d, dec = _pipeline(name, fan)
    assert _g(name) == dec.Htilde
    assert local_h(lat, d, _g(name, dual=True)) == dec.D


def test_verify_at_rank_5_fails_only_the_red_check(capsys, tmp_path):
    path = tmp_path / "simplex5.json"
    path.write_text(json.dumps({"name": "simplex5", "rank": 5, "rays": SIMPLEX5}))
    code = main(["verify", "--cone", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    failed = [c["name"] for c in payload["checks"] if not c["passed"]]
    assert failed == ["center-multiplicity-independence"]


# -- intersection Betti numbers of projective toric varieties ----------------

# a square pyramid: the cone over it has one non-simplicial proper face
PYRAMID = [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (2, 2, 0, 1), (1, 1, 1, 1)]
TORIC_H = {
    "cube": [1, 5, 5, 1],
    "octahedron": [1, 3, 3, 1],
    "pyramid": [1, 2, 2, 1],
    "cube5": [1, 12, 14, 12, 1],
    "polygon-5": [1, 3, 1],
}
SIMPLICIAL = ["octahedron", "simplex5"] + [f"polygon-{m}" for m in range(3, 9)]


def _solved(name):
    if name == "pyramid":
        lat = face_lattice(PYRAMID)
        return lat, solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    return _lattice(name), _pipeline(name, "barycentric")[1]


@pytest.mark.parametrize("name", sorted(set(CONES) - {"point"}) + ["pyramid"])
def test_intersection_betti_numbers_from_the_stalks(name):
    # sigma is the cone over a polytope P of dimension d = n - 1, and the fan
    # over P's proper faces gives a projective toric variety; its IC Betti
    # numbers are Stanley's toric h(P; x) = sum_F g(F; x) (x - 1)^(d - 1 - dim F)
    # over the proper faces F of P, the empty face included, where g(F; x)
    # is q^dim(tau) Ht_{0,tau} for tau the cone over F, and x = q^2
    lat, dec = _solved(name)
    n, top = lat.rank, lat.top_id
    x_minus_1 = poly_from_pairs([(2, 1), (0, -1)])
    toric_h = sum(
        dec.htilde(lat.zero_id, f.id).shift(f.dim) * x_minus_1 ** (n - 1 - f.dim)
        for f in lat.faces
        if f.id != top
    )
    assert all(e % 2 == 0 for e in toric_h.support())
    h = [toric_h.coefficient(2 * j) for j in range(n)]
    assert toric_h == poly_from_pairs((2 * j, c) for j, c in enumerate(h))
    # Dehn-Sommerville, and hard Lefschetz on the projective variety
    assert h == h[::-1]
    assert all(c >= 0 for c in h)
    assert all(a <= b for a, b in zip(h[: n // 2], h[1:]))
    assert h == TORIC_H.get(name, h)
    # where P is simplicial, its f-vector gives h with no g at all
    simplicial = all(len(f.rays) == f.dim for f in lat.faces if f.id != top)
    assert simplicial or name not in SIMPLICIAL
    if simplicial:
        f_vector = [len(lat.faces_of_dim(i)) for i in range(n)]
        assert h == [
            sum((-1) ** (j - i) * comb(n - 1 - i, j - i) * f_vector[i] for i in range(j + 1))
            for j in range(n)
        ]
