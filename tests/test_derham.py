import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from icstalks import derham
from icstalks.cones import dot, dual_cone, face_lattice, primitive, rank_of
from icstalks.decomposition import solve_decomposition
from icstalks.derham import (
    check_main_identity,
    derham_by_elimination,
    derham_table,
    stalk_chi_y,
    stalk_formula,
)
from icstalks.differentials import omega_closed_form, omega_from_fiber_poincare, omega_oracle
from icstalks.errors import CrossCheckMismatch, NonIntegralExponent, NotFullDimensional
from icstalks.golden import golden_derham, local_h, toric_g
from icstalks.polynomials import BiLaurentPolynomial, LaurentPolynomial
from icstalks.subdivision import barycentric_subdivision, multiplicity_table
from polys import (
    K_INV,
    K_INV_PLUS_L_INV,
    L_INV,
    L_VAR,
    bipoly_from_triples,
    monomial,
    poly_from_pairs,
)
from test_cones import _cones, _sheared_and_permuted, face_id
from test_golden import CONES, FANS, _g, _lattice, _pipeline

SQUARE = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
CUBE = [(x, y, z, 1) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


def solved(rays, rank=None):
    lat = face_lattice(rays, rank=rank)
    sub = barycentric_subdivision(lat)
    d = multiplicity_table(sub)
    return lat, sub, d, solve_decomposition(lat, d)


def test_derham_zero_zero_is_binomial_power():
    for rays, rank, n in (([], 0, 0), ([(1,)], None, 1), (SQUARE, None, 3), (CUBE, None, 4)):
        lat, _, _, dec = solved(rays, rank)
        assert derham_table(dec)[0, lat.zero_id] == K_INV_PLUS_L_INV**n


def test_derham_square_cone_sigma():
    lat, _, _, dec = solved(SQUARE)
    assert derham_table(dec)[0, lat.top_id] == bipoly_from_triples(
        [(0, -3, 1), (-1, -1, 1)]
    )


def test_derham_two_face_of_cube():
    lat, _, _, dec = solved(CUBE)
    expected = K_INV_PLUS_L_INV**2 * monomial(0, -2)
    table = derham_table(dec)
    for fid in lat.faces_of_dim(2):
        assert table[0, fid] == expected


def test_derham_diagonal():
    # on the diagonal the stalk is q^0, leaving the smooth-point factor
    # (K^{-1}+L^{-1})^{n-d}; for the full cone that is K^0 L^0
    lat, _, _, dec = solved(SQUARE)
    table = derham_table(dec)
    for f in lat.faces:
        expected = K_INV_PLUS_L_INV ** (lat.rank - f.dim)
        assert table[f.id, f.id] == expected
    assert table[lat.top_id, lat.top_id] == BiLaurentPolynomial.one()


def test_derham_simplicial_face_formula():
    # for a simplicial face the stalk is q^{-d}, so the table entry is
    # L^{-d} (K^{-1}+L^{-1})^{n-d}
    lat, _, _, dec = solved(CUBE)
    table = derham_table(dec)
    for f in lat.faces:
        if f.dim and len(f.rays) == f.dim:
            expected = (
                monomial(0, -f.dim)
                * K_INV_PLUS_L_INV ** (lat.rank - f.dim)
            )
            assert table[0, f.id] == expected


def test_elimination_empty_sum_at_zero_face():
    lat, sub, d, dec = solved(SQUARE)
    om = omega_closed_form(d, lat.zero_id)
    assert derham_by_elimination(dec, derham_table(dec), om, lat.zero_id) == K_INV_PLUS_L_INV**3


def test_elimination_square_cone_sigma():
    lat, sub, d, dec = solved(SQUARE)
    om = omega_oracle(sub, lat.top_id)
    table = derham_table(dec)
    got = derham_by_elimination(dec, table, om, lat.top_id)
    assert got == bipoly_from_triples([(0, -3, 1), (-1, -1, 1)])
    assert got == table[0, lat.top_id]


def test_main_identity_all_faces_square():
    lat, sub, d, dec = solved(SQUARE)
    table = derham_table(dec)
    for f in lat.faces:
        check_main_identity(dec, table, omega_oracle(sub, f.id), f.id)
        check_main_identity(dec, table, omega_closed_form(d, f.id), f.id)


def test_main_identity_detects_corruption():
    lat, sub, d, dec = solved(SQUARE)
    om = omega_oracle(sub, lat.top_id) + monomial(0, 0)
    with pytest.raises(CrossCheckMismatch):
        check_main_identity(dec, derham_table(dec), om, lat.top_id)


def test_derham_table_covers_nested_pairs():
    lat, _, _, dec = solved(SQUARE)
    table = derham_table(dec)
    expected_pairs = sum(
        1 for a in lat.faces for b in lat.faces if lat.leq(a.id, b.id)
    )
    assert len(table) == expected_pairs
    for poly in table.values():
        assert poly.is_integer() and poly.is_nonnegative()


def test_chi_y_simplicial_full_cone():
    lat, _, _, dec = solved([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    dr = derham_table(dec)[0, lat.top_id]  # L^{-3}
    assert dr.chi_y() == LaurentPolynomial({0: -1})


def test_chi_y_square_cone():
    lat, _, _, dec = solved(SQUARE)
    dr = derham_table(dec)[0, lat.top_id]
    # L^{-3} + K^{-1}L^{-1} evaluates to -1 + y at K = (-y)^{-1}, L = -1,
    # matching the stalk-side product (1 + q^2)|_{q^2=-y} * (-1)^3
    assert dr.chi_y() == poly_from_pairs([(0, -1), (1, 1)])
    assert dr.chi_y() == stalk_chi_y(dec.htilde(0, lat.top_id), 3, 3)


def test_chi_y_identity_all_faces_cube():
    lat, _, _, dec = solved(CUBE)
    table = derham_table(dec)
    for f in lat.faces:
        assert table[0, f.id].chi_y() == stalk_chi_y(dec.htilde(0, f.id), f.dim, 4)


def test_interval_consistency_against_quotient_geometry():
    # the table entry for (ray, sigma) of a 4-dim cone equals the (0, sigma')
    # entry of the actual 3-dim cone over the vertex figure
    cube, _, _, dec_cube = solved(CUBE)
    tri, _, _, dec_tri = solved([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    table, expected = derham_table(dec_cube), derham_table(dec_tri)[0, tri.top_id]
    for ray in cube.faces_of_dim(1):
        assert table[ray, cube.top_id] == expected
    octa, _, _, dec_octa = solved(
        [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]
    )
    square, _, _, dec_square = solved(SQUARE)
    table, expected = derham_table(dec_octa), derham_table(dec_square)[0, square.top_id]
    for ray in octa.faces_of_dim(1):
        assert table[ray, octa.top_id] == expected


def _q2_image(series):
    """A series in q^2 with q^2 -> K^{-1} L^2, one power at a time."""
    q2, q2_inv = K_INV * L_VAR**2, monomial(1, 0) * L_INV**2
    out = BiLaurentPolynomial({})
    for e, c in series.items():
        assert e % 2 == 0, f"q^{e} in a series in q^2"
        out = out + c * (q2 if e > 0 else q2_inv) ** abs(e // 2)
    return out


def _reference_derham(h, d_mu, d_tau, n):
    """h(K^{-1/2} L) K^{(d_mu - d_tau)/2} (K^{-1} + L^{-1})^{n - d_tau}, spelled out.

    q^{d_tau - d_mu} h is a series in q^2, so h(K^{-1/2} L) K^{(d_mu - d_tau)/2}
    is its image under q^2 -> K^{-1} L^2 times L^{d_mu - d_tau}.
    """
    e = d_tau - d_mu
    return _q2_image(h.shift(e)) * L_INV**e * K_INV_PLUS_L_INV ** (n - d_tau)


def _reference_fiber_omega(fiber, n, d_tau):
    """L^{-n} (1 + K^{-1} L)^{n - d_tau} F(L K^{-1/2}), spelled out; F is a series in q^2."""
    one = BiLaurentPolynomial.one()
    return L_INV**n * (one + K_INV * L_VAR) ** (n - d_tau) * _q2_image(fiber)


@pytest.mark.parametrize("name", CONES)
def test_stalk_map_matches_the_spelled_out_forms(name):
    # dR, the fiber form of Omega and golden dR all go through one map; each
    # equals its own (K, L) spelling on every pair and face of both fans
    lat = _lattice(name)
    n = lat.rank
    for fan in FANS:
        _, dec = _pipeline(name, fan)
        table = derham_table(dec)
        for (mu, tau), got in table.items():
            expected = _reference_derham(dec.htilde(mu, tau), lat.dim(mu), lat.dim(tau), n)
            assert got == expected
            assert got.to_json_obj() == expected.to_json_obj()
        for f in lat.faces:
            got = omega_from_fiber_poincare(dec.F[f.id], n, f.dim)
            expected = _reference_fiber_omega(dec.F[f.id], n, f.dim)
            assert got == expected
            assert got.to_json_obj() == expected.to_json_obj()
    g = _g(name)
    golden = golden_derham(lat, g)
    for f in lat.faces:
        assert golden[f.id] == _reference_derham(g[lat.zero_id, f.id], 0, f.dim, n)


def _random_stalks(seed, parity):
    """Series with int and Fraction coefficients on exponents of one parity."""
    rng = random.Random(seed)
    for _ in range(30):
        yield LaurentPolynomial(
            {
                2 * rng.randint(-4, 2) + parity: rng.choice(
                    [rng.randint(-3, 3), Fraction(rng.randint(-7, 7), rng.randint(1, 4))]
                )
                for _ in range(rng.randint(0, 5))
            }
        )


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_stalk_map_matches_the_spelled_out_form_off_the_zero_face(n):
    # Fraction coefficients (some with denominator 2, so a product may turn
    # integral) and every d_mu <= d_tau <= n, not only d_mu = 0
    for d_tau in range(n + 1):
        for d_mu in range(d_tau + 1):
            for h in _random_stalks(f"{n} {d_mu} {d_tau}", (d_tau - d_mu) % 2):
                got = stalk_formula(h, d_mu, d_tau, n)
                expected = _reference_derham(h, d_mu, d_tau, n)
                assert got == expected
                assert got.to_json_obj() == expected.to_json_obj()
                assert [type(c) for _, c in got.items()] == [
                    type(expected.coefficient(*k)) for k, _ in got.items()
                ]


@pytest.mark.parametrize("d_mu, d_tau, n", [(0, 3, 3), (1, 2, 4), (0, 1, 5), (2, 4, 4)])
def test_stalk_map_raises_the_spelled_out_message_on_a_parity_violation(d_mu, d_tau, n):
    # the first degree of h whose parity is not that of d_tau - d_mu is named
    h = poly_from_pairs([(d_tau - d_mu - 1, 2), (d_tau - d_mu - 2, Fraction(1, 3))])
    with pytest.raises(NonIntegralExponent) as got:
        stalk_formula(h, d_mu, d_tau, n)
    assert str(got.value) == (
        f"degree {d_tau - d_mu - 1} of the stalk series does not have the parity of "
        f"d_tau - d_mu = {d_tau} - {d_mu}"
    )


def test_derham_names_the_pair_on_a_parity_violation():
    lat, _, _, dec = solved(SQUARE)
    dec.Htilde[(lat.zero_id, lat.top_id)] = LaurentPolynomial.term(-2)
    with pytest.raises(NonIntegralExponent, match=rf"faces \({lat.zero_id}, {lat.top_id}\)"):
        derham_table(dec)


@pytest.mark.parametrize("mu_dim", [1, 2])
def test_elimination_names_the_face_on_a_parity_violation(mu_dim):
    # D_mu(L^{-1} K^{1/2}) K^{-d_mu/2} needs every degree of D_mu of the
    # parity of d_mu; the stalk route's table is left intact
    lat, sub, _, dec = solved(SQUARE)
    table = derham_table(dec)
    mu = lat.faces_of_dim(mu_dim)[0]
    dec.D[mu] = dec.D[mu] + LaurentPolynomial.term(mu_dim + 1)
    om = omega_oracle(sub, lat.top_id)
    message = rf"D at face {mu} has degree {mu_dim + 1}, not of the parity of d_mu = {mu_dim}"
    with pytest.raises(NonIntegralExponent, match=message):
        derham_by_elimination(dec, table, om, lat.top_id)
    with pytest.raises(NonIntegralExponent, match=message):
        check_main_identity(dec, table, om, lat.top_id)


def test_derham_table_maps_each_distinct_key_once(monkeypatch):
    lat = _lattice("cube5")
    _, dec = _pipeline("cube5", "barycentric")
    keys = {(h, lat.dim(mu), lat.dim(tau)) for (mu, tau), h in dec.Htilde.items()}
    calls = []

    def counted(*args):
        calls.append(args)
        return stalk_formula(*args)

    monkeypatch.setattr(derham, "stalk_formula", counted)
    table = derham_table(dec)
    assert (len(table), len(keys), len(calls)) == (707, 21, 21)


def _extreme_rays(rays, rank):
    """The primitive generators of the extreme rays among ``rays``, in order."""
    normals = dual_cone(rays, rank)
    out = []
    for r in rays:
        p = primitive(r)
        if p not in out and rank_of([u for u in normals if dot(u, r) == 0]) == rank - 1:
            out.append(p)
    return out


def _face_map(lat, moved, order):
    """Each face id of ``lat`` to its id in ``moved``, whose ray k is ray order[k]."""
    new = {old: k for k, old in enumerate(order)}
    return {f.id: face_id(moved, (new[i] for i in f.rays)) for f in lat.faces}


def _check_random_cone(cone):
    """Golden, spelled-out and closure checks, and invariance under a shear.

    The shear is seeded by the cone: a signed permutation of coordinates, a
    transvection and a new ray order, so every face id may change.
    """
    rays, rank = cone
    try:
        rays = _extreme_rays(rays, rank)
    except NotFullDimensional:
        return
    lat = face_lattice(rays, rank)
    moved_rays, order = _sheared_and_permuted(rays, repr(cone))
    moved = face_lattice(moved_rays, rank)
    phi = _face_map(lat, moved, order)
    g, dual_g = toric_g(lat), toric_g(lat, dual=True)
    for fan, subdivide in FANS.items():
        sub = subdivide(lat)
        d = multiplicity_table(sub)
        dec = solve_decomposition(lat, d)
        d_moved = multiplicity_table(subdivide(moved))
        dec_moved = solve_decomposition(moved, d_moved)
        assert dec.Htilde == g
        assert dec_moved.Htilde == {(phi[mu], phi[tau]): h for (mu, tau), h in g.items()}
        assert dec.D == local_h(lat, d, dual_g)
        assert dec_moved.D == {phi[tau]: h for tau, h in dec.D.items()}
        table = derham_table(dec)
        for (mu, tau), got in table.items():
            assert got == _reference_derham(g[mu, tau], lat.dim(mu), lat.dim(tau), rank)
        assert derham_table(dec_moved) == {(phi[m], phi[t]): dr for (m, t), dr in table.items()}
        for f in lat.faces:
            fiber_form = omega_from_fiber_poincare(dec.F[f.id], rank, f.dim)
            assert omega_closed_form(d, f.id) == fiber_form
            moved_fiber = omega_from_fiber_poincare(dec_moved.F[phi[f.id]], rank, f.dim)
            assert omega_closed_form(d_moved, phi[f.id]) == moved_fiber == fiber_form
            # verify closes the barycentric fan; only this test closes the other
            if fan == "interior-ray":
                check_main_identity(dec, table, omega_oracle(sub, f.id), f.id)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(_cones(pointed=True, ranks=(3, 4)))
def test_random_cones_match_golden_and_the_spelled_out_forms(cone):
    # a random cone has few symmetries, so the pairs that share a memo key
    # mostly do so by accident, not by an automorphism of the cone
    _check_random_cone(cone)


@pytest.mark.slow
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(_cones(pointed=True, ranks=(5, 5)))
def test_random_rank5_cones_match_golden_and_the_spelled_out_forms(cone):
    _check_random_cone(cone)


def test_fiber_form_of_odd_support_raises():
    with pytest.raises(NonIntegralExponent):
        omega_from_fiber_poincare(poly_from_pairs([(1, 1)]), 3, 3)
