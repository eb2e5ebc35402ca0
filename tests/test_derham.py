import pytest

from icstalks import derham
from icstalks.cones import face_lattice
from icstalks.decomposition import solve_decomposition
from icstalks.derham import (
    check_main_identity,
    derham_by_elimination,
    derham_from_stalks,
    derham_table,
    stalk_chi_y,
)
from icstalks.differentials import omega_closed_form, omega_from_fiber_poincare, omega_oracle
from icstalks.errors import CrossCheckMismatch, NonIntegralExponent
from icstalks.golden import golden_derham
from icstalks.polynomials import (
    K_INV,
    K_INV_PLUS_L_INV,
    L_K_INV_HALF,
    L_VAR,
    BiLaurentPolynomial,
    LaurentPolynomial,
    bipoly_from_triples,
    poly_from_pairs,
)
from icstalks.subdivision import barycentric_subdivision, multiplicity_table
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
        assert derham_from_stalks(dec, 0, lat.zero_id) == K_INV_PLUS_L_INV**n


def test_derham_square_cone_sigma():
    lat, _, _, dec = solved(SQUARE)
    assert derham_from_stalks(dec, 0, lat.top_id) == bipoly_from_triples(
        [(0, -3, 1), (-2, -1, 1)]
    )


def test_derham_two_face_of_cube():
    lat, _, _, dec = solved(CUBE)
    expected = K_INV_PLUS_L_INV**2 * BiLaurentPolynomial.monomial(0, -2)
    for fid in lat.faces_of_dim(2):
        assert derham_from_stalks(dec, 0, fid) == expected


def test_derham_diagonal():
    # on the diagonal the stalk is q^0, leaving the smooth-point factor
    # (K^{-1}+L^{-1})^{n-d}; for the full cone that is K^0 L^0
    lat, _, _, dec = solved(SQUARE)
    for f in lat.faces:
        expected = K_INV_PLUS_L_INV ** (lat.rank - f.dim)
        assert derham_from_stalks(dec, f.id, f.id) == expected
    assert derham_from_stalks(dec, lat.top_id, lat.top_id) == BiLaurentPolynomial.one()


def test_derham_simplicial_face_formula():
    # for a simplicial face the stalk is q^{-d}, so the table entry is
    # L^{-d} (K^{-1}+L^{-1})^{n-d}
    lat, _, _, dec = solved(CUBE)
    for f in lat.faces:
        if f.dim and len(f.rays) == f.dim:
            expected = (
                BiLaurentPolynomial.monomial(0, -f.dim)
                * K_INV_PLUS_L_INV ** (lat.rank - f.dim)
            )
            assert derham_from_stalks(dec, 0, f.id) == expected


def test_elimination_empty_sum_at_zero_face():
    lat, sub, d, dec = solved(SQUARE)
    om = omega_closed_form(d, lat.zero_id)
    assert derham_by_elimination(dec, om, lat.zero_id) == K_INV_PLUS_L_INV**3


def test_elimination_square_cone_sigma():
    lat, sub, d, dec = solved(SQUARE)
    om = omega_oracle(sub, lat.top_id)
    got = derham_by_elimination(dec, om, lat.top_id)
    assert got == bipoly_from_triples([(0, -3, 1), (-2, -1, 1)])
    assert got == derham_from_stalks(dec, 0, lat.top_id)


def test_main_identity_all_faces_square():
    lat, sub, d, dec = solved(SQUARE)
    for f in lat.faces:
        check_main_identity(dec, omega_oracle(sub, f.id), f.id)
        check_main_identity(dec, omega_closed_form(d, f.id), f.id)


def test_main_identity_detects_corruption():
    lat, sub, d, dec = solved(SQUARE)
    om = omega_oracle(sub, lat.top_id) + BiLaurentPolynomial.monomial(0, 0)
    with pytest.raises(CrossCheckMismatch):
        check_main_identity(dec, om, lat.top_id)


def test_derham_table_covers_nested_pairs():
    lat, _, _, dec = solved(SQUARE)
    table = derham_table(dec)
    expected_pairs = sum(
        1 for a in lat.faces for b in lat.faces if lat.leq(a.id, b.id)
    )
    assert len(table) == expected_pairs
    for poly in table.values():
        assert poly.is_integral and poly.is_integer() and poly.is_nonnegative()


def test_chi_y_simplicial_full_cone():
    lat, _, _, dec = solved([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    dr = derham_from_stalks(dec, 0, lat.top_id)  # L^{-3}
    assert dr.chi_y() == LaurentPolynomial({0: -1})


def test_chi_y_square_cone():
    lat, _, _, dec = solved(SQUARE)
    dr = derham_from_stalks(dec, 0, lat.top_id)
    # L^{-3} + K^{-1}L^{-1} evaluates to -1 + y at K = (-y)^{-1}, L = -1,
    # matching the stalk-side product (1 + q^2)|_{q^2=-y} * (-1)^3
    assert dr.chi_y() == poly_from_pairs([(0, -1), (1, 1)])
    assert dr.chi_y() == stalk_chi_y(dec.htilde(0, lat.top_id), 3, 3)


def test_chi_y_identity_all_faces_cube():
    lat, _, _, dec = solved(CUBE)
    for f in lat.faces:
        dr = derham_from_stalks(dec, 0, f.id)
        assert dr.chi_y() == stalk_chi_y(dec.htilde(0, f.id), f.dim, 4)


def test_interval_consistency_against_quotient_geometry():
    # the table entry for (ray, sigma) of a 4-dim cone equals the (0, sigma')
    # entry of the actual 3-dim cone over the vertex figure
    cube, _, _, dec_cube = solved(CUBE)
    tri, _, _, dec_tri = solved([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    for ray in cube.faces_of_dim(1):
        assert derham_from_stalks(dec_cube, ray, cube.top_id) == derham_from_stalks(
            dec_tri, 0, tri.top_id
        )
    octa, _, _, dec_octa = solved(
        [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]
    )
    square, _, _, dec_square = solved(SQUARE)
    for ray in octa.faces_of_dim(1):
        assert derham_from_stalks(dec_octa, ray, octa.top_id) == derham_from_stalks(
            dec_square, 0, square.top_id
        )


def _reference_derham(h, d_mu, d_tau, n):
    """h(K^{-1/2} L) K^{(d_mu - d_tau)/2} (K^{-1} + L^{-1})^{n - d_tau}, spelled out."""
    shift = BiLaurentPolynomial.monomial(d_mu - d_tau, 0)
    return h.substitute(L_K_INV_HALF) * shift * K_INV_PLUS_L_INV ** (n - d_tau)


def _reference_fiber_omega(fiber, n, d_tau):
    """L^{-n} (1 + K^{-1} L)^{n - d_tau} F(L K^{-1/2}), spelled out."""
    one = BiLaurentPolynomial.one()
    return (
        BiLaurentPolynomial.monomial(0, -n)
        * (one + K_INV * L_VAR) ** (n - d_tau)
        * fiber.substitute(L_K_INV_HALF)
    )


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


def test_derham_names_the_pair_on_a_parity_violation():
    lat, _, _, dec = solved(SQUARE)
    dec.Htilde[(lat.zero_id, lat.top_id)] = LaurentPolynomial.term(-2)
    with pytest.raises(NonIntegralExponent, match=rf"faces \({lat.zero_id}, {lat.top_id}\)"):
        derham_from_stalks(dec, lat.zero_id, lat.top_id)
    with pytest.raises(NonIntegralExponent):
        derham_table(dec)


def test_fiber_form_of_odd_support_raises():
    with pytest.raises(NonIntegralExponent):
        omega_from_fiber_poincare(poly_from_pairs([(1, 1)]), 3, 3)


def test_cofactor_is_raised_once_per_power():
    for m in range(8):
        assert derham._cofactor(m) is derham._cofactor(m)
        assert derham._cofactor(m) == K_INV_PLUS_L_INV**m
