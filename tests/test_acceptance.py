"""Acceptance suite: one test per exit criterion, all comparisons exact.

Every check runs over the full built-in corpus (point, orthants up to rank 4,
cones over m-gons for m = 3..8, cones over the cube and the octahedron) via
the shared verification report; a few literal frozen values are asserted
directly on top.  Each test prints a single pass/fail line.

Criterion 7e (subdivision independence of the center multiplicity D_sigma)
fails by mathematical necessity: the multiplicity of the fixed-point summand
in the pushforward decomposition depends on the chosen subdivision, and the
barycentric and interior-ray subdivisions genuinely differ over the fixed
point in dimensions 2 and 4 (e.g. cube: q^-2 + 17 + q^2 vs q^-2 + 5 + q^2;
both tables are internally validated and both close the main identity).  The
check is implemented as stated and left red; the subdivision independence of
the stalk polynomials themselves (criterion 7d) holds everywhere.
"""

import pytest

from icstalks import derham, verify
from icstalks.corpus import CORPUS, corpus_by_name
from icstalks.decomposition import solve_decomposition
from icstalks.derham import derham_table
from icstalks.errors import NotAShelling
from icstalks.polynomials import LaurentPolynomial
from icstalks.shelling import SimplicialComplex, verify_shelling
from icstalks.subdivision import (
    barycentric_subdivision,
    interior_ray_subdivision,
    multiplicity_table,
)
from icstalks.verify import run_corpus
from polys import K_INV_PLUS_L_INV, bipoly_from_triples, poly_from_pairs


@pytest.fixture(scope="module")
def corpus_run():
    """One corpus run, its ``stalk_formula`` calls and the decompositions it tabled."""
    calls, decs = [], []
    formula, table = derham.stalk_formula, verify.derham_table

    def counted(*args):
        calls.append(args)
        return formula(*args)

    def recorded(dec):
        decs.append(dec)
        return table(dec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derham, "stalk_formula", counted)
        mp.setattr(verify, "derham_table", recorded)
        report = run_corpus(CORPUS)
    return report, calls, decs


@pytest.fixture(scope="module")
def report(corpus_run):
    return corpus_run[0]


def _require(report, name, line):
    checks = [c for c in report.checks if c.name == name]
    assert checks, f"no checks named {name}"
    assert len(checks) == len(CORPUS)
    failed = [c for c in checks if not c.passed]
    ok = not failed
    print(f"[acceptance] {line}: {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(f"{c.cone}: {c.detail}" for c in failed)


def test_criterion_1_golden_stalk_and_multiplicity_values(report):
    # spot-check the literal frozen values on top of the corpus-wide check
    for name, n, v in (("point", 0, 0), ("orthant-1", 1, 1), ("orthant-2", 2, 2)):
        lat = corpus_by_name(name).lattice()
        dec = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
        assert dec.htilde(lat.zero_id, lat.top_id) == LaurentPolynomial.term(-n)
    for m in range(3, 9):
        lat = corpus_by_name(f"polygon-{m}").lattice()
        for sub in (barycentric_subdivision(lat), interior_ray_subdivision(lat)):
            dec = solve_decomposition(lat, multiplicity_table(sub))
            assert dec.htilde(0, lat.top_id) == poly_from_pairs([(-3, 1), (-1, m - 3)])
            assert dec.D[lat.top_id] == poly_from_pairs([(1, 1), (-1, 1)])
    for name, v, nk in (("cube", 8, 4), ("octahedron", 6, 3)):
        lat = corpus_by_name(name).lattice()
        dec = solve_decomposition(lat, multiplicity_table(interior_ray_subdivision(lat)))
        assert dec.D[lat.top_id] == poly_from_pairs([(2, 1), (0, v - 3), (-2, 1)])
        assert dec.htilde(0, lat.top_id) == poly_from_pairs([(-4, 1), (-2, v - 4)])
        for fid in lat.faces_of_dim(3):
            assert dec.D[fid] == poly_from_pairs([(1, 1), (-1, 1)])
            assert dec.htilde(0, fid) == poly_from_pairs([(-3, 1), (-1, nk - 3)])
    _require(report, "golden-stalks", "criterion 1 (golden stalk/multiplicity values)")


def test_criterion_2_golden_derham_values(report):
    lat = corpus_by_name("polygon-6").lattice()
    dec = solve_decomposition(lat, multiplicity_table(barycentric_subdivision(lat)))
    assert derham_table(dec)[0, lat.top_id] == bipoly_from_triples(
        [(0, -3, 1), (-1, -1, 3)]
    )
    cube = corpus_by_name("cube").lattice()
    dr4 = derham_table(solve_decomposition(cube, multiplicity_table(barycentric_subdivision(cube))))
    for fid in cube.faces_of_dim(3):
        expected = K_INV_PLUS_L_INV * bipoly_from_triples([(0, -3, 1), (-1, -1, 1)])
        assert dr4[0, fid] == expected
    assert dr4[0, cube.zero_id] == K_INV_PLUS_L_INV**4
    _require(report, "golden-derham", "criterion 2 (golden de Rham values)")


def test_corpus_maps_each_distinct_stalk_once_per_cone(corpus_run):
    # one table per cone serves main-theorem-closure, chi-y-identity and
    # golden-derham, mapping each distinct (Ht, d_mu, d_tau) once
    _, calls, decs = corpus_run
    assert len(decs) == len(CORPUS)
    keys = [
        {(h, dec.lattice.dim(mu), dec.lattice.dim(tau)) for (mu, tau), h in dec.Htilde.items()}
        for dec in decs
    ]
    assert len(calls) == sum(map(len, keys)) == 125


def test_criterion_3_main_theorem_closure(report):
    _require(
        report,
        "main-theorem-closure",
        "criterion 3 (stalk route equals elimination route, all faces)",
    )


def test_criterion_4_three_way_agreement(report):
    _require(
        report,
        "omega-three-way",
        "criterion 4 (chain-complex oracle = closed form = fiber form)",
    )


def test_criterion_5_degree_zero_exactness(report):
    _require(
        report,
        "degree-zero-exactness",
        "criterion 5 (degree-0 complexes exact outside position p)",
    )


def test_criterion_6_shellability(report):
    cx = SimplicialComplex(facets=[frozenset({0, 1, 2}), frozenset({2, 3, 4})])
    with pytest.raises(NotAShelling) as err:
        verify_shelling(cx, list(cx.facets))
    assert err.value.index == 1
    _require(
        report,
        "lexicographic-shelling",
        "criterion 6 (lexicographic shellings verified; counterexample rejected)",
    )


def test_criterion_7a_fiber_poincare_duality(report):
    _require(report, "fiber-poincare-duality", "criterion 7a (fiber Poincare duality)")


def test_criterion_7b_dcount_equals_chaincount(report):
    _require(
        report,
        "dcount-equals-chaincount",
        "criterion 7b (multiplicity counts equal chain counts)",
    )


def test_criterion_7c_decomposition_invariants(report):
    _require(
        report,
        "decomposition-invariants",
        "criterion 7c (palindromicity, negativity, parity, integrality)",
    )


def test_criterion_7d_stalk_subdivision_independence(report):
    _require(
        report,
        "stalk-subdivision-independence",
        "criterion 7d (stalk polynomials independent of subdivision)",
    )


def test_criterion_7e_center_multiplicity_subdivision_independence(report):
    """Expected to fail: D_sigma is not subdivision independent.

    The criterion asserts equality of D_sigma between the barycentric and
    interior-ray pipelines.  Exact computation refutes this in dimensions 2
    and 4; see the module docstring.  The check is implemented as stated and
    reported honestly rather than weakened.
    """
    _require(
        report,
        "center-multiplicity-independence",
        "criterion 7e (center multiplicity independent of subdivision)",
    )


def test_criterion_7f_chi_y_identity(report):
    _require(report, "chi-y-identity", "criterion 7f (chi_y specialization identity)")


def test_criterion_7g_omega_degree_independence(report):
    _require(
        report,
        "omega-degree-independence",
        "criterion 7g (generating functions independent of the chosen degree)",
    )


def test_criterion_8_scope_note(report):
    covered_dims = {spec.rank for spec in CORPUS}
    assert covered_dims == {0, 1, 2, 3, 4}
    names = {c.name for c in report.checks}
    assert {
        "golden-stalks",
        "golden-derham",
        "main-theorem-closure",
        "omega-three-way",
        "degree-zero-exactness",
        "lexicographic-shelling",
    } <= names
    print(
        "[acceptance] criterion 8 (scope): PASS - acceptance rests on the exact "
        "combinatorial identities above; category-theoretic structure is out of scope"
    )
