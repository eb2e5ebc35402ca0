import pytest

import icstalks.differentials
from icstalks.cones import pick_degree, second_degree
from icstalks.corpus import ConeSpec, corpus_by_name, polygon_cone
from icstalks.differentials import ChainComplexQ
from icstalks.errors import CrossCheckMismatch
from icstalks.polynomials import BiLaurentPolynomial
from icstalks.verify import (
    ConeContext,
    check_degree_zero_exactness,
    check_face_lattice,
    run_cone,
)


def test_face_lattice_check_tests_euler_at_rank_3():
    # no expected face counts: only Euler's relation can see the lost ray
    spec = ConeSpec(name="pentagon", rank=3, rays=polygon_cone(5).rays)
    ctx = ConeContext(spec)
    assert check_face_lattice(ctx) == "12 faces"
    del ctx.lattice.faces[ctx.lattice.faces_of_dim(1)[0]]
    with pytest.raises(CrossCheckMismatch, match="Euler"):
        check_face_lattice(ctx)


def test_degree_zero_exactness_reads_the_oracle_map():
    ctx = ConeContext(corpus_by_name("polygon-4"))
    top = ctx.lattice.top_id
    assert check_degree_zero_exactness(ctx) == "p = 1..3"
    # h^2 of the 1-form complex: K^-1 L^(2 - 3 + 1), off position p = 1
    ctx.omega_oracle_map[top] += BiLaurentPolynomial.monomial(-2, 0)
    with pytest.raises(CrossCheckMismatch):
        check_degree_zero_exactness(ctx)


def test_run_cone_builds_each_ishida_complex_once(monkeypatch):
    spec = corpus_by_name("polygon-4")
    calls = []
    build = icstalks.differentials.build_degree_complex

    def counting(sub, p, degree):
        calls.append((p, degree))
        return build(sub, p, degree)

    monkeypatch.setattr(icstalks.differentials, "build_degree_complex", counting)
    report = run_cone(spec)
    assert report.passed
    lat = spec.lattice()
    degrees = sum(
        1 + (second_degree(lat, pick_degree(lat, f.id)) is not None) for f in lat.faces
    )
    # (n + 1) form degrees at each (face, degree): 4 * (10 faces + 9 second degrees)
    assert degrees == 19
    assert len(calls) == len(set(calls)) == (lat.rank + 1) * degrees


def test_run_cone_checks_composites_once_per_form_degree(monkeypatch):
    # only the apex complex of each p runs the d o d check; the complexes
    # read off it at the other faces and degrees, and their duals, do not
    spec = corpus_by_name("polygon-4")
    checks = []
    check = ChainComplexQ.__post_init__

    def counting(self):
        checks.append(self.dims)
        check(self)

    monkeypatch.setattr(ChainComplexQ, "__post_init__", counting)
    report = run_cone(spec)
    assert report.passed
    assert len(checks) == spec.rank + 1


@pytest.mark.slow
def test_run_cone_on_simplex6_fails_only_center_multiplicity():
    rays = tuple(tuple(int(i == j) for j in range(5)) + (1,) for i in range(-1, 5))
    report = run_cone(ConeSpec(name="simplex6", rank=6, rays=rays))
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["center-multiplicity-independence"]
