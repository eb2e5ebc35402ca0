import pytest

import icstalks.differentials
from icstalks import verify
from icstalks.cones import pick_degree, second_degree
from icstalks.corpus import ConeSpec, corpus_by_name, polygon_cone
from icstalks.differentials import ChainComplexQ
from icstalks.errors import CrossCheckMismatch
from icstalks.verify import (
    ConeContext,
    check_degree_zero_exactness,
    check_face_lattice,
    check_shelling,
    run_cone,
)
from polys import monomial


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
    ctx.fans[0].omega_oracle_map[top] += monomial(-1, 0)
    with pytest.raises(CrossCheckMismatch):
        check_degree_zero_exactness(ctx)


@pytest.mark.parametrize("name", ["polygon-5", "cube"])
def test_shelling_check_requires_the_h_vector(monkeypatch, name):
    ctx = ConeContext(corpus_by_name(name))
    check_shelling(ctx)
    shell = verify.lexicographic_shelling

    def retyped(lattice, sub):
        order = shell(lattice, sub)
        # the last facet's type, one higher: still a single type-0 facet
        order.types[-1] += 1
        return order

    monkeypatch.setattr(verify, "lexicographic_shelling", retyped)
    with pytest.raises(CrossCheckMismatch, match="h-vector"):
        check_shelling(ctx)


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


def test_run_cone_builds_each_fan_artifact_once(monkeypatch):
    # counted at verify's own names, which is also where perfbench's tracer
    # patches them: a build these counters miss, the traced run misses too
    calls = dict.fromkeys(
        (
            "barycentric_subdivision",
            "interior_ray_subdivision",
            "multiplicity_table",
            "solve_decomposition",
            "derham_table",
        ),
        0,
    )

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name, vars(verify)[name]))
    run_cone(corpus_by_name("polygon-5"))
    assert calls == {
        "barycentric_subdivision": 1,
        "interior_ray_subdivision": 1,
        "multiplicity_table": 2,
        "solve_decomposition": 2,
        "derham_table": 1,
    }


CENTER = (
    " (the multiplicity over the fixed point depends on the subdivision whenever "
    "the two pipelines differ there, which happens in dimensions 2 and 4)"
)


@pytest.mark.parametrize(
    "name, expected",
    [
        (
            "orthant-2",
            {
                "subdivision-validity": "barycentric 2 maximal cones, interior-ray 1",
                "stalk-subdivision-independence": "9 stalk polynomials identical",
                "golden-stalks": "9 stalk + 4 multiplicity values, both pipelines",
                "center-multiplicity-independence": "CrossCheckMismatch: D_sigma differs "
                "between pipelines: barycentric 1, interior-ray 0" + CENTER,
            },
        ),
        (
            "cube",
            {
                "subdivision-validity": "barycentric 48 maximal cones, interior-ray 24",
                "stalk-subdivision-independence": "153 stalk polynomials identical",
                "golden-stalks": "153 stalk + 28 multiplicity values, both pipelines",
                "center-multiplicity-independence": "CrossCheckMismatch: D_sigma differs "
                "between pipelines: barycentric q^-2 + 17 + q^2, "
                "interior-ray q^-2 + 5 + q^2" + CENTER,
            },
        ),
    ],
)
def test_cross_fan_check_details(name, expected):
    # the checks that compare the fans name each one in fan order
    report = run_cone(corpus_by_name(name))
    details = {c.name: c.detail for c in report.checks if c.name in expected}
    assert details == expected


SIMPLEX6 = tuple(tuple(int(i == j) for j in range(5)) + (1,) for i in range(-1, 5))
CUBE6 = tuple(tuple((v >> k) & 1 for k in range(5)) + (1,) for v in range(32))
CROSS6 = tuple(
    tuple(s * int(i == j) for j in range(5)) + (1,) for i in range(5) for s in (1, -1)
)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, rays", [("simplex6", SIMPLEX6), ("cube6", CUBE6), ("cross6", CROSS6)]
)
def test_run_cone_at_rank_6_fails_only_center_multiplicity(name, rays):
    report = run_cone(ConeSpec(name=name, rank=6, rays=rays))
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["center-multiplicity-independence"]
