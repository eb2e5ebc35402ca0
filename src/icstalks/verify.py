"""The one-shot invariant suite: every cross-check the package can run.

Each check is independent: a failure is recorded in the report and the rest
of the suite keeps going.  Shared artifacts are built lazily and reused: the
lattice once per cone, and each fan's subdivision, solved tables and
generating functions once per fan.

One check is expected to fail by design of the mathematics itself: the
center multiplicity D_sigma is *not* independent of the subdivision.  It is
the local h-polynomial of the chosen subdivision (Stanley, "Subdivisions and
local h-vectors", 1992), which ``golden-stalks`` confirms on both fans, and
the barycentric subdivision has more exceptional geometry over the
torus-fixed point than the interior-ray one.  So the equality of the two
pipelines' D_sigma holds only in the dimensions where they coincide over
the fixed point (0, 1, and 3 for this corpus).  The check is kept and
reported honestly; the stalk polynomials themselves agree everywhere, and
that agreement is checked separately.

The shelling check requires the type histogram of the lexicographic
shelling to be the h-vector of the barycentric complex, computed from the
fan's cone counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .cones import FaceLattice
from .corpus import CORPUS, ConeSpec
from .decomposition import (
    DecompositionResult,
    lowest_degree_normalized,
    solve_decomposition,
)
from .derham import check_main_identity, derham_table, stalk_chi_y
from .differentials import (
    check_second_degree,
    omega_closed_form,
    omega_from_fiber_poincare,
    omega_oracle,
)
from .errors import CrossCheckMismatch, ToricError
from .golden import golden_derham, local_h, toric_g
from .polynomials import BiLaurentPolynomial, LaurentPolynomial
from .shelling import lexicographic_shelling
from .subdivision import (
    MultiplicityTable,
    SubdivisionMap,
    barycentric_subdivision,
    chain_count_oracle,
    interior_ray_subdivision,
    multiplicity_table,
    validate_subdivision,
)


@dataclass
class CheckResult:
    name: str
    cone: str
    passed: bool
    detail: str = ""
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"[{status}] {self.cone}: {self.name}{suffix}"


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "counts": {
                "total": len(self.checks),
                "failed": len(self.failures()),
            },
            "checks": [
                {
                    "name": c.name,
                    "cone": c.cone,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


@dataclass
class FanContext:
    """One fan's pipeline, each stage built lazily once: the subdivision
    ``build(lattice)``, its table, decomposition, dR table and Omega maps."""

    label: str
    lattice: FaceLattice
    build: Callable[[FaceLattice], SubdivisionMap]

    @cached_property
    def sub(self) -> SubdivisionMap:
        return self.build(self.lattice)

    @cached_property
    def d(self) -> MultiplicityTable:
        return multiplicity_table(self.sub)

    @cached_property
    def dec(self) -> DecompositionResult:
        return solve_decomposition(self.lattice, self.d)

    @cached_property
    def dr(self) -> dict[tuple[int, int], BiLaurentPolynomial]:
        return derham_table(self.dec)

    @cached_property
    def omega_oracle_map(self) -> dict[int, BiLaurentPolynomial]:
        return {f.id: omega_oracle(self.sub, f.id) for f in self.lattice.faces}

    @cached_property
    def omega_closed_map(self) -> dict[int, BiLaurentPolynomial]:
        return {f.id: omega_closed_form(self.d, f.id) for f in self.lattice.faces}


@dataclass
class ConeContext:
    """Lazily built artifacts for one corpus cone.  ``fans`` puts the
    barycentric fan first and the interior-ray fan second: cross-fan checks
    compare each later fan with ``fans[0]``, and the checks that need the
    oracle, the shelling or the chain counts read ``fans[0]``."""

    spec: ConeSpec

    @cached_property
    def lattice(self) -> FaceLattice:
        return self.spec.lattice()

    @cached_property
    def g(self) -> dict[tuple[int, int], LaurentPolynomial]:
        return toric_g(self.lattice)

    @cached_property
    def fans(self) -> list[FanContext]:
        # builders read at call time, where perfbench's tracer patches them
        return [
            FanContext("barycentric", self.lattice, barycentric_subdivision),
            FanContext("interior-ray", self.lattice, interior_ray_subdivision),
        ]


def _run(report: Report, name: str, spec_name: str, fn) -> None:
    start = time.perf_counter()
    try:
        passed, detail = True, fn() or ""
    except Exception as exc:  # noqa: BLE001 - a failed check must not abort the suite
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    report.checks.append(
        CheckResult(
            name=name,
            cone=spec_name,
            passed=passed,
            detail=detail,
            seconds=time.perf_counter() - start,
        )
    )


def _require(ok: bool, message: str) -> None:
    """The checks' assertion, kept under ``python -O``."""
    if not ok:
        raise CrossCheckMismatch(message)


def check_face_lattice(ctx: ConeContext) -> str:
    lat = ctx.lattice
    if ctx.spec.expected_face_counts:
        counts = tuple(len(lat.faces_of_dim(d)) for d in range(lat.rank + 1))
        _require(counts == ctx.spec.expected_face_counts, f"face counts {counts}")
    if lat.rank >= 1:
        euler = sum((-1) ** d * len(lat.faces_of_dim(d)) for d in range(lat.rank + 1))
        _require(euler == 0, "Euler identity fails")
    if lat.rank == 4:
        e = len(lat.faces_of_dim(2))
        nk_sum = sum(len(lat.faces[fid].rays) for fid in lat.faces_of_dim(3))
        _require(nk_sum == 2 * e, f"facet rays sum to {nk_sum}, not twice the {e} edges")
    return f"{len(lat.faces)} faces"


def check_subdivision_validity(ctx: ConeContext) -> str:
    for fan in ctx.fans:
        validate_subdivision(fan.sub)
    sizes = [f"{fan.label} {len(fan.sub.maximal)}" for fan in ctx.fans]
    return ", ".join([sizes[0] + " maximal cones"] + sizes[1:])


def check_dcount_chaincount(ctx: ConeContext) -> str:
    # chain counts count the cones of the barycentric fan
    lat = ctx.lattice
    d = ctx.fans[0].d
    pairs = 0
    for f in lat.faces:
        for l in range(lat.rank + 1):
            _require(d.get(l, f.id) == chain_count_oracle(lat, f.id, l), f"face {f.id}, l = {l}")
            pairs += 1
    return f"{pairs} counts agree"


def check_fiber_duality(ctx: ConeContext) -> str:
    # barycentric fibers have dimension dim(face) - 1, so they satisfy
    # Poincare duality at that dimension; interior-ray fibers over low faces
    # are points and are excluded
    dec = ctx.fans[0].dec
    faces = 0
    for f in ctx.lattice.faces:
        if f.dim == 0:
            continue
        fib = dec.F[f.id]
        _require(fib == fib.mirror().shift(2 * (f.dim - 1)), f"face {f.id}")
        faces += 1
    return f"{faces} faces, barycentric pipeline"


def check_shelling(ctx: ConeContext) -> str:
    # the lexicographic shelling is the barycentric fan's
    sub = ctx.fans[0].sub
    order = lexicographic_shelling(ctx.lattice, sub)
    hist = order.type_histogram()
    # the type histogram of a shelling is the h-vector of the complex:
    # sum_j h_j x^(n - j) = sum_i f_i (x - 1)^(n - i), where f_i counts the
    # i-ray cones of the fan, the empty cone included
    n = ctx.lattice.rank
    f = [0] * (n + 1)
    for cone in sub.cones:
        f[len(cone)] += 1
    x_minus_1 = LaurentPolynomial({1: 1, 0: -1})
    h_poly = sum(count * x_minus_1 ** (n - i) for i, count in enumerate(f))
    h = [h_poly.coefficient(n - j) for j in range(n + 1)]
    _require(
        [hist.get(j, 0) for j in range(n + 1)] == h, f"type histogram {hist}, h-vector {h}"
    )
    return f"{len(order.order)} facets, histogram {hist}"


def check_degree_zero_exactness(ctx: ConeContext) -> str:
    # in degree 0 the p-form complex (p >= 1) has cohomology only at position
    # p; h^i sits at K^-p L^(i - n + p) in Omega_sigma, on the barycentric fan
    lat = ctx.lattice
    omega = ctx.fans[0].omega_oracle_map[lat.top_id]
    for (k_twice, l), h in omega.items():
        p = -k_twice // 2
        i = l + lat.rank - p
        _require(p == 0 or i == p, f"h^{i} = {h} for p = {p}")
    return f"p = 1..{lat.rank}"


def check_omega_threeway(ctx: ConeContext) -> str:
    lat = ctx.lattice
    fan = ctx.fans[0]
    oracle, closed = fan.omega_oracle_map, fan.omega_closed_map
    for f in lat.faces:
        fiber_form = omega_from_fiber_poincare(fan.dec.F[f.id], lat.rank, f.dim)
        _require(oracle[f.id] == closed[f.id] == fiber_form, f"face {f.id}")
        _require(
            oracle[f.id].is_integer() and oracle[f.id].is_nonnegative(),
            f"face {f.id}: Omega is not a nonnegative integer series",
        )
    return f"{len(lat.faces)} faces"


def check_omega_degree_independence(ctx: ConeContext) -> str:
    fan = ctx.fans[0]
    oracle = fan.omega_oracle_map
    for f in ctx.lattice.faces:
        check_second_degree(fan.sub, f.id, oracle[f.id])
    return f"{len(oracle)} faces at two degrees"


def check_decomposition_invariants(ctx: ConeContext) -> str:
    # structural invariants are validated inside solve_decomposition
    bad = [fid for fan in ctx.fans for fid in lowest_degree_normalized(fan.dec)]
    _require(not bad, f"stalk polynomials without unit lowest coefficient: {bad}")
    dec = ctx.fans[0].dec
    for f in ctx.lattice.faces:
        if f.dim and len(f.rays) == f.dim:
            _require(
                dec.htilde(ctx.lattice.zero_id, f.id) == LaurentPolynomial.term(-f.dim),
                f"simplicial face {f.id}",
            )
    return "palindromic, negative, parity, nonnegative, unit lowest term"


def check_stalk_subdivision_independence(ctx: ConeContext) -> str:
    first = ctx.fans[0].dec.Htilde
    for fan in ctx.fans[1:]:
        other = fan.dec.Htilde
        _require(set(first) == set(other), "the pipelines solve different pairs")
        for key in first:
            _require(first[key] == other[key], f"(mu, tau) = {key}")
    return f"{len(first)} stalk polynomials identical"


def check_center_multiplicity_independence(ctx: ConeContext) -> str:
    # the barycentric fan against the interior-ray fan
    top = ctx.lattice.top_id
    first, *rest = ctx.fans
    a = first.dec.D[top]
    for fan in rest:
        b = fan.dec.D[top]
        if a != b:
            raise CrossCheckMismatch(
                f"D_sigma differs between pipelines: {first.label} {a.to_text()}, "
                f"{fan.label} {b.to_text()} (the multiplicity over the fixed point "
                "depends on the subdivision whenever the two pipelines differ there, "
                "which happens in dimensions 2 and 4)"
            )
    return a.to_text()


def check_main_closure(ctx: ConeContext) -> str:
    # the identity is linear in Omega, so the closed form closes it exactly
    # when it equals the oracle; the oracle is the barycentric fan's
    fan = ctx.fans[0]
    dec, dr = fan.dec, fan.dr
    oracle, closed = fan.omega_oracle_map, fan.omega_closed_map
    for f in ctx.lattice.faces:
        check_main_identity(dec, dr, oracle[f.id], f.id)
        _require(closed[f.id] == oracle[f.id], f"face {f.id}: closed-form Omega")
    return f"{len(ctx.lattice.faces)} faces, oracle and closed form"


def check_chi_y(ctx: ConeContext) -> str:
    fan = ctx.fans[0]
    lat = ctx.lattice
    for f in lat.faces:
        lhs = fan.dr[lat.zero_id, f.id].chi_y()
        rhs = stalk_chi_y(fan.dec.htilde(lat.zero_id, f.id), f.dim, lat.rank)
        _require(lhs == rhs, f"face {f.id}")
    return f"{len(lat.faces)} faces"


def check_golden_stalks(ctx: ConeContext) -> str:
    lat = ctx.lattice
    g = ctx.g
    dual_g = toric_g(lat, dual=True)
    for fan in ctx.fans:
        for key, poly in g.items():
            _require(fan.dec.Htilde[key] == poly, f"H at (mu, tau) = {key}")
        for fid, poly in local_h(lat, fan.d, dual_g).items():
            if fan.dec.D[fid] != poly:
                raise CrossCheckMismatch(f"D at face {fid}, expected {poly.to_text()}")
    return f"{len(g)} stalk + {len(lat.faces)} multiplicity values, both pipelines"


def check_golden_derham(ctx: ConeContext) -> str:
    lat = ctx.lattice
    expected = golden_derham(lat, ctx.g)
    dr = ctx.fans[0].dr
    for fid, poly in expected.items():
        got = dr[lat.zero_id, fid]
        if got != poly:
            raise CrossCheckMismatch(f"face {fid}: {got.to_text()}, expected {poly.to_text()}")
        _require(
            got.is_integer() and got.is_nonnegative() and got.is_integral,
            f"face {fid}: dR is not a nonnegative integral series",
        )
    return f"{len(expected)} values"


CONE_CHECKS = [
    ("face-lattice", check_face_lattice),
    ("subdivision-validity", check_subdivision_validity),
    ("dcount-equals-chaincount", check_dcount_chaincount),
    ("fiber-poincare-duality", check_fiber_duality),
    ("lexicographic-shelling", check_shelling),
    ("degree-zero-exactness", check_degree_zero_exactness),
    ("omega-three-way", check_omega_threeway),
    ("omega-degree-independence", check_omega_degree_independence),
    ("decomposition-invariants", check_decomposition_invariants),
    ("stalk-subdivision-independence", check_stalk_subdivision_independence),
    ("center-multiplicity-independence", check_center_multiplicity_independence),
    ("main-theorem-closure", check_main_closure),
    ("chi-y-identity", check_chi_y),
    ("golden-stalks", check_golden_stalks),
    ("golden-derham", check_golden_derham),
]


def run_cone(spec: ConeSpec, report: Report | None = None) -> Report:
    if report is None:
        report = Report()
    ctx = ConeContext(spec)
    try:
        ctx.lattice
    except ToricError as exc:  # report the construction error once
        report.checks.append(
            CheckResult(
                name="face-lattice",
                cone=spec.name,
                passed=False,
                detail=f"{type(exc).__name__}: {exc}",
            )
        )
        return report
    for name, fn in CONE_CHECKS:
        _run(report, name, spec.name, lambda fn=fn: fn(ctx))
    return report


def run_corpus(specs=CORPUS) -> Report:
    report = Report()
    for spec in specs:
        run_cone(spec, report)
    return report
