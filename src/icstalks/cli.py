"""Command-line front end.

Input cones are JSON files {"name": ..., "rank": n, "rays": [[...], ...]};
face ids in the other commands come from the ``faces`` output.  All output is
deterministic for a fixed input: canonical sort orders everywhere and no
timestamps in payloads (verify timings go to stderr in text mode).

Exit codes: 0 success, 1 computational error (structured error object on
stdout), 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import CORPUS, ConeSpec, corpus_by_name, load_cone_spec
from .derham import check_main_identity
from .differentials import check_second_degree, omega_closed_form, omega_oracle
from .errors import ToricError
from .shelling import complex_from_fan, find_shelling, lexicographic_shelling
from .verify import ConeContext, FanContext, check_omega_routes, run_cone, run_corpus

# the --subdivision choices, in the order of ConeContext.fans
_SUBDIVISIONS = ("barycentric", "appendix")


def _read_spec(args) -> ConeSpec:
    path = args.cone
    if path is None:
        raise ValueError("a cone spec file is required (--cone / --fan)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    # json raises RecursionError on nesting deeper than the recursion limit
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"cannot read cone spec {path}: {exc}") from exc
    return load_cone_spec(obj)


def _read_fan(args, kind: str) -> tuple[ConeSpec, FanContext]:
    """The cone spec and its fan of the given ``--subdivision`` kind."""
    spec = _read_spec(args)
    return spec, ConeContext(spec).fans[_SUBDIVISIONS.index(kind)]


def _check_face_id(lattice, option: str, fid: int | None) -> None:
    if fid is not None and not 0 <= fid <= lattice.top_id:
        raise ValueError(f"{option} {fid} is not a face id in 0..{lattice.top_id}")


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)


def cmd_faces(args) -> int:
    spec = _read_spec(args)
    lattice = spec.lattice()
    payload = lattice.to_json_obj()
    lines = [f"{len(lattice.faces)} faces of {spec.name} (rank {spec.rank})"]
    for f in lattice.faces:
        lines.append(f"  id {f.id}: dim {f.dim}, rays {sorted(f.rays)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_subdivide(args) -> int:
    spec, fan = _read_fan(args, args.subdivision)
    sub, d = fan.sub, fan.d
    payload = dict(sub.to_json_obj())
    payload.update(d.to_json_obj())
    lines = [
        f"{args.subdivision} subdivision of {spec.name}: "
        f"{len(sub.rays)} rays, {len(sub.maximal)} maximal cones"
    ]
    for i, v, fid in sub.added_rays():
        lines.append(f"  ray {i} = {list(v)} interior to face {fid}")
    for row in d.to_json_obj()["d"]:
        lines.append(f"  d_{row['l']}(face {row['tau']}) = {row['count']}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_fibers(args) -> int:
    spec, fan = _read_fan(args, args.subdivision)
    dec = fan.dec
    payload = {"F": dec.to_json_obj()["F"]}
    lines = [f"fiber Poincare polynomials over {spec.name} ({args.subdivision}):"]
    for t in sorted(dec.F):
        lines.append(f"  F(face {t}) = {dec.F[t].to_text()}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_decompose(args) -> int:
    spec, fan = _read_fan(args, args.subdivision)
    dec = fan.dec
    payload = dec.to_json_obj()
    lines = [f"decomposition data for {spec.name} ({args.subdivision} subdivision):"]
    for t in sorted(dec.F):
        lines.append(f"  F(face {t}) = {dec.F[t].to_text()}")
    for (m, t) in sorted(dec.Htilde):
        lines.append(f"  Ht(face {m}, face {t}) = {dec.Htilde[(m, t)].to_text()}")
    for t in sorted(dec.D):
        lines.append(f"  D(face {t}) = {dec.D[t].to_text()}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_omega(args) -> int:
    spec, fan = _read_fan(args, "barycentric")
    lattice = fan.lattice
    _check_face_id(lattice, "--tau", args.tau)
    mode = args.mode or "both"
    if args.check and mode == "closed-form":
        raise ValueError("--check recomputes the oracle route, which --closed-form leaves out")
    taus = [args.tau] if args.tau is not None else [f.id for f in lattice.faces]
    rows = []
    for tau in taus:
        row: dict = {"tau": tau}
        if mode in ("oracle", "both"):
            oracle = omega_oracle(fan.sub, tau)
            if args.check:
                check_second_degree(fan.sub, tau, oracle)
            row["oracle"] = oracle.to_json_obj()
            row["text"] = oracle.to_text()
        if mode in ("closed-form", "both"):
            closed_form = omega_closed_form(fan.d, tau)
            row["closed_form"] = closed_form.to_json_obj()
            row["text"] = closed_form.to_text()
        if mode == "both":
            row["match"] = oracle == closed_form
            if args.check:
                check_omega_routes(fan, tau, oracle, closed_form)
        rows.append(row)
    payload = {"omega": rows}
    lines = [f"higher-direct-image generating functions for {spec.name}:"]
    for row in rows:
        suffix = "" if row.get("match", True) else "  MISMATCH"
        lines.append(f"  omega(face {row['tau']}) = {row['text']}{suffix}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_icdr(args) -> int:
    spec, fan = _read_fan(args, "barycentric")
    lattice = fan.lattice
    _check_face_id(lattice, "--mu", args.mu)
    _check_face_id(lattice, "--tau", args.tau)
    table = fan.dr
    if args.verify:
        # one face at a time, so the first face that fails is the one reported
        for f in lattice.faces:
            check_main_identity(fan.dec, table, omega_oracle(fan.sub, f.id), f.id)
    pairs = sorted(table)
    if args.mu is not None:
        pairs = [p for p in pairs if p[0] == args.mu]
    if args.tau is not None:
        pairs = [p for p in pairs if p[1] == args.tau]
    if not pairs:  # only a given --mu above a given --tau leaves none
        raise ValueError(f"--mu {args.mu} is not a face of --tau {args.tau}")
    rows = []
    for (mu, tau) in pairs:
        poly = table[(mu, tau)]
        row = {
            "mu": mu,
            "tau": tau,
            "dr": poly.to_json_obj(),
            "text": poly.to_text(),
        }
        if args.chi_y:
            chi_y = poly.chi_y()
            row["chi_y"] = chi_y.to_json_obj()
            row["chi_y_text"] = chi_y.to_text("y")
        rows.append(row)
    payload = {"dr": rows, "verified": bool(args.verify)}
    lines = [f"graded de Rham generating functions for {spec.name}:"]
    for row in rows:
        lines.append(f"  dR(face {row['mu']}, face {row['tau']}) = {row['text']}")
        if args.chi_y:
            lines.append(f"    chi_y = {row['chi_y_text']}")
    if args.verify:
        lines.append("main-identity closure verified on all faces")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_shelling(args) -> int:
    spec, fan = _read_fan(args, args.subdivision)
    if args.subdivision == "barycentric":
        order = lexicographic_shelling(fan.lattice, fan.sub)
    else:
        order = find_shelling(complex_from_fan(fan.sub))
    payload = order.to_json_obj()
    lines = [
        f"shelling of the {args.subdivision} complex of {spec.name}: "
        f"{len(order.order)} facets"
    ]
    for facet, t in zip(order.order, order.types):
        lines.append(f"  {sorted(facet)} type {t}")
    lines.append(f"type histogram: {order.type_histogram()}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    if args.cone is not None and args.name is not None:
        raise ValueError("give --cone or --name, not both")
    if args.cone is not None:
        report = run_cone(_read_spec(args))
    elif args.name is not None:
        report = run_cone(corpus_by_name(args.name))
    else:
        report = run_corpus(CORPUS)
    total = len(report.checks)
    passed = total - len(report.failures())
    lines = [c.line() for c in report.checks] + [f"{passed}/{total} checks passed"]
    _emit(args, report.to_json_obj(), "\n".join(lines))
    if args.format == "text":
        print(f"total time {sum(c.seconds for c in report.checks):.1f}s", file=sys.stderr)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icstalks",
        description=(
            "Exact intersection-cohomology stalk polynomials, decomposition "
            "multiplicities, and graded de Rham generating functions of "
            "affine toric varieties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, subdivision=None):
        p.add_argument(
            "--cone", "--fan", dest="cone", default=None, help="cone spec JSON file"
        )
        p.add_argument("--format", choices=("text", "json"), default="text")
        if subdivision:
            p.add_argument(
                "--subdivision",
                choices=_SUBDIVISIONS,
                default=subdivision,
                help=f"appendix = interior-ray recipe (default: {subdivision})",
            )

    p = sub.add_parser("faces", help="list the faces and covering relations")
    add_common(p)
    p.set_defaults(fn=cmd_faces)

    p = sub.add_parser("subdivide", help="subdivision rays, cones, multiplicity table")
    add_common(p, subdivision="barycentric")
    p.set_defaults(fn=cmd_subdivide)

    p = sub.add_parser("fibers", help="fiber Poincare polynomials per face")
    add_common(p, subdivision="barycentric")
    p.set_defaults(fn=cmd_fibers)

    p = sub.add_parser("decompose", help="stalk polynomials and multiplicities")
    add_common(p, subdivision="appendix")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("omega", help="higher-direct-image generating functions")
    add_common(p)
    p.add_argument("--tau", type=int, default=None, help="face id (default: all)")
    p.add_argument(
        "--oracle",
        dest="mode",
        action="store_const",
        const="oracle",
        help="chain-complex route only",
    )
    p.add_argument(
        "--closed-form",
        dest="mode",
        action="store_const",
        const="closed-form",
        help="multiplicity-table closed form only",
    )
    p.add_argument(
        "--both", dest="mode", action="store_const", const="both", help="both routes"
    )
    p.add_argument(
        "--check", action="store_true", help="also check a second degree and the fiber route"
    )
    p.set_defaults(fn=cmd_omega, mode=None)

    p = sub.add_parser("icdr", help="graded de Rham generating functions")
    add_common(p)
    p.add_argument("--mu", type=int, default=None)
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--chi-y", dest="chi_y", action="store_true")
    p.add_argument(
        "--verify", action="store_true", help="run the main-identity closure first"
    )
    p.set_defaults(fn=cmd_icdr)

    p = sub.add_parser("shelling", help="shelling order, types, histogram")
    add_common(p, subdivision="barycentric")
    p.set_defaults(fn=cmd_shelling)

    p = sub.add_parser("verify", help="run the full invariant suite")
    add_common(p)
    p.add_argument("--name", default=None, help="verify one built-in corpus cone")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ToricError, ValueError) as exc:
        computational = isinstance(exc, ToricError)
        kind = type(exc).__name__ if computational else "MalformedInput"
        print(json.dumps({"error": {"type": kind, "message": str(exc)}}, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return 1 if computational else 2


if __name__ == "__main__":
    sys.exit(main())
