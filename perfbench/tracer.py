"""Spans and counters around the public functions of each icstalks layer.

Used only by the traced run.  ``Tracer.install`` replaces every function in
``LAYER_FUNCTIONS`` by a wrapper, in its defining module and at every place
that bound it by ``from ... import`` (any icstalks module attribute, and the
entries of ``verify.CONE_CHECKS``); ``uninstall`` puts the originals back, so
the untraced passes run unmodified code.

A span is ``(name, start, end, parent, pass_id, detail)``, kept in memory;
its self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter

# (module, function, span name, calls key, sizes) -- every call adds 1 to the
# calls key; ``sizes`` maps the arguments and result of a call that returned
# to further counts
LAYER_FUNCTIONS = [
    ("cones", "face_lattice", "cones.face_lattice", None, lambda a, r: {"cones.faces": len(r.faces)}),
    ("cones", "dual_cone", "cones.dual_cone", None, lambda a, r: {"cones.facets": len(r)}),
    ("subdivision", "barycentric_subdivision", "subdivision.barycentric", None,
     lambda a, r: {"subdivision.fan_cones": len(r.cones)}),
    ("subdivision", "interior_ray_subdivision", "subdivision.interior_ray", None,
     lambda a, r: {"subdivision.fan_cones": len(r.cones)}),
    ("subdivision", "multiplicity_table", "subdivision.multiplicity", None, None),
    ("subdivision", "validate_subdivision", "subdivision.validate", None, None),
    ("subdivision", "chain_count_oracle", "subdivision.chain_count", None, None),
    ("differentials", "build_degree_complex", "differentials.assemble", "differentials.complexes",
     lambda a, r: {"differentials.entries": sum(x * y for x, y in zip(r.dims, r.dims[1:]))}),
    ("differentials", "cohomology_dims", "differentials.cohomology", None, None),
    ("differentials", "omega_closed_form", "differentials.closed_form", None, None),
    ("linalg", "integer_rank", "linalg.rank", "linalg.rank_calls",
     lambda a, r: {"linalg.rank_entries": len(a[0]) * len(a[0][0]) if a[0] else 0}),
    ("decomposition", "solve_decomposition", "decomposition.solve", None,
     lambda a, r: {"decomposition.intervals": len(r.Htilde)}),
    ("derham", "derham_table", "derham.table", None, None),
    ("derham", "check_main_identity", "derham.main_identity", None, None),
    ("shelling", "lexicographic_shelling", "shelling.lex", None,
     lambda a, r: {"shelling.facets": len(r.order)}),
]

LAYERS = (
    "cones", "subdivision", "shelling", "differentials",
    "linalg", "decomposition", "derham", "verify",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._pass_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _count(self, key: str, value: int) -> None:
        counts = self.counts[self._pass_id]
        counts[key] = counts.get(key, 0) + value

    def span(self, name, fn, calls=None, sizes=None, detail=""):
        """``fn`` wrapped so that each call records a span and its counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                self._count(calls, 1)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self._pass_id, detail)
            if sizes is not None:
                for key, value in sizes(args, result).items():
                    self._count(key, value)
            return result

        return wrapper

    def run_pass(self, pass_id: int, fn, *args):
        """Run one pass under a root span ``bench.pass``."""
        self._pass_id = pass_id
        self.counts[pass_id] = {}
        return self.span("bench.pass", fn)(*args)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("icstalks")]
        for mod_name, attr, name, calls, sizes in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"icstalks.{mod_name}"], attr)
            self._patch_everywhere(modules, original, self.span(name, original, calls, sizes))
        verify = sys.modules["icstalks.verify"]
        for i, (check, fn) in enumerate(verify.CONE_CHECKS):
            wrapped = self.span("verify.checks", fn, "verify.checks_run", detail=check)
            self._patch_everywhere(modules, fn, wrapped)
            self._patches.append((verify.CONE_CHECKS, i, (check, fn)))
            verify.CONE_CHECKS[i] = (check, wrapped)

    def _patch_everywhere(self, modules, original, wrapped) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, list):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def times(self) -> dict[int, dict[str, float]]:
        """Per pass and span name, the summed self time and total duration."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _pid, _d in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for idx, (name, start, end, _parent, pid, _d) in enumerate(self.spans):
            per = out.setdefault(pid, {})
            per[f"{name}.self_s"] = per.get(f"{name}.self_s", 0.0) + (end - start) - child[idx]
            per[f"{name}.total_s"] = per.get(f"{name}.total_s", 0.0) + (end - start)
        return out

    def per_layer(self, speed: dict[int, float]) -> dict[str, float]:
        """Medians over traced passes of span times, layer self times and counts.

        Times are rescaled to reference speed by each pass's ``speed``.
        """
        rows: dict[str, list[float]] = {}
        for pid, spans in self.times().items():
            spans = {key: t * speed[pid] for key, t in spans.items()}
            row = dict(spans)
            for layer in LAYERS + ("bench",):
                row[f"{layer}.self_s"] = sum(
                    t for key, t in spans.items()
                    if key.endswith(".self_s") and key.split(".")[0] == layer
                )
            row.update(self.counts.get(pid, {}))
            for key, value in row.items():
                rows.setdefault(key, []).append(value)
        return {key: statistics.median(values) for key, values in sorted(rows.items())}

    def spans_json(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "pass": pid, "detail": d}
            for i, (n, s, e, p, pid, d) in enumerate(self.spans)
        ]
