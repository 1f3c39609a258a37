"""Outside-in layer trace: wraps public functions of nervecert at every binding.

Nothing in the package's source changes.  `from .linprog import solve_lp`
binds `solve_lp` a second time inside `convex`, so a function is replaced
in every nervecert module namespace that holds it, and in every function
default that captured it (`nerve_matches(..., engine=nerve_helly)`).
Patching only the defining module would record zero calls.

Each wrapped call is a span.  Spans nest through a stack, so each one knows
its parent and how much of its time its traced children took (self time is
the rest).  Only per-name aggregates are kept, plus the derived counters
that `LayerTrace.metrics` reports.
"""

from __future__ import annotations

import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "nervecert"

# The layers and the functions whose calls are spans.  Spans that only serve
# as parents (nerve_helly, canonical_point, cmd_*) are listed so that a
# child's parent is the caller a reader expects.
LAYERS = {
    "linprog": ["solve_lp", "gauss_solve"],
    "convex": ["polytope_is_empty", "inscribed_ball", "canonical_point",
               "hulls_intersect", "crossing"],
    "nerve": ["nerve_helly", "nerve_exhaustive", "nerve_matches"],
    "witness": ["witness_points", "verify_witness_membership", "assemble_witness_map",
                "verify_remote_disjointness", "image_of_source_simplex"],
    "complexes": ["barycentric_subdivision", "is_remote", "disjoint_simplex_pairs"],
    "obstruction": ["moment_curve_placement", "intersection_cocycle",
                    "coboundary_matrix", "gf2_solve", "obstruction_vanishes"],
    "certificates": ["recheck_certificate"],
    "fileio": ["load_document", "document_to_text"],
    "cli": ["cmd_certificate", "cmd_vk", "cmd_recheck"],
}

# (metric name, unit) in report order; see bench/README.md for what each means.
METRICS = [
    ("linprog.solve_lp.calls", "count"),
    ("linprog.solve_lp.self_s", "s"),
    ("linprog.solve_lp.infeasible", "count"),
    ("linprog.solve_lp.max_bits", "bits"),
    ("linprog.gauss_solve.calls", "count"),
    ("linprog.gauss_solve.self_s", "s"),
    ("convex.polytope_is_empty.calls", "count"),
    ("convex.polytope_is_empty.s", "s"),
    ("convex.polytope_is_empty.empty", "count"),
    ("convex.inscribed_ball.calls", "count"),
    ("convex.inscribed_ball.s", "s"),
    ("convex.inscribed_ball.lp_calls", "count"),
    ("convex.hulls_intersect.calls", "count"),
    ("convex.hulls_intersect.s", "s"),
    ("convex.hulls_intersect.hits", "count"),
    ("convex.crossing.calls", "count"),
    ("convex.crossing.s", "s"),
    ("nerve.nerve_matches.calls", "count"),
    ("nerve.nerve_matches.s", "s"),
    ("nerve.candidates", "count"),
    ("witness.witness_points.s", "s"),
    ("witness.verify_witness_membership.s", "s"),
    ("witness.verify_remote_disjointness.s", "s"),
    ("witness.remote_pairs", "count"),
    ("witness.piece_tests", "count"),
    ("cli.vkf.hull_tests", "count"),
    ("cli.vkf.s", "s"),
    ("complexes.barycentric_subdivision.calls", "count"),
    ("complexes.barycentric_subdivision.s", "s"),
    ("complexes.is_remote.calls", "count"),
    ("obstruction.intersection_cocycle.s", "s"),
    ("obstruction.coboundary_matrix.s", "s"),
    ("obstruction.gf2_solve.s", "s"),
    ("obstruction.pairs", "count"),
    ("obstruction.rows", "count"),
    ("obstruction.rank", "count"),
    ("certificates.recheck_certificate.s", "s"),
    ("fileio.load_document.s", "s"),
    ("fileio.document_to_text.s", "s"),
]


# Metrics computed from results and parent spans rather than span aggregates.
DERIVED = {
    "linprog.solve_lp.infeasible", "linprog.solve_lp.max_bits",
    "convex.polytope_is_empty.empty", "convex.inscribed_ball.lp_calls",
    "convex.hulls_intersect.hits", "nerve.candidates", "witness.remote_pairs",
    "witness.piece_tests", "cli.vkf.hull_tests", "cli.vkf.s",
    "obstruction.pairs", "obstruction.rows", "obstruction.rank",
}


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class LayerTrace:
    """Install with `with LayerTrace() as t:`; read `t.metrics()` per batch."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Start a new batch: drop every aggregate and counter."""
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.derived: defaultdict = defaultdict(int)

    # -- installation ---------------------------------------------------------

    def _modules(self) -> list[types.ModuleType]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def __enter__(self) -> "LayerTrace":
        modules = self._modules()
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{name}", original))

        def wrapped(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        # Defaults first: afterwards the module attributes are wrappers.
        for module in modules:
            for value in list(vars(module).values()):
                if isinstance(value, types.FunctionType) and value.__defaults__:
                    defaults = tuple(wrapped(v) or v for v in value.__defaults__)
                    if defaults != value.__defaults__:
                        self._patch(value, "__defaults__", defaults)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if wrapped(value) is not None:
                    self._patch(module, attr, wrapped(value))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self._stack
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
            if observe is not None:
                observe(result, parent, elapsed)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # Derived counters, read from results and parent spans only.

    def _on_linprog_solve_lp(self, result, parent, elapsed) -> None:
        if result.status == "infeasible":
            self.derived["linprog.solve_lp.infeasible"] += 1
        if parent == "convex.inscribed_ball":
            self.derived["convex.inscribed_ball.lp_calls"] += 1
        if result.x is not None:
            bits = max(_bits(q) for q in (result.objective, *result.x))
            key = "linprog.solve_lp.max_bits"
            self.derived[key] = max(self.derived[key], bits)

    def _on_convex_polytope_is_empty(self, result, parent, elapsed) -> None:
        if result:
            self.derived["convex.polytope_is_empty.empty"] += 1
        if parent is not None and parent.startswith("nerve."):
            self.derived["nerve.candidates"] += 1

    def _on_convex_hulls_intersect(self, result, parent, elapsed) -> None:
        if result:
            self.derived["convex.hulls_intersect.hits"] += 1
        if parent is not None and parent.startswith("cli."):
            self.derived["cli.vkf.hull_tests"] += 1
            self.derived["cli.vkf.s"] += elapsed

    def _on_witness_verify_remote_disjointness(self, result, parent, elapsed) -> None:
        self.derived["witness.remote_pairs"] += result.remote_pairs
        self.derived["witness.piece_tests"] += result.piece_tests

    def _on_obstruction_intersection_cocycle(self, result, parent, elapsed) -> None:
        self.derived["obstruction.pairs"] += len(result.index)

    def _on_obstruction_coboundary_matrix(self, result, parent, elapsed) -> None:
        self.derived["obstruction.rows"] += result.n_rows

    def _on_obstruction_gf2_solve(self, result, parent, elapsed) -> None:
        self.derived["obstruction.rank"] += result.rank

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every METRICS entry for the batch traced since the last reset."""
        by_stat = {"calls": self.calls, "self_s": self.self_time, "s": self.total}
        out: dict[str, float] = {}
        for name, _unit in METRICS:
            if name in DERIVED:
                out[name] = self.derived[name]
            else:
                span, _, stat = name.rpartition(".")
                out[name] = by_stat[stat][span]
        return out
