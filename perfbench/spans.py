"""Spans and counts recorded around surfmod's public functions.

The tracer replaces each public function at the name its consumer looks
it up by (``surfmod.modulus.jacobian_full``, ``surfmod.oracle.jacobian_partial_y``,
...), so the program itself is unchanged and every span is measured from
outside.  Each wrapped call records a span (id, parent, name, start, end)
and updates a per-(name, scope) aggregate of calls, inclusive time, self
time (the span minus its child spans) and calls that made no traced child.
The scope of a call is the innermost enclosing span of the modulus,
oracle or catalog layer (or the benchmark's own ``op`` span), which is how
Jacobian calls are attributed to the public call that caused them.

Spans are kept in memory up to ``span_cap`` and written out at the end;
aggregates cover every call.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# Leaf layers: their spans never open a scope.
_LEAVES = ("family.", "linalg.", "quadrature.")


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.stats: dict = {}
        self.counts: Counter = Counter()
        self.spans: list = []
        self.span_cap = span_cap
        self.dropped = 0
        self._stack: list = []
        self._next_id = 0
        self._patches: list = []

    # -- recording -----------------------------------------------------

    def _enter(self, name: str):
        stack = self._stack
        outer = stack[-1][0] if stack else None
        scope = outer if name.startswith(_LEAVES) else name
        span_id = self._next_id
        self._next_id += 1
        # frame: scope, child time, child count, id, enclosing scope
        stack.append([scope, 0.0, 0, span_id, outer])
        return time.perf_counter()

    def _exit(self, name: str, start: float):
        end = time.perf_counter()
        stack = self._stack
        scope, child_time, child_count, span_id, outer = stack.pop()
        duration = end - start
        parent_id = None
        if stack:
            parent = stack[-1]
            parent[1] += duration
            parent[2] += 1
            parent_id = parent[3]
        entry = self.stats.get((name, outer))
        if entry is None:
            entry = self.stats[(name, outer)] = [0, 0.0, 0.0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time
        entry[3] += child_count == 0
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.dropped += 1

    def wrap(self, fn, name, classify=None):
        """Traced stand-in for ``fn``; ``classify(args)`` may rename a call."""
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            label = classify(args) if classify is not None else name
            start = enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(label, start)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def region(self, name: str):
        """Record a span around benchmark code."""
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, start)

    # -- installing ----------------------------------------------------

    def patch(self, owner, attr: str, name: str, classify=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, classify))

    def install(self):
        """Wrap every traced public function of surfmod at its call sites."""
        from surfmod import catalog, family, linalg, modulus, oracle, quadrature

        def jacobian_kind(args):
            return "family.fd_jacobian" if args[0].jacobian is None else "family.jacobian"

        for mod in (family, modulus):
            self.patch(mod, "jacobian_full", "family.jacobian", jacobian_kind)
            self.patch(mod, "submersion_jacobian", "family.submersion_jacobian")
            self.patch(mod, "generalized_norm", "linalg.generalized_norm")
        self.patch(oracle, "jacobian_partial_y", "family.jacobian", jacobian_kind)
        self.patch(oracle, "generalized_norm", "linalg.generalized_norm")
        for mod in (family, modulus, oracle):
            self.patch(mod, "evaluate_map", "family.map")
        for mod in (modulus, catalog):
            self.patch(mod, "key_relation_residual", "family.key_relation_residual")
        self.patch(quadrature.QuadratureScheme, "box_rule", "quadrature.box_rule")
        for attr in (
            "modulus_p",
            "submersion_modulus",
            "coarea_check",
            "admissibility_check",
            "extremality_probe",
            "jacobian_floor",
            "extremal_density",
        ):
            self.patch(modulus, attr, f"modulus.{attr}")
        for attr in ("evaluate_ambient", "evaluate_param", "l_value"):
            self.patch(modulus.ExtremalDensity, attr, f"modulus.{attr}")
        for attr in ("discretize_family", "solve_discrete"):
            self.patch(oracle, attr, f"oracle.{attr}")
        self.patch(oracle.DiscreteModulusProblem, "constraint_matrix", "oracle.constraint_matrix")
        for attr in (
            "make_parallel",
            "make_shear",
            "make_polar_annulus",
            "make_pq_map",
            "make_condenser",
            "build_entry",
        ):
            self.patch(catalog, attr, "catalog.build")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------

    def _sum(self, name, column, scope=None, scope_prefix=None, not_scope=None):
        total = 0
        for (key_name, key_scope), entry in self.stats.items():
            if key_name != name:
                continue
            if scope is not None and key_scope != scope:
                continue
            if scope_prefix is not None and not (key_scope or "").startswith(scope_prefix):
                continue
            if not_scope is not None and key_scope == not_scope:
                continue
            total += entry[column]
        return total

    def calls(self, name, **where):
        return self._sum(name, 0, **where)

    def total(self, name, **where):
        return self._sum(name, 1, **where)

    def self_time(self, name, **where):
        return self._sum(name, 2, **where)

    def childless(self, name, **where):
        return self._sum(name, 3, **where)

    def mean(self, name, scale=1.0, **where):
        calls = self.calls(name, **where)
        return scale * self.total(name, **where) / calls if calls else 0.0

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                parent_text = "" if parent is None else str(parent)
                out.write(f"{span_id},{parent_text},{name},{start:.9f},{end:.9f}\n")


_MODULUS_CALLS = (
    ("modulus.modulus_p_ms", "modulus.modulus_p"),
    ("modulus.submersion_ms", "modulus.submersion_modulus"),
    ("modulus.coarea_ms", "modulus.coarea_check"),
    ("modulus.admissibility_ms", "modulus.admissibility_check"),
    ("modulus.extremality_ms", "modulus.extremality_probe"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, imports: dict) -> dict:
    """Per-layer metrics, in the units BENCHMARK.json gives them.

    Counts are per operation (``count/op``) so that they do not depend on
    how many operations fit in a run; times are means per call.
    """
    t = tracer
    c = t.counts
    jac = t.calls("family.jacobian")
    fd = t.calls("family.fd_jacobian")
    modulus_jac = t.calls("family.jacobian", scope_prefix="modulus.") + t.calls(
        "family.fd_jacobian", scope_prefix="modulus."
    )
    modulus_self = sum(
        entry[2] for (name, _), entry in t.stats.items() if name.startswith("modulus.")
    )
    queries = t.calls("modulus.evaluate_ambient")
    lookups = t.calls("modulus.l_value")
    hits = t.childless("modulus.l_value")
    discretize_s = t.total("oracle.discretize_family")
    builds = t.calls("catalog.build", not_scope="catalog.build")
    metrics = {
        "family.jacobian_calls": (_ratio(jac + fd, ops), "count/op"),
        "family.jacobian_us": (t.mean("family.jacobian", 1e6), "us"),
        "family.fd_jacobian_us": (t.mean("family.fd_jacobian", 1e6), "us"),
        "family.map_calls": (_ratio(t.calls("family.map"), ops), "count/op"),
        "family.map_us": (t.mean("family.map", 1e6), "us"),
        "family.submersion_jacobian_calls": (
            _ratio(t.calls("family.submersion_jacobian"), ops),
            "count/op",
        ),
        "linalg.norm_calls": (_ratio(t.calls("linalg.generalized_norm"), ops), "count/op"),
        "linalg.norm_us": (t.mean("linalg.generalized_norm", 1e6), "us"),
        "quadrature.box_rule_calls": (_ratio(t.calls("quadrature.box_rule"), ops), "count/op"),
        "quadrature.box_rule_ms": (t.mean("quadrature.box_rule", 1e3), "ms"),
        "modulus.nodes": (_ratio(c["nodes"], ops), "count/op"),
        "modulus.jacobians_per_node": (_ratio(modulus_jac, c["nodes"]), "count/node"),
        "modulus.self_ms_per_op": (_ratio(1e3 * modulus_self, ops), "ms"),
        "modulus.floor_calls": (_ratio(t.calls("modulus.jacobian_floor"), ops), "count/op"),
        "modulus.floor_ms": (t.mean("modulus.jacobian_floor", 1e3), "ms"),
    }
    for metric, name in _MODULUS_CALLS:
        calls = t.calls(name)
        metrics[metric] = (_ratio(1e3 * t.self_time(name), calls), "ms")
    metrics.update(
        {
            "modulus.newton_us": (
                _ratio(
                    1e6
                    * (
                        t.total("modulus.evaluate_ambient")
                        - t.total("modulus.evaluate_param", scope="modulus.evaluate_ambient")
                    ),
                    queries,
                ),
                "us",
            ),
            "modulus.newton_map_evals_per_query": (
                _ratio(t.calls("family.map", scope="modulus.evaluate_ambient"), queries),
                "count/query",
            ),
            "modulus.l_evals": (_ratio(lookups - hits, ops), "count/op"),
            "modulus.l_lookups": (_ratio(lookups, ops), "count/op"),
            "modulus.l_cache_hit_ratio": (_ratio(hits, lookups), "ratio"),
            "oracle.discretize_s": (t.mean("oracle.discretize_family"), "s"),
            "oracle.samples_per_s": (_ratio(c["samples"], discretize_s), "1/s"),
            "oracle.constraint_matrix_ms": (t.mean("oracle.constraint_matrix", 1e3), "ms"),
            "oracle.nnz": (_ratio(c["nnz"], ops), "count/op"),
            "oracle.solve_s": (t.mean("oracle.solve_discrete"), "s"),
            "oracle.lbfgs_iters": (_ratio(c["lbfgs_iters"], ops), "count/op"),
            "catalog.build_ms": (
                _ratio(1e3 * t.total("catalog.build", not_scope="catalog.build"), builds),
                "ms",
            ),
            "catalog.probe_calls": (
                _ratio(t.calls("family.key_relation_residual", scope="catalog.build"), builds),
                "count/entry",
            ),
            "setup.import_ms": (imports["import_ms"], "ms"),
            "setup.scipy_import_ms": (imports["scipy_import_ms"], "ms"),
        }
    )
    return metrics
