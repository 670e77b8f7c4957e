"""Which avgmix names the traced run wraps, and the per-layer metrics they give.

Each name is wrapped where its caller looks it up, so a function imported
into several modules is wrapped in each of them.  Span names are
``<layer>.<what>``; `layer_metrics` turns the span statistics of one
traced setup plus one traced pass into the per-layer metrics listed in
BENCHMARK.json.  `*_s` metrics are self time: the span's duration minus
its child spans.
"""

from __future__ import annotations

from tracing import SpanStats, Tracer

# (where the caller looks the name up, span name, tally of the result)
WRAPS: list[tuple[str, str, object]] = [
    ("avgmix.enumeration:enumerate_trees", "enumeration.enumerate_trees", None),
    ("avgmix.census:enumerate_trees", "enumeration.enumerate_trees", None),
    ("avgmix.rooted_family:enumerate_trees", "enumeration.enumerate_trees", None),
    ("avgmix.graph6:write_graph6", "graph6.write", None),
    ("avgmix.census:write_graph6", "graph6.write", None),
    ("avgmix.rooted_family:write_graph6", "graph6.write", None),
    ("avgmix.graph6:parse_graph6", "graph6.parse", None),
    ("avgmix.census:parse_graph6", "graph6.parse", None),
    ("avgmix.rooted_family:parse_graph6", "graph6.parse", None),
    ("avgmix.graphs:Graph.delete_vertex", "graphs.delete_vertex", None),
    ("avgmix.census:forest_matching_counts", "matchings.dp", None),
    ("avgmix.rooted_family:forest_matching_counts", "matchings.dp", None),
    ("avgmix.census:simple_from_matching_counts", "matchings.simple_test", int),
    ("avgmix.rooted_family:simple_from_matching_counts", "matchings.simple_test", int),
    # simple_from_matching_counts imports is_squarefree at call time
    ("avgmix.polynomials:is_squarefree", "polynomials.squarefree_test", None),
    ("avgmix.exact:is_squarefree", "polynomials.squarefree_test", None),
    ("avgmix.rooted_family:is_squarefree", "polynomials.squarefree_test", None),
    ("avgmix.exact:forest_char_poly", "polynomials.forest_char_poly", None),
    ("avgmix.polynomials:forest_char_poly", "polynomials.forest_char_poly", None),
    ("avgmix.exact:char_poly", "polynomials.char_poly", None),
    ("avgmix.polynomials:char_poly", "polynomials.char_poly", None),
    ("avgmix.rooted_family:char_poly", "polynomials.char_poly", None),
    ("avgmix.exact:squarefree_part", "polynomials.squarefree_part", None),
    ("avgmix.polynomials:RootSumContext.__init__", "polynomials.root_sum_setup", None),
    ("avgmix.polynomials:RootSumContext.sum_ratio", "polynomials.root_sum_query", None),
    ("avgmix.census:coefficient_matrix", "exact.coefficient_matrix", None),
    ("avgmix.rooted_family:coefficient_matrix", "exact.coefficient_matrix", None),
    # Bareiss on integer coefficient matrices vs. on the rational matrix
    ("avgmix.census:exact_rank", "exact.rank_int", None),
    ("avgmix.rooted_family:exact_rank", "exact.rank_int", None),
    ("avgmix.exact:exact_rank", "exact.rank_fraction", None),
    ("avgmix.census:average_mixing_exact", "exact.amm", None),
    ("avgmix.rooted_family:average_mixing_exact", "exact.amm", None),
    ("avgmix.rooted_family:weighted_projector_schur_sum", "exact.weighted_schur", None),
    ("avgmix.census:census", "census.runner", None),
    ("avgmix.rooted_family:search_low_rank_simple_trees", "rooted_family.scan", None),
    ("avgmix.rooted_family:build_family", "rooted_family.build_family", None),
    ("avgmix.rooted_family:amm_rooted_product_exact", "rooted_family.block_formula", None),
]

# metric -> (unit, better, span name, field); fields of SpanStats
_FROM_SPANS: dict[str, tuple[str, str, str, str]] = {
    "enumeration.trees": ("count", "lower", "enumeration.enumerate_trees", "tally"),
    "enumeration.self_s": ("s", "lower", "enumeration.enumerate_trees", "self_s"),
    "graph6.write_s": ("s", "lower", "graph6.write", "self_s"),
    "graph6.parse_s": ("s", "lower", "graph6.parse", "self_s"),
    "matchings.dp_calls": ("count", "lower", "matchings.dp", "calls"),
    "matchings.dp_s": ("s", "lower", "matchings.dp", "self_s"),
    "matchings.simple_test_s": ("s", "lower", "matchings.simple_test", "self_s"),
    "matchings.simple_found": ("count", "higher", "matchings.simple_test", "tally"),
    "graphs.delete_vertex_calls": ("count", "lower", "graphs.delete_vertex", "calls"),
    "graphs.delete_vertex_s": ("s", "lower", "graphs.delete_vertex", "self_s"),
    "polynomials.forest_char_poly_calls": ("count", "lower", "polynomials.forest_char_poly", "calls"),
    "polynomials.forest_char_poly_s": ("s", "lower", "polynomials.forest_char_poly", "self_s"),
    "polynomials.char_poly_calls": ("count", "lower", "polynomials.char_poly", "calls"),
    "polynomials.char_poly_s": ("s", "lower", "polynomials.char_poly", "self_s"),
    "polynomials.squarefree_part_s": ("s", "lower", "polynomials.squarefree_part", "self_s"),
    "polynomials.squarefree_test_calls": ("count", "lower", "polynomials.squarefree_test", "calls"),
    "polynomials.squarefree_test_s": ("s", "lower", "polynomials.squarefree_test", "self_s"),
    "polynomials.root_sum_setup_s": ("s", "lower", "polynomials.root_sum_setup", "self_s"),
    "polynomials.root_sum_queries": ("count", "lower", "polynomials.root_sum_query", "calls"),
    "polynomials.root_sum_query_s": ("s", "lower", "polynomials.root_sum_query", "self_s"),
    "exact.coefficient_matrix_calls": ("count", "lower", "exact.coefficient_matrix", "calls"),
    "exact.coefficient_matrix_self_s": ("s", "lower", "exact.coefficient_matrix", "self_s"),
    "exact.rank_int_s": ("s", "lower", "exact.rank_int", "self_s"),
    "exact.amm_calls": ("count", "lower", "exact.amm", "calls"),
    "exact.amm_self_s": ("s", "lower", "exact.amm", "self_s"),
    "exact.rank_fraction_s": ("s", "lower", "exact.rank_fraction", "self_s"),
    "exact.weighted_schur_s": ("s", "lower", "exact.weighted_schur", "self_s"),
    "census.runner_self_s": ("s", "lower", "census.runner", "self_s"),
    "rooted_family.scan_self_s": ("s", "lower", "rooted_family.scan", "self_s"),
    "rooted_family.build_family_self_s": ("s", "lower", "rooted_family.build_family", "self_s"),
    "rooted_family.block_formula_s": ("s", "lower", "rooted_family.block_formula", "self_s"),
}

# metric -> (unit, better) for metrics computed from several sources
_DERIVED: dict[str, tuple[str, str]] = {
    "graph6.calls": ("count", "lower"),
    "matchings.simple_yield": ("ratio", "higher"),
    "census.chunks": ("count", "lower"),
    "census.checkpoint_bytes": ("bytes", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

PER_LAYER: dict[str, tuple[str, str]] = {
    **{m: spec[:2] for m, spec in _FROM_SPANS.items()},
    **_DERIVED,
}


def install(tracer: Tracer) -> None:
    for target, name, tally in WRAPS:
        tracer.wrap(target, name, tally)


def merge(setup: dict[str, SpanStats], passes: dict[str, SpanStats], npasses: int):
    """Span statistics of one setup plus one pass (the traced passes' mean)."""
    out: dict[str, SpanStats] = {}
    for name in set(setup) | set(passes):
        a = setup.get(name, SpanStats())
        b = passes.get(name, SpanStats())
        out[name] = SpanStats(
            a.calls + b.calls / npasses,
            a.self_s + b.self_s / npasses,
            a.tally + b.tally / npasses,
        )
    return out


def _number(x):
    return int(x) if float(x).is_integer() else x


def layer_metrics(stats: dict[str, SpanStats], counts: dict, overhead_pct: float) -> dict:
    """Every per-layer metric; layers a workload never enters read 0."""
    values = {}
    for metric, (_, _, span, field) in _FROM_SPANS.items():
        values[metric] = _number(getattr(stats.get(span, SpanStats()), field))
    values["graph6.calls"] = _number(
        sum(stats.get(s, SpanStats()).calls for s in ("graph6.write", "graph6.parse")),
    )
    dp = values["matchings.dp_calls"]
    values["matchings.simple_yield"] = values["matchings.simple_found"] / dp if dp else 0.0
    values["census.chunks"] = counts.get("chunks", 0)
    values["census.checkpoint_bytes"] = counts.get("checkpoint_bytes", 0)
    values["trace.overhead_pct"] = overhead_pct
    return {m: {"value": values[m], "unit": PER_LAYER[m][0]} for m in PER_LAYER}
