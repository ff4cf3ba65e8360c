"""Exact combinatorial analysis of binomial edge ideals of finite simple
graphs: cutset-based unmixedness and accessibility, the admissible-path
initial ideal, and Cohen-Macaulayness as depth = dim, with the depth of
the initial ideal from Hochster's formula.

The namespace is lazy (PEP 562): a name below is imported from its
submodule on first use, so a process loads only the modules it reaches.
"""

__version__ = "1.0.0"

# submodule -> the names it exports here
_EXPORTS = {
    "graphs": """Graph GraphParseError INFINITY add_whisker blocks
        block_with_whiskers complete_graph connected_components
        cut_vertices cycle_graph decompose_at delete_vertices diameter
        emit_graph6 girth glue_at induced_cycle_lengths is_connected
        is_free_vertex parse_edge_list parse_graph6 path_graph relabel
        saturate""",
    "cutsets": """Cutset enumerate_cutsets is_accessible is_cutset
        is_unmixed component_count""",
    "monomials": "MonomialIdeal SimplicialComplex stanley_reisner",
    "binomial_edge": """admissible_paths ass_initial
        colon_saturation_identity initial_ideal prime_ideal
        setup_identities verify_decomposition""",
    "homology": """FieldSpec Limits QQ hochster_depth reisner_cm
        brute_depth_oracle""",
    "lab": """AnalysisReport TheoremVerdict VERIFIERS analyze cm_check
        depth_JG depth_equality_check depth_question_filter dim_JG
        hypothesis_search neighborhood_cutset_exists report_json
        whiskered_sides""",
    "corpus": """all_graphs connected_graphs connected_graphs_upto
        random_connected_graph""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module

    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module("." + module, __name__), name)
        globals()[name] = value     # later lookups skip this hook
        return value
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
