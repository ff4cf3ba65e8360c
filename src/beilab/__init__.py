"""Exact combinatorial analysis of binomial edge ideals of finite simple
graphs: cutset-based unmixedness and accessibility, the admissible-path
initial ideal, and Cohen-Macaulayness as depth = dim, with the depth of
the initial ideal from Hochster's formula."""

from .graphs import (Graph, GraphParseError, INFINITY, add_whisker, blocks,
                     block_with_whiskers, complete_graph, connected_components, cut_vertices,
                     cycle_graph, decompose_at, delete_vertices,
                     emit_graph6, girth, glue_at, induced_cycle_lengths,
                     is_connected, is_free_vertex, parse_edge_list,
                     parse_graph6, path_graph, relabel, saturate)
from .cutsets import (Cutset, enumerate_cutsets, is_accessible, is_cutset,
                      is_unmixed, component_count)
from .monomials import MonomialIdeal, SimplicialComplex, stanley_reisner
from .binomial_edge import (admissible_paths, ass_initial,
                            colon_saturation_identity, initial_ideal,
                            prime_ideal, setup_identities,
                            verify_decomposition)
from .homology import (FieldSpec, Limits, QQ, hochster_depth, reisner_cm,
                       brute_depth_oracle)
from .lab import (AnalysisReport, TheoremVerdict, VERIFIERS, analyze,
                  cm_check, depth_JG, depth_equality_check,
                  depth_question_filter, dim_JG, hypothesis_search,
                  neighborhood_cutset_exists, report_json, whiskered_sides)
from .corpus import (all_graphs, connected_graphs, connected_graphs_upto,
                     random_connected_graph)

__version__ = "1.0.0"
