"""1-Sperner hypergraphs and their graph applications.

Recognition and gluing decomposition of 1-Sperner hypergraphs, threshold
and domishold graph characterizations with exact certificates, matrix
partition decompositions of four graph classes, clique-width-5 expression
builders with an evaluator, and exact domination solvers.
"""

from .hypergraph import (Hypergraph, HypergraphError, NotOneSpernerError,
                         decompose, glue, is_conformal, is_dually_sperner,
                         is_k_sperner, is_one_sperner, is_sperner,
                         is_z_decomposable, one_sperner_violation, recompose,
                         split_at, transversal)
from .graphs import (Graph, GraphError, LabeledBigraph, LabeledSplitGraph,
                     bigraph_of, clique_hypergraph,
                     closed_neighborhood_hypergraph, co_occurrence,
                     cutset_hypergraph, dominating_set_hypergraph,
                     edge_clique_split_of,
                     find_bipartition, find_induced, find_split_partition,
                     independent_set_hypergraph, neighborhood_hypergraph,
                     pattern, vertex_clique_split_of, vertex_cover_hypergraph)
from .threshold import (AsummabilityWitness, ThresholdError, ThresholdWitness,
                        is_independent_set, is_k_asummable,
                        is_threshold_hypergraph, k_asummability_witness,
                        threshold_witness)
from .recognition import (ConstructionSequence, check_domishold_equivalences,
                          check_threshold_equivalences, is_domishold_graph,
                          is_hereditary_connected_domishold,
                          is_hereditary_total_domishold, is_threshold_graph,
                          is_threshold_via_nested, threshold_construction)
from .decomposition import (DecompositionError, MPartition,
                            clique_sperner_partition, decompose_bigraph_2p3_free,
                            decompose_cobigraph, decompose_split_h_free,
                            decompose_split_hbar_free,
                            find_right_sperner_bipartition,
                            independent_sperner_partition, is_clique_sperner,
                            is_independent_sperner, is_right_sperner, m_matrix,
                            tree_to_text, validate_m_partition)
from .cliquewidth import (AddEdges, ExpressionError, Leaf, Relabel, Union_,
                          build_bigraph_2p3_free, build_cobigraph,
                          build_split_h_free, build_split_hbar_free, evaluate,
                          expression_length, format_expression, parse_expression)
from .domination import (DominationResult, brute_force, dp_dominating_set,
                         solve_h_free_split, solve_h_free_split_all,
                         split_reduce)

__all__ = [name for name in dir() if not name.startswith("_")]
