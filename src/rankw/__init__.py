"""Rank-width and bi-rank-width of edge-colored graphs over finite fields.

The package computes exact F-rank-width and F-bi-rank-width of graphs whose
arcs carry nonzero field elements, performs lambda-local and pivot
complementations, searches for minimal width obstructions, and compiles
optimal layouts into bilinear-product terms (and evaluates terms back to
graphs).
"""

from .cutrank import CutFunction, bicutrk, cutrk, matroid_lambda
from .fields import (
    Field,
    FieldError,
    QuadraticExtension,
    Sesquimorphism,
    field_extend_quadratic,
    field_make,
    parse_sigma,
    sesqui_check,
    sigma_compatible,
    sigma_compatible_set,
    sigma_frobenius_conj,
    sigma_identity,
    sigma_negation,
)
from .graphs import (
    ColoredGraph,
    GraphError,
    SigmaGraph,
    canonical_form,
    digraph_gf2,
    emit_dot,
    emit_graph,
    encode_directed,
    encode_oriented,
    encode_undirected,
    is_sigma_symmetric,
    isomorphic,
    parse_graph,
    tilde,
)
from .layouts import (
    Layout,
    LayoutError,
    SearchStats,
    SizeBoundError,
    WidthResult,
    birankwidth,
    decide_width_at_most,
    layout_width,
    parse_newick,
    rankwidth,
    width_exact,
)
from .matrix import MatrixError
from .terms import (
    BiColoredGraph,
    BiConst,
    BiProd,
    Mat,
    RankConst,
    RankProd,
    TermError,
    VColoredGraph,
    emit_term,
    eval_birank_term,
    eval_rank_term,
    parse_term,
    syntactic_layout,
    term_from_layout_birank,
    term_from_layout_rank,
)
from .transform import (
    MinorSearchResult,
    Obstruction,
    ObstructionStats,
    SearchBudgetError,
    const_graph,
    ec_cycle,
    equivalence_orbit,
    equivalence_orbit_graphs,
    find_obstructions,
    is_minor,
    local_complement,
    obstruction_size_bound,
    pivot_complement,
    sigma_symmetric_graphs,
)

__version__ = "0.1.0"
