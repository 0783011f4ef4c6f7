"""Exact Turán-type edge maxima for three spider-like tree families.

The package computes, for a forbidden tree T on ``n`` vertices with maximum
degree ``n - 4`` (three concrete families, plus paths and stars), the exact
maximum number of edges of a T-free graph on ``p`` vertices; builds host
graphs attaining the maxima; certifies T-freeness with an exact embedding
checker; and cross-validates everything against a brute-force oracle at desk
scale.  All arithmetic is exact integer arithmetic.
"""

from .graphs import (
    SimpleGraph,
    from_graph6,
    to_graph6,
    from_edge_text,
    to_edge_text,
    read_graph_file,
    write_graph_file,
)
from .trees import (
    TreeFamily,
    t3,
    tpp,
    tppp,
    path,
    star,
    explicit_tree,
    realize,
    is_tree,
    parse_family_spec,
    spec_string,
)
from .formulas import (
    ResidueDecomposition,
    ExtremalValue,
    decompose,
    ex_path,
    ex_star,
    generic_max_form,
    ex_tpp,
    ex_tppp,
    ex_t3,
    ex_t3_partial,
    lower_bound,
    upper_bound,
    extremal_value,
)
from .constructions import (
    ConstructionRecipe,
    clique_union,
    near_regular,
    lemma46_even,
    lemma46_odd,
    lemma47_construct,
    extremal_graph,
)
from .containment import (
    contains_tree,
    generic_backtrack,
    verify_witness,
)
from .oracle import (
    OracleResult,
    BudgetExceeded,
    ex_bruteforce,
    verify_formula,
    DEFAULT_BUDGET_NODES,
    DEFAULT_BUDGET_SECONDS,
)

__version__ = "0.1.0"

__all__ = [
    "SimpleGraph",
    "from_graph6",
    "to_graph6",
    "from_edge_text",
    "to_edge_text",
    "read_graph_file",
    "write_graph_file",
    "TreeFamily",
    "t3",
    "tpp",
    "tppp",
    "path",
    "star",
    "explicit_tree",
    "realize",
    "is_tree",
    "parse_family_spec",
    "spec_string",
    "ResidueDecomposition",
    "ExtremalValue",
    "decompose",
    "ex_path",
    "ex_star",
    "generic_max_form",
    "ex_tpp",
    "ex_tppp",
    "ex_t3",
    "ex_t3_partial",
    "lower_bound",
    "upper_bound",
    "extremal_value",
    "ConstructionRecipe",
    "clique_union",
    "near_regular",
    "lemma46_even",
    "lemma46_odd",
    "lemma47_construct",
    "extremal_graph",
    "contains_tree",
    "generic_backtrack",
    "verify_witness",
    "OracleResult",
    "BudgetExceeded",
    "ex_bruteforce",
    "verify_formula",
    "DEFAULT_BUDGET_NODES",
    "DEFAULT_BUDGET_SECONDS",
    "__version__",
]
