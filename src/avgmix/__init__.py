"""Exact average mixing matrices of continuous-time quantum walks on graphs."""

from .census import CensusRecord, census, compare_tables, records_from_csv, records_to_csv
from .enumeration import enumerate_trees, random_tree
from .errors import ConsistencyError, DomainError, Graph6Error, GraphInputError
from .exact import (
    AmmResult,
    amm_rank,
    average_mixing_exact,
    coefficient_matrix,
    exact_rank,
    is_simple,
    kernel_exact,
    rank_via_coefficient,
    weighted_projector_schur_sum,
)
from .graph6 import parse_graph6, write_graph6
from .graphs import Graph, Tree, from_edges, path, rooted_product_k2, star
from .matchings import (
    LowerBoundCertificate,
    leaf_next_to_degree_two,
    lower_bound_certificate,
    near_perfect_vertex,
)
from .numeric import (
    average_mixing_float,
    cesaro_average,
    eigh,
    mixing_at_time,
    numeric_rank,
    spectral_decomp,
    transition_matrix,
    verify_cvdv_identity,
)
from .polynomials import (
    char_poly,
    is_squarefree,
    squarefree_part,
    trace_over_roots,
)
from .rooted_family import (
    FamilyMember,
    amm_rooted_product_exact,
    build_family,
    find_t_star,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
