"""Sparse Grassmannian precoding codebooks: design and benchmarking."""

from .grassmann import (
    Codebook,
    Codeword,
    chordal_distance,
    min_chordal_distance,
    projector_distance,
    subspace_equal,
    validate_stiefel,
)
from .codebooks import (
    OptimizerConfig,
    QUARTER_GRID,
    build_expmap,
    build_general_sparse,
    build_sparse_2M,
    load_codebook,
    nr_codebook_4_2,
    optimize_manopt,
    optimize_phases_2M,
    proposed_codebook_4_2,
    save_codebook,
    smooth_mcd_objective,
)
from .schubert import (
    PairPattern,
    SparsityPattern,
    count_patterns,
    enumerate_patterns,
    matching_patterns,
    pair_codeword,
    pattern_to_codeword,
)

__version__ = "0.1.0"

__all__ = [
    "Codebook",
    "Codeword",
    "OptimizerConfig",
    "PairPattern",
    "QUARTER_GRID",
    "SparsityPattern",
    "build_expmap",
    "build_general_sparse",
    "build_sparse_2M",
    "chordal_distance",
    "count_patterns",
    "enumerate_patterns",
    "load_codebook",
    "matching_patterns",
    "min_chordal_distance",
    "nr_codebook_4_2",
    "optimize_manopt",
    "optimize_phases_2M",
    "pair_codeword",
    "pattern_to_codeword",
    "projector_distance",
    "proposed_codebook_4_2",
    "save_codebook",
    "smooth_mcd_objective",
    "subspace_equal",
    "validate_stiefel",
    "__version__",
]
