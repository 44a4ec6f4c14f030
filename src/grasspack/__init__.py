"""Sparse Grassmannian precoding codebooks: design and benchmarking."""

from .grassmann import (
    Codebook,
    chordal_distance,
    min_chordal_distance,
    projector_distance,
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
)
from .schubert import (
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
    "OptimizerConfig",
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
    "validate_stiefel",
    "__version__",
]
