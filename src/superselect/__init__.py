"""Superselector construction, verification, and decoding.

A (p, v, n)-superselector is an m x n binary matrix that is an
(i, v_i, n)-selector for every level i up to p: each i-column submatrix
contains at least v_i distinct rows of the identity. The package builds
such matrices at a union-bound threshold size (randomized or fully
deterministic), verifies them by brute force, and layers group-testing,
encoding, compression, and user-tracing applications on top.
"""

from .core import (
    BitMatrix,
    BudgetError,
    DEFAULT_SUBSET_BUDGET,
    InputError,
    ParseError,
    SuperSelectorSpec,
    arithmetic_sum,
    boolean_sum,
    format_matrix,
    format_spec,
    format_vector,
    identify,
    is_list_disjunct,
    is_superselector,
    parse_matrix,
    parse_spec,
    parse_vector,
    row_mask,
    row_vector,
    selector_spec,
)
from .sizing import (
    SizeBound,
    derand_threshold,
    fill_spec,
    selector_upper_bound,
    superselector_lower_bound,
    superselector_upper_bound,
)
from .construct import (
    ConstructionFailure,
    DerandState,
    PrecisionFault,
    construct_derandomized,
    construct_randomized,
    sample_random_matrix,
)
from .decode import (
    DecodeResult,
    InconsistentObservationError,
    additive_decode,
    approx_decode,
    identify_from_union,
)
from .apps import (
    CompressedWord,
    MonotoneEncoding,
    additive_gt_spec,
    approx_gt_spec,
    compress,
    decompress,
    list_disjunct_params,
    monotone_chain,
    monotone_decode,
    monotone_encode,
    mut_decode,
    mut_spec,
)

__all__ = [
    "BitMatrix",
    "BudgetError",
    "CompressedWord",
    "ConstructionFailure",
    "DEFAULT_SUBSET_BUDGET",
    "DecodeResult",
    "DerandState",
    "InconsistentObservationError",
    "InputError",
    "MonotoneEncoding",
    "ParseError",
    "PrecisionFault",
    "SizeBound",
    "SuperSelectorSpec",
    "additive_decode",
    "additive_gt_spec",
    "approx_decode",
    "approx_gt_spec",
    "arithmetic_sum",
    "boolean_sum",
    "compress",
    "construct_derandomized",
    "construct_randomized",
    "decompress",
    "derand_threshold",
    "fill_spec",
    "format_matrix",
    "format_spec",
    "format_vector",
    "identify",
    "identify_from_union",
    "is_list_disjunct",
    "is_superselector",
    "list_disjunct_params",
    "monotone_chain",
    "monotone_decode",
    "monotone_encode",
    "mut_decode",
    "mut_spec",
    "parse_matrix",
    "parse_spec",
    "parse_vector",
    "row_mask",
    "row_vector",
    "sample_random_matrix",
    "selector_spec",
    "selector_upper_bound",
    "superselector_lower_bound",
    "superselector_upper_bound",
]

__version__ = "0.1.0"
