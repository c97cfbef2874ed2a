"""Exact genus-zero invariants of complete intersections in projective space
by torus fixed-point graph sums, with genus-one relations, instanton-number
expansions, and a reference-table audit for the quintic threefold.
"""

from .targets import (
    CITarget,
    DimensionQuery,
    Insertion,
    WeightVector,
    expected_dimension,
    format_fraction,
    is_calabi_yau,
    is_positive_system,
    parse_fraction,
    positivity_check,
)
from .graphs import FixedGraph, enumerate_graphs
from .localization import (
    ENGINE_VERSION,
    DegenerateWeights,
    DimensionMismatch,
    EngineResult,
    ResamplingExhausted,
    WeightIndependenceFailure,
    lines_closed_form,
    required_insertion_total,
    sample_weights,
    stable_map_dim,
    sum_invariant,
)
from .relations import (
    BPSTable,
    QuinticTableRow,
    ReferenceTable,
    UnsupportedDimension,
    bps0_from_gw0,
    bps1_from_gw1,
    genus1_from_reduced,
    gw0_from_bps0,
    gw1_from_bps,
    gw_difference,
    load_table1,
    reproduce_table1,
    wdvv_p2,
)
from .cache import CacheRecord, ResultCache, cache_key, canonical_query_encoding, resolve_cache_dir

__version__ = "0.1.0"

__all__ = [
    "CITarget",
    "DimensionQuery",
    "Insertion",
    "WeightVector",
    "expected_dimension",
    "format_fraction",
    "is_calabi_yau",
    "is_positive_system",
    "parse_fraction",
    "positivity_check",
    "FixedGraph",
    "enumerate_graphs",
    "ENGINE_VERSION",
    "DegenerateWeights",
    "DimensionMismatch",
    "EngineResult",
    "ResamplingExhausted",
    "WeightIndependenceFailure",
    "lines_closed_form",
    "required_insertion_total",
    "sample_weights",
    "stable_map_dim",
    "sum_invariant",
    "BPSTable",
    "QuinticTableRow",
    "ReferenceTable",
    "UnsupportedDimension",
    "bps0_from_gw0",
    "bps1_from_gw1",
    "genus1_from_reduced",
    "gw0_from_bps0",
    "gw1_from_bps",
    "gw_difference",
    "load_table1",
    "reproduce_table1",
    "wdvv_p2",
    "CacheRecord",
    "ResultCache",
    "cache_key",
    "canonical_query_encoding",
    "resolve_cache_dir",
    "__version__",
]
