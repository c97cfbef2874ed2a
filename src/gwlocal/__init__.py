"""Exact genus-zero invariants of complete intersections in projective space
by torus fixed-point graph sums, with genus-one relations, instanton-number
expansions, and a reference-table audit for the quintic threefold.

The top level holds the documented API.  Everything else is imported from
its module: :mod:`gwlocal.targets`, :mod:`gwlocal.localization`,
:mod:`gwlocal.relations` and :mod:`gwlocal.cache`.
"""

from .targets import (
    CITarget,
    DimensionQuery,
    WeightVector,
    expected_dimension,
    is_positive_system,
    positivity_check,
)
from .graphs import FixedGraph, enumerate_graphs
from .localization import (
    DimensionMismatch,
    EngineResult,
    ResamplingExhausted,
    WeightIndependenceFailure,
    lines_closed_form,
    sample_weights,
    sum_invariant,
)
from .relations import (
    BPSTable,
    QuinticTableRow,
    ReferenceTable,
    bps0_from_gw0,
    bps1_from_gw1,
    genus1_from_reduced,
    gw0_from_bps0,
    gw1_from_bps,
    load_table1,
    reproduce_table1,
    wdvv_p2,
)

__version__ = "0.1.0"

__all__ = [
    "CITarget",
    "DimensionQuery",
    "WeightVector",
    "expected_dimension",
    "is_positive_system",
    "positivity_check",
    "FixedGraph",
    "enumerate_graphs",
    "DimensionMismatch",
    "EngineResult",
    "ResamplingExhausted",
    "WeightIndependenceFailure",
    "lines_closed_form",
    "sample_weights",
    "sum_invariant",
    "BPSTable",
    "QuinticTableRow",
    "ReferenceTable",
    "bps0_from_gw0",
    "bps1_from_gw1",
    "genus1_from_reduced",
    "gw0_from_bps0",
    "gw1_from_bps",
    "load_table1",
    "reproduce_table1",
    "wdvv_p2",
    "__version__",
]
