"""The package's top level: the documented names, and only those."""

import gwlocal

TOP_LEVEL = [
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


def test_top_level_names():
    assert gwlocal.__all__ == TOP_LEVEL
    for name in TOP_LEVEL:
        assert getattr(gwlocal, name) is not None, name
    namespace = {}
    exec("from gwlocal import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(TOP_LEVEL)
