"""The package's integer evaluator against the original Fraction evaluator,
term by term at shared weights.

Both evaluators see the same tree and the same weight vector; every
contribution must be the identical ``Fraction``, and a specialization must
degenerate for one exactly when it degenerates for the other: the reference
raises its own ``DegenerateWeights``, and the package's vanishing factor
raises ``ZeroDivisionError``.  The package evaluates at the weights with
their denominators cleared, which leaves a balanced problem's terms
unchanged; the non-integral scales check that.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from gwlocal import (
    CITarget,
    FixedGraph,
    WeightVector,
    sample_weights,
)
from gwlocal.localization import _Evaluator

import reference_graphs
from reference_evaluator import DegenerateWeights, ReferenceEvaluator, scaled

SCALES = (1, Fraction(7, 3), Fraction(1, 97))


def _value(evaluator, graph):
    # one tree's term, summed over the placements of the target's marks
    if isinstance(evaluator, _Evaluator):
        return evaluator.classes_total((graph,))
    return evaluator.summed_value(graph)


def _outcome(evaluator, graph):
    # the tree's term, or DegenerateWeights if one of its factors vanishes
    vanishing = ZeroDivisionError if isinstance(evaluator, _Evaluator) else DegenerateWeights
    try:
        return _value(evaluator, graph)
    except vanishing:
        return DegenerateWeights


@lru_cache(maxsize=None)
def _graphs(n, d, marks=0):
    # several tests share each class list; enumerate it once
    return tuple(reference_graphs.classes(n, d, marks))


def assert_terms_agree(target, weights):
    graphs = _graphs(target.ambient_dim, target.curve_degree)
    kernel = _Evaluator(weights, target.degrees, target.insertions)
    reference = ReferenceEvaluator(weights, target)
    for graph in graphs:
        assert _outcome(kernel, graph) == _outcome(reference, graph), graph
    return graphs


def _name(target):
    powers = "".join(map(str, target.insertions))
    degrees = "".join(map(str, target.degrees))
    return f"P{target.ambient_dim}[{degrees}]-d{target.curve_degree}-{powers or 'none'}"


def _points_in_p2(d):
    return CITarget(2, (), d, (2,) * (3 * d - 1))


def _lines_in_p3(d):
    return CITarget(3, (), d, (2,) * (4 * d))


LOW_DEGREE_TARGETS = (
    [CITarget(4, (5,), d) for d in (1, 2, 3)]
    + [CITarget(5, (3, 3), d) for d in (1, 2, 3)]
    + [CITarget(7, (2, 2, 2, 2), d) for d in (1, 2, 3)]
    + [_points_in_p2(d) for d in (1, 2, 3)]
    + [_lines_in_p3(d) for d in (1, 2, 3)]
    + [CITarget(3, (), 2, (3, 3, 2, 2, 2, 2)), CITarget(4, (5,), 2, (1, 1))]
)

# every target below degree 3 at every scale; the costlier degree-3 targets
# take the scales in turn
CASES = [
    (target, scale) for target in LOW_DEGREE_TARGETS if target.curve_degree < 3 for scale in SCALES
] + [
    (target, SCALES[i % len(SCALES)])
    for i, target in enumerate(t for t in LOW_DEGREE_TARGETS if t.curve_degree == 3)
]


class TestSummedValue:
    @pytest.mark.parametrize(
        "target, scale", CASES, ids=[f"{_name(t)}-x{scale}" for t, scale in CASES]
    )
    def test_low_degrees(self, target, scale):
        weights = scaled(sample_weights(4, target.ambient_dim), scale)
        assert_terms_agree(target, weights)

    def test_quintic_degree_four(self):
        graphs = assert_terms_agree(CITarget(4, (5,), 4), sample_weights(1, 4))
        assert len(graphs) == 2475

    def test_plane_quartics_through_eleven_points(self):
        weights = scaled(sample_weights(6, 2), Fraction(1, 97))
        graphs = assert_terms_agree(_points_in_p2(4), weights)
        assert len(graphs) == 159


# the targets of the marked-versus-factored check: P1 lines through two
# points, P2 conics through five.  The package has no marked-class path, so
# its factored total over unmarked classes is checked against the reference's
# explicit total over marked classes
MARKED_CASES = [(CITarget(1, (), 1, (1, 1)), scale) for scale in SCALES] + [
    (CITarget(2, (), 2, (2,) * 5), scale) for scale in SCALES[:2]
]


class TestMarkedValue:
    @pytest.mark.parametrize(
        "target, scale", MARKED_CASES, ids=[f"{_name(t)}-x{s}" for t, s in MARKED_CASES]
    )
    def test_marked_classes(self, target, scale):
        weights = scaled(sample_weights(2, target.ambient_dim), scale)
        kernel = _Evaluator(weights, target.degrees, target.insertions)
        factored = kernel.classes_total(assert_terms_agree(target, weights))
        reference = ReferenceEvaluator(weights, target)
        marked = _graphs(target.ambient_dim, target.curve_degree, len(target.insertions))
        assert factored == sum(map(reference.marked_value, marked))


class TestDegeneracy:
    def test_edge_meeting_a_third_fixed_point(self):
        graph = FixedGraph((0, 2), ((0, 1, 2),), 1)
        weights = WeightVector((1, 2, 3))
        target = CITarget(2, (), 2)
        for evaluator in (_Evaluator(weights, (), ()), ReferenceEvaluator(weights, target)):
            assert _outcome(evaluator, graph) is DegenerateWeights

    def test_reciprocal_flag_weights_cancelling(self):
        # the middle vertex (weight 2) has flags of weight 1 and -1
        graph = FixedGraph((1, 0, 2), ((0, 1, 1), (0, 2, 1)), 1)
        weights = WeightVector((1, 2, 3))
        target = CITarget(2, (), 2)
        for evaluator in (_Evaluator(weights, (), ()), ReferenceEvaluator(weights, target)):
            assert _outcome(evaluator, graph) is DegenerateWeights

    @pytest.mark.parametrize(
        "target, weights",
        [
            (_points_in_p2(2), WeightVector((1, 2, 3))),
            (_points_in_p2(3), WeightVector((1, 2, 3))),
            (CITarget(2, (), 3, (2, 2, 2, 1, 1, 1)), WeightVector((2, 4, 6))),
            (_lines_in_p3(2), WeightVector((1, 2, 3, 4))),
            (CITarget(4, (5,), 3), scaled(WeightVector((1, 2, 3, 4, 5)), Fraction(1, 3))),
        ],
        ids=lambda value: _name(value) if isinstance(value, CITarget) else "",
    )
    def test_same_trees_degenerate(self, target, weights):
        kernel = _Evaluator(weights, target.degrees, target.insertions)
        degenerate = [
            graph
            for graph in _graphs(target.ambient_dim, target.curve_degree)
            if _outcome(kernel, graph) is DegenerateWeights
        ]
        assert degenerate
        assert_terms_agree(target, weights)
