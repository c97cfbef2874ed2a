"""The engine's shape-by-shape label sum against the reference class sum.

For a target without insertions the engine sums each degree-decorated shape
over all of its labellings at once (``_Evaluator.shape_value``) and never
lists a tree class.  Here its total at a weight vector must equal the sum of
the original Fraction evaluator over the classes of the original
canonical-key enumerator, which share no code with it; and ``_degenerate``
must flag a vector exactly when the reference sum degenerates on it.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from gwlocal import CITarget, WeightVector, sample_weights, sum_invariant
from gwlocal.localization import _degenerate, _summands, _totals_at

import reference_graphs
from reference_evaluator import DegenerateWeights, ReferenceEvaluator, scaled

# each scale is a ratio of two integer factors: the engine's vector is the
# base vector times its numerator, the reference's the base vector times its
# denominator, and a balanced problem's value, homogeneous of degree 0 in the
# weights, is the same at both
SCALES = (Fraction(1), Fraction(7, 3), Fraction(1, 97))


@lru_cache(maxsize=None)
def _reference_classes(n, d):
    return tuple(reference_graphs.enumerate_graphs(n, d, 0))


def _reference_total(target, weights):
    evaluator = ReferenceEvaluator(weights, target)
    try:
        return sum(
            map(evaluator.summed_value, _reference_classes(target.ambient_dim, target.curve_degree)),
            Fraction(0),
        )
    except DegenerateWeights:
        return None


def _shape_total(target, weights):
    term, shapes, _count = _summands(target)
    (total,) = _totals_at((term, shapes, target, 1), [weights])
    return total


def _name(target):
    return f"P{target.ambient_dim}[{''.join(map(str, target.degrees))}]-d{target.curve_degree}"


TARGETS = (
    # the smallest label tables: two labels, and three
    [CITarget(1, (), 1), CITarget(2, (2,), 2)]
    + [CITarget(4, (5,), d) for d in (1, 2, 3)]
    + [CITarget(5, (3, 3), d) for d in (1, 2, 3)]
    + [CITarget(7, (2, 2, 2, 2), d) for d in (1, 2)]
    + [CITarget(5, (4, 2), 1), CITarget(6, (3, 2, 2), 1)]
)

# every target at every scale; the two costliest reference sums (about a
# second each) take one scale other than 1 each
CASES = [(target, scale) for target in TARGETS for scale in SCALES] + [
    (CITarget(4, (5,), 4), SCALES[2]),
    (CITarget(7, (2, 2, 2, 2), 3), SCALES[1]),
]


@pytest.mark.parametrize("target, scale", CASES, ids=[f"{_name(t)}-x{s}" for t, s in CASES])
def test_equals_reference_class_sum(target, scale):
    base = sample_weights(4, target.ambient_dim)
    total = _shape_total(target, scaled(base, scale.numerator))
    assert total is not None
    assert total == _reference_total(target, scaled(base, scale.denominator))


@pytest.mark.parametrize(
    "target, graph_count",
    # the identity line of P^1, and the conic itself
    [(CITarget(1, (), 1), 1), (CITarget(2, (2,), 2), 12)],
    ids=lambda value: _name(value) if isinstance(value, CITarget) else None,
)
def test_smallest_label_tables(target, graph_count):
    result = sum_invariant(target)
    assert (result.value, result.graph_count) == (1, graph_count)


@pytest.mark.parametrize(
    "target, weights, degenerate",
    [
        # 1 + 3 = 2 * 2: a degree-2 edge between labels 0 and 2 meets label 1
        (CITarget(4, (5,), 2), WeightVector((1, 2, 3, 10, 20)), True),
        (CITarget(4, (5,), 3), scaled(WeightVector((1, 2, 3, 4, 5)), 3), True),
        (CITarget(5, (3, 3), 2), WeightVector((1, 2, 3, 4, 5, 6)), True),
        # 4 + 2 * 1 = 3 * 2 meets only a degree-3 edge: fine at d=2, not at d=3
        (CITarget(4, (5,), 2), WeightVector((1, 4, 2, 30, 50)), False),
        (CITarget(4, (5,), 3), WeightVector((1, 4, 2, 30, 50)), True),
        (CITarget(4, (5,), 3), WeightVector((1, 3, 10, 30, 100)), False),
    ],
    ids=lambda value: (
        _name(value) if isinstance(value, CITarget)
        else "-".join(map(str, value.weights)) if isinstance(value, WeightVector)
        else None
    ),
)
def test_degenerates_with_reference_class_sum(target, weights, degenerate):
    reference = _reference_total(target, weights)
    assert _degenerate(weights, target.curve_degree) == degenerate == (reference is None)
    if not degenerate:
        assert _shape_total(target, weights) == reference
    else:
        with pytest.raises(ZeroDivisionError):
            _shape_total(target, weights)
