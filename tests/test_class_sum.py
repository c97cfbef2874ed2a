"""The engine's class sum, a slice at a time, against the reference class sum.

For a target with insertions the engine sums a slice of tree classes at a
weight vector with ``_Evaluator.classes_total``, which divides the marks'
common denominator ``L^k`` out once per slice.  Here its totals must equal
the sum of the original Fraction evaluator over the classes of the original
canonical-key enumerator, which share no code with it, for one slice and for
two, in pools started by fork, spawn and forkserver; ``_degenerate`` must
flag a vector exactly when the reference sum degenerates on it.  A slice's
running-lcm total must equal the sum of its classes' own totals, and each
edge's memo entry must read the same from either end.  The string and
divisor axioms and the plane-points values check the mark sums against the
geometry, and every point, line and higher-codimension target of a grid on
P^2 to P^5 against the Kontsevich-Manin recursion.
"""

import multiprocessing
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from gwlocal import CITarget, WeightVector, sample_weights, sum_invariant, wdvv_p2
from gwlocal import localization
from gwlocal.localization import _degenerate, _Evaluator, _summands, _totals_at

import reference_graphs
from oracles import h_subring_wdvv, kontsevich_manin
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


def _class_totals(target, candidates, jobs=1, context=None):
    # each vector in ``jobs`` slices, by a pool of ``jobs`` workers if more
    # than one, started by the multiprocessing ``context`` if one is given
    term, graphs, _count = _summands(target)
    with pytest.MonkeyPatch.context() as patch:
        if context is not None:
            pool = partial(localization.ProcessPoolExecutor, mp_context=context)
            patch.setattr(localization, "ProcessPoolExecutor", pool)
        return _totals_at((term, graphs, target, jobs), candidates)


def _name(target):
    powers = "".join(map(str, target.insertions))
    degrees = "".join(map(str, target.degrees))
    return f"P{target.ambient_dim}[{degrees}]-d{target.curve_degree}-{powers}"


# balanced targets with insertions: points and lines, mixed powers, a unit
# insertion, and divisors on the quintic
TARGETS = (
    [CITarget(2, (), d, (2,) * (3 * d - 1)) for d in (1, 2, 3, 4)]
    + [CITarget(3, (), d, (2,) * (4 * d)) for d in (1, 2, 3)]
    + [
        CITarget(3, (), 2, (3, 3, 2, 2, 2, 2)),
        CITarget(4, (), 1, (4, 3, 2)),
        CITarget(4, (), 2, (4, 4, 4, 3)),
        CITarget(2, (), 1, (0, 2, 2, 2)),
        CITarget(4, (5,), 1, (1,)),
        CITarget(4, (5,), 2, (1, 1)),
    ]
)

CASES = [(target, scale) for target in TARGETS for scale in SCALES]


@pytest.mark.parametrize("target, scale", CASES, ids=[f"{_name(t)}-x{s}" for t, s in CASES])
def test_equals_reference_class_sum(target, scale):
    base = sample_weights(4, target.ambient_dim)
    (total,) = _class_totals(target, [scaled(base, scale.numerator)])
    assert total is not None
    assert total == _reference_total(target, scaled(base, scale.denominator))


def _admissible(target):
    # two vectors of the target that sum_invariant could evaluate
    candidates = [
        scaled(sample_weights(5, target.ambient_dim), 7),
        sample_weights(6, target.ambient_dim),
    ]
    assert not any(_degenerate(weights, target.curve_degree) for weights in candidates)
    return candidates


@pytest.mark.parametrize(
    "target",
    [CITarget(2, (), 3, (2,) * 8), CITarget(3, (), 2, (3, 3, 2, 2, 2, 2))],
    ids=_name,
)
def test_two_slices_equal_one(target):
    # (1, 2, ...) degenerates (see below), so sum_invariant never evaluates it
    assert _degenerate(WeightVector(tuple(range(1, target.ambient_dim + 2))), target.curve_degree)
    candidates = _admissible(target)
    assert _class_totals(target, candidates, jobs=2) == _class_totals(target, candidates)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_two_slices_equal_one_without_fork(method):
    # workers that inherit nothing get the shared items through the pool's
    # initializer alone; spawn is the default start method on macOS and
    # Windows, and forkserver on Linux from Python 3.14
    target = CITarget(2, (), 3, (2,) * 8)
    candidates = _admissible(target)
    context = multiprocessing.get_context(method)
    assert _class_totals(target, candidates, 2, context) == _class_totals(target, candidates)


@pytest.mark.parametrize(
    "target, weights, degenerate",
    [
        # 1 + 3 = 2 * 2: a degree-2 edge between labels 0 and 2 meets label 1
        (CITarget(2, (), 3, (2,) * 8), WeightVector((1, 2, 3)), True),
        (CITarget(2, (), 2, (2,) * 5), scaled(WeightVector((1, 2, 3)), 3), True),
        (CITarget(3, (), 2, (2,) * 8), WeightVector((1, 2, 3, 4)), True),
        # 4 + 2 * 1 = 3 * 2 meets only a degree-3 edge: fine at d=2, not at d=3
        (CITarget(2, (), 2, (2,) * 5), WeightVector((1, 4, 2)), False),
        (CITarget(2, (), 3, (2,) * 8), WeightVector((1, 4, 2)), True),
        (CITarget(2, (), 3, (2,) * 8), WeightVector((1, 3, 10)), False),
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
        assert _class_totals(target, [weights]) == [reference]
    else:
        with pytest.raises(ZeroDivisionError):
            _class_totals(target, [weights])


class TestSliceSum:
    """``classes_total`` adds its classes' integer terms over a running lcm,
    and reads each edge's flags and factor from one memo keyed by the
    ordered labels."""

    @pytest.mark.parametrize(
        "target", [CITarget(2, (), 3, (2,) * 8), CITarget(3, (), 2, (3, 3, 2, 2, 2, 2))], ids=_name
    )
    def test_slice_total_is_sum_of_class_totals(self, target):
        graphs = _summands(target)[1]
        evaluator = _Evaluator(
            scaled(sample_weights(4, target.ambient_dim), 7),
            target.degrees,
            target.insertions,
        )
        # terms with negative denominators exercise the signs of the running lcm
        assert any(evaluator._class_term(graph)[1] < 0 for graph in graphs)
        singles = [evaluator.classes_total((graph,)) for graph in graphs]
        assert evaluator.classes_total(graphs) == sum(singles)
        assert evaluator.classes_total(graphs[::-1]) == sum(singles)

    def test_empty_slice_is_zero(self):
        assert _Evaluator(sample_weights(4, 2), (), (2,) * 8).classes_total(()) == 0

    @pytest.mark.parametrize("reverse", [False, True], ids=["low-first", "high-first"])
    def test_edge_in_both_orders(self, reverse):
        p = sample_weights(4, 4).weights
        evaluator = _Evaluator(sample_weights(4, 4), (5,), ())
        tangent = [prod(pi - pk for pk in p if pk != pi) for pi in p]
        for i, j in combinations(range(5), 2):
            if reverse:
                i, j = j, i
            for de in (1, 2, 3):
                first = evaluator._edge(i, j, de)
                assert evaluator._edge(j, i, de) == (first[1], first[0]) + first[2:]
                # the flags are de * T_i / (p_i - p_j) and de * T_j / (p_j - p_i)
                assert first[0] * (p[i] - p[j]) == de * tangent[i]
                assert first[1] * (p[j] - p[i]) == de * tangent[j]


class TestAxioms:
    """Insertions of power 0 and 1 against the string and divisor axioms,
    which fix them by the invariant without them."""

    @pytest.mark.parametrize(
        "target", [CITarget(2, (), 1, (0, 2, 2, 2)), CITarget(3, (), 1, (0, 3, 3, 2))], ids=_name
    )
    def test_string_axiom(self, target):
        assert sum_invariant(target).value == 0

    @pytest.mark.parametrize(
        "target, value",
        [
            # a hyperplane insertion multiplies by the curve degree
            (CITarget(2, (), 2, (1,) + (2,) * 5), 2),
            (CITarget(2, (), 2, (1, 1) + (2,) * 5), 4),
            (CITarget(3, (), 2, (1,) + (2,) * 8), 2 * 92),
            (CITarget(4, (5,), 2, (1, 1)), 4 * Fraction(4876875, 8)),
        ],
        ids=lambda value: _name(value) if isinstance(value, CITarget) else None,
    )
    def test_divisor_axiom(self, target, value):
        assert sum_invariant(target).value == value


class TestPlanePoints:
    def test_plane_curves_through_points_match_wdvv(self):
        recursion = wdvv_p2(5)
        for d, value in [(4, 620), (5, 87304)]:
            assert sum_invariant(CITarget(2, (), d, (2,) * (3 * d - 1))).value == value
            assert recursion[d] == kontsevich_manin(2, d, (2,) * (3 * d - 1)) == value

    def test_space_curves_through_lines(self):
        # conics and twisted cubics in P3 meeting 8 and 12 general lines
        assert sum_invariant(CITarget(3, (), 2, (2,) * 8)).value == 92
        assert sum_invariant(CITarget(3, (), 3, (2,) * 12)).value == 80160
        assert kontsevich_manin(3, 2, (2,) * 8) == 92
        assert kontsevich_manin(3, 3, (2,) * 12) == 80160

    @pytest.mark.parametrize(
        "target, value",
        [(CITarget(3, (), 4, (3,) * 8), 4), (CITarget(3, (), 4, (2,) * 16), 383306880)],
        ids=["points", "lines"],
    )
    def test_space_quartics_match_kontsevich_manin(self, target, value):
        # rational quartics in P3 through 8 points and meeting 16 lines, the
        # Kontsevich-Manin recursion's values (hep-th/9402147)
        result = sum_invariant(target)
        assert (result.value, result.graph_count) == (value, 756)
        assert kontsevich_manin(3, 4, target.insertions) == value


def _balanced_codims(r, d, most):
    # every multiset of at most ``most`` codimensions from 2 to r that cuts
    # degree-d curves in P^r to a number
    need = (r + 1) * d + r - 3
    for size in range(1, most + 1):
        for codims in combinations_with_replacement(range(2, r + 1), size):
            if sum(a - 1 for a in codims) == need:
                yield codims


# every such target with at most 12 insertions on P3 up to d=3 and on P4 and
# P5 up to d=2 (98 targets), then P2 up to d=6 and P3 at d=4 (15 more)
KONTSEVICH_MANIN_GRID = [
    CITarget(r, (), d, codims)
    for r, degrees, most in [
        (3, (1, 2, 3), 12),
        (4, (1, 2), 12),
        (5, (1, 2), 12),
        (2, (1, 2, 3, 4, 5, 6), 17),
        (3, (4,), 16),
    ]
    for d in degrees
    for codims in _balanced_codims(r, d, most)
]


@pytest.mark.parametrize("target", KONTSEVICH_MANIN_GRID, ids=_name)
def test_matches_kontsevich_manin(target):
    expected = kontsevich_manin(target.ambient_dim, target.curve_degree, target.insertions)
    assert sum_invariant(target).value == expected


# The 1- and 2-point invariants, with insertions of codimension at least 2,
# that the H-subring WDVV recursion takes as given, per complete
# intersection: (ambient dimension, hypersurface degrees, top curve degree
# of the grid, {(d, codims): value}).  "Classical" values are counts of
# curves through general cycles, times the degrees of the cycles; the rest
# are the engine's, pinned here.
COMPLETE_INTERSECTIONS = {
    "cubic-threefold": (4, (3,), 4, {
        # classical: H^3 is 3 points, and 6 lines pass through a general point
        (1, (3,)): 3 * 6,
        # classical: H^2 is 3 lines in homology, and 5 lines meet two general
        # lines (Clemens-Griffiths, Ann. Math. 95, 1972)
        (1, (2, 2)): 3**2 * 5,
        # classical: the line through two general points meets X in a third;
        # each of the 6 lines there spans a plane with it, whose residual
        # conic passes through both points
        (2, (3, 3)): 3**2 * 6,
    }),
    # classical: H^3 is 4 points and H^2 4 lines; 4 lines pass through a
    # general point, 2 lines meet two general lines (the Fano surface is a
    # principally polarized abelian surface, the lines meeting a line a theta
    # divisor), and 2 conics pass through two general points (the pencil has
    # one quadric containing their line, and each of its two families of
    # planes has one plane through that line)
    "(2,2)-threefold": (5, (2, 2), 3, {
        (1, (3,)): 4 * 4,
        (1, (2, 2)): 4**2 * 2,
        (2, (3, 3)): 4**2 * 2,
    }),
    # classical: H^3 is 2 points and H^2 2 lines, and one line through a
    # general point meets a general line
    "quadric-threefold": (4, (2,), 3, {(1, (2, 3)): 2 * 2 * 1}),
    # the engine's
    "quartic-threefold": (4, (4,), 3, {
        (1, (2,)): 320,
        (2, (3,)): 3888,
        (2, (2, 2)): 27200,
        (3, (2, 3)): 672768,
    }),
    # classical: H^4 is 3 points, and the lines through a general point
    # sweep a cone of degree 6 that meets a general H^2 in 6 points; the
    # engine's 45
    "cubic-fourfold": (5, (3,), 2, {(1, (2, 4)): 3 * 6, (1, (3, 3)): 45}),
    # classical as for the cubic, with a cone of degree 4; the engine's 32
    "(2,2)-fourfold": (6, (2, 2), 2, {(1, (2, 4)): 4 * 4, (1, (3, 3)): 32}),
    # classical: 27 lines, and one conic of each of the 27 pencils |H - L|
    # through a general point of H^2 = 3 points; the engine's 756
    "cubic-surface": (3, (3,), 4, {(1, ()): 27, (2, (2,)): 3 * 27, (3, (2, 2)): 756}),
    # classical: H^2 is 2 points, and 2 lines pass through each
    "quadric-surface": (3, (2,), 4, {(1, (2,)): 2 * 2}),
}


def _space(name):
    # the recursion's (dimension, index, degree, base) of a named target
    n, degrees, _top, base = COMPLETE_INTERSECTIONS[name]
    return n - len(degrees), n + 1 - sum(degrees), prod(degrees), tuple(sorted(base.items()))


BASE_CASES = [
    (name, CITarget(n, degrees, d, codims), value)
    for name, (n, degrees, _top, base) in COMPLETE_INTERSECTIONS.items()
    for (d, codims), value in base.items()
]


@pytest.mark.parametrize(
    "name, target, value", BASE_CASES, ids=[f"{name}-{_name(t)}" for name, t, _v in BASE_CASES]
)
def test_h_subring_base_data(name, target, value):
    assert sum_invariant(target).value == value


def _h_subring_grid():
    # every target of at least three insertions, each of codimension at
    # least 2, up to the family's top degree
    for name, (n, degrees, top, _base) in COMPLETE_INTERSECTIONS.items():
        dim, index = n - len(degrees), n + 1 - sum(degrees)
        for d in range(1, top + 1):
            need = dim - 3 + index * d
            for size in range(3, need + 1):
                for codims in combinations_with_replacement(range(2, dim + 1), size):
                    if sum(a - 1 for a in codims) == need:
                        yield name, CITarget(n, degrees, d, codims)


H_SUBRING_GRID = list(_h_subring_grid())


@pytest.mark.parametrize(
    "name, target", H_SUBRING_GRID, ids=[f"{name}-{_name(t)}" for name, t in H_SUBRING_GRID]
)
def test_matches_h_subring_wdvv(name, target):
    expected = h_subring_wdvv(*_space(name), target.curve_degree, target.insertions)
    assert sum_invariant(target).value == expected
