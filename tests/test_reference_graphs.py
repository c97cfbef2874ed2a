"""The package's class enumerator against the original canonical-key
enumerator.

Without marks, both must yield the same isomorphism classes with the same
automorphism orders.  The package picks a different representative of each
class and a different order, so the comparison is between multisets of
``(canonical_form, aut_order)``; a class yielded twice would show as a
multiplicity above one.  The package's count of classes per shape,
which lists none, must match the reference's count too.  With marks, which
only the reference enumerates, the marked classes over each package class
must account for every placement of the marks on its vertices, as the
engine's analytic mark placement assumes.
"""

from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache

import pytest

from gwlocal import FixedGraph, enumerate_graphs
from gwlocal.graphs import decorated_shapes

import reference_graphs
from reference_graphs import canonical_form

# n <= 4, d <= 4, k <= 2; marked cells at d = 4 only for n <= 2, so the
# reference's slowest cells stay out of the fast suite
GRID = [
    (n, d, k)
    for n in range(1, 5)
    for d in range(1, 5)
    for k in range(3)
    if d < 4 or k == 0 or n <= 2
]


def _classes(graphs):
    return Counter((canonical_form(g), g.aut_order) for g in graphs)


@lru_cache(maxsize=None)
def _reference_classes(n, d, k):
    # the class-count test shares the reference's costliest cells
    return _classes(reference_graphs.enumerate_graphs(n, d, k))


def assert_same_classes(n, d, k):
    graphs = list(enumerate_graphs(n, d))
    if k == 0:
        ours = _classes(graphs)
        assert ours == _reference_classes(n, d, 0)
        assert set(ours.values()) == {1}
        return ours
    # orbit counting: over an unmarked class G on V vertices, the marked
    # classes' 1 / aut_order add up to V ** k / aut(G), one per placement
    # of the k marks on G's vertices up to G's automorphisms
    placements = defaultdict(Fraction)
    for g in reference_graphs.enumerate_graphs(n, d, k):
        unmarked = FixedGraph(g.labels, g.edges, 1)
        placements[canonical_form(unmarked)] += Fraction(1, g.aut_order)
    assert placements == {
        canonical_form(g): Fraction(len(g.labels) ** k, g.aut_order) for g in graphs
    }


@pytest.mark.parametrize("n, d, k", GRID)
def test_same_classes_as_reference(n, d, k):
    assert_same_classes(n, d, k)


def test_quintic_degree_five():
    assert sum(assert_same_classes(4, 5, 0).values()) == 18730


@pytest.mark.parametrize(
    "n, d", [(n, d) for n in range(1, 5) for d in range(1, 6)] + [(7, d) for d in range(1, 4)]
)
def test_burnside_class_count_matches_reference(n, d):
    # the engine's graph_count for a target without insertions lists no class
    counted = sum(classes for _edges, _aut, classes in decorated_shapes(n, d))
    assert counted == sum(_reference_classes(n, d, 0).values())
