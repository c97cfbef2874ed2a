"""Decorated-tree enumeration, shapes, canonical forms, automorphism orders."""

import dataclasses
from collections import Counter
from fractions import Fraction

import pytest

from gwlocal import FixedGraph, enumerate_graphs
from gwlocal.graphs import _preorder_edges, decorated_shapes
from gwlocal.targets import InputError

from oracles import count_labeled_decorated_trees, orbit_sum
from reference_graphs import MarkedGraph, adjacency, canonical_form, check, classes


def test_lines_in_p4():
    graphs = list(enumerate_graphs(4, 1))
    assert len(graphs) == 10
    assert all(g.aut_order == 1 for g in graphs)
    assert all(len(g.labels) == 2 for g in graphs)
    # one class per unordered label pair
    assert len({frozenset(g.labels) for g in graphs}) == 10


def test_class_record_is_its_labels():
    # a class holds one int label per vertex, in preorder, and nothing else
    # per vertex; check covers the label range, distinct adjacent labels and
    # the tree and automorphism structure
    assert [f.name for f in dataclasses.fields(FixedGraph)] == ["labels", "edges", "aut_order"]
    for n in range(1, 4):
        for d in range(1, 5):
            for g in enumerate_graphs(n, d):
                assert type(g.labels) is tuple
                assert all(type(label) is int for label in g.labels)
                assert len(g.labels) == len(g.edges) + 1
                check(g, n, d, 0)


def test_conics_in_p4():
    graphs = list(enumerate_graphs(4, 2))
    assert len(graphs) == 60
    singles = [g for g in graphs if len(g.labels) == 2]
    paths = [g for g in graphs if len(g.labels) == 3]
    assert len(singles) == 10
    assert len(paths) == 50
    assert all(g.edges[0][2] == 2 for g in singles)
    # a two-edge path is symmetric exactly when its end labels agree
    symmetric = [g for g in paths if g.aut_order == 2]
    assert len(symmetric) == 20
    for g in paths:
        ends = [label for v, label in enumerate(g.labels) if len(adjacency(g)[v]) == 1]
        assert (g.aut_order == 2) == (ends[0] == ends[1])


def test_single_line_target():
    graphs = list(enumerate_graphs(1, 1))
    assert len(graphs) == 1
    assert sorted(graphs[0].labels) == [0, 1]


def test_enumeration_is_deterministic():
    for n, d, k in [(3, 3, 0), (3, 3, 1)]:
        assert list(classes(n, d, k)) == list(classes(n, d, k))


def test_marked_enumeration_is_refused():
    # marks are placed analytically by the engine, never enumerated
    for k in (1, 2, -1):
        with pytest.raises(ValueError):
            next(enumerate_graphs(2, 3, k))


@pytest.mark.parametrize("generator", [enumerate_graphs, decorated_shapes])
@pytest.mark.parametrize("n, d", [(True, 1), (2.5, 1), (2, True), (2, 2.5), (0, 1), (2, 0)])
def test_dimension_and_degree_are_positive_integers(generator, n, d):
    # True == 1 gave the classes of P^1 or of lines, and 2.5 a TypeError
    with pytest.raises(InputError, match=r"need integers n >= 1, d >= 1"):
        next(generator(n, d))


@pytest.mark.parametrize("n, d", [(2, 6), (2, 7), (3, 5)])
def test_classes_match_shape_counts_beyond_the_reference(n, d):
    # the class sum's classes and the shape sum's Burnside counts, per shape:
    # all classes of a shape share its preorder edges, and by
    # orbit-stabiliser their 1 / aut_order add up to the shape's
    # (n + 1) * n ** edges proper labellings over its automorphism order
    counts, weights = Counter(), Counter()
    for g in enumerate_graphs(n, d):
        counts[g.edges] += 1
        weights[g.edges] += Fraction(1, g.aut_order)
    shapes = list(decorated_shapes(n, d))
    assert len(counts) == len(shapes)
    for shape, aut, count in shapes:
        edges = _preorder_edges(shape)
        assert counts[edges] == count
        assert weights[edges] == Fraction((n + 1) * n ** len(edges), aut)


def test_counts_monotone_in_ambient_dim_and_degree():
    counts = {
        (n, d): sum(1 for _ in enumerate_graphs(n, d))
        for n in range(1, 5)
        for d in range(1, 4)
    }
    for (n, d), c in counts.items():
        if (n + 1, d) in counts:
            assert counts[(n + 1, d)] >= c
        if (n, d + 1) in counts:
            assert counts[(n, d + 1)] >= c


def test_every_yielded_graph_passes_its_own_check():
    for n in range(1, 4):
        for d in range(1, 4):
            for k in range(3):
                for g in classes(n, d, k):
                    check(g, n, d, k)


def test_orbit_stabilizer_spot_checks():
    # full grid lives in the acceptance suite; two cells here for fast feedback
    for n, d, k in [(2, 2, 1), (1, 1, 2)]:
        total = orbit_sum(classes(n, d, k))
        assert total.denominator == 1
        assert total == count_labeled_decorated_trees(n, d, k)


def test_mark_placement_classes():
    # single edge with distinct endpoint labels has no symmetry: each mark
    # placement is its own class
    assert sum(1 for _ in classes(1, 1, 1)) == 2
    assert sum(1 for _ in classes(1, 1, 2)) == 4


def test_canonical_form_ignores_vertex_ordering():
    a = FixedGraph((0, 1, 2), ((0, 1, 1), (1, 2, 1)), 1)
    b = FixedGraph((2, 1, 0), ((0, 1, 1), (1, 2, 1)), 1)
    assert canonical_form(a) == canonical_form(b)


def test_canonical_form_sees_reflection():
    a = FixedGraph((0, 1, 0), ((0, 1, 1), (1, 2, 1)), 2)
    b = FixedGraph((1, 0, 0), ((0, 1, 1), (0, 2, 1)), 2)
    assert canonical_form(a) == canonical_form(b)


def test_canonical_form_separates_label_sets():
    a = FixedGraph((0, 1), ((0, 1, 1),), 1)
    b = FixedGraph((0, 2), ((0, 1, 1),), 1)
    assert canonical_form(a) != canonical_form(b)


def test_canonical_form_separates_mark_placement():
    a = MarkedGraph((0, 1), ((0, 1, 1),), 1, ((1,), ()))
    b = MarkedGraph((0, 1), ((0, 1, 1),), 1, ((), (1,)))
    assert canonical_form(a) != canonical_form(b)


def test_check_rejects_broken_graphs():
    with pytest.raises(ValueError):
        check(FixedGraph((0, 0), ((0, 1, 1),), 1), 4, 1, 0)
    with pytest.raises(ValueError):
        check(FixedGraph((0, 1), ((0, 1, 2),), 1), 4, 1, 0)
    with pytest.raises(ValueError):
        check(FixedGraph((0, 1, 2), ((0, 1, 1),), 1), 4, 2, 0)
    with pytest.raises(ValueError):
        # stored automorphism order is wrong: the path 0-1-0 has a flip
        check(FixedGraph((0, 1, 0), ((0, 1, 1), (1, 2, 1)), 1), 4, 2, 0)
    with pytest.raises(ValueError):
        # marks must be exactly 1..k
        check(MarkedGraph((0, 1), ((0, 1, 1),), 1, ((2,), ())), 4, 1, 1)


def _vertex_count(shape):
    return 1 + sum(_vertex_count(below) for _degree, below in shape)


def _automorphisms(edges):
    # every vertex permutation of the shape preserving edges and their
    # degrees, as image tuples, by backtracking in preorder: a vertex must go
    # to a neighbour of its parent's image along an edge of the same degree
    nv = len(edges) + 1
    neighbours = [{} for _ in range(nv)]
    parent = [0] * nv
    for a, b, g in edges:
        neighbours[a][b] = g
        neighbours[b][a] = g
        parent[b] = a
    image = [0] * nv
    used = [False] * nv

    def extend(v):
        if v == nv:
            yield tuple(image)
            return
        if v == 0:
            candidates = range(nv)
        else:
            up = neighbours[v][parent[v]]
            candidates = [u for u, g in neighbours[image[parent[v]]].items() if g == up]
        for u in candidates:
            if not used[u] and len(neighbours[u]) == len(neighbours[v]):
                image[v] = u
                used[u] = True
                yield from extend(v + 1)
                used[u] = False

    yield from extend(0)


def _cycle_count(image):
    # number of cycles of the permutation v -> image[v]
    seen = [False] * len(image)
    cycles = 0
    for start in range(len(image)):
        if not seen[start]:
            cycles += 1
            v = start
            while not seen[v]:
                seen[v] = True
                v = image[v]
    return cycles


def test_free_tree_counts():
    # unlabeled tree counts by vertex number, classical sequence: the shapes
    # of degree order - 1 on order vertices have every edge degree 1, so they
    # are the free trees
    expected = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}
    for order, count in expected.items():
        shapes = decorated_shapes(1, order - 1)
        assert sum(_vertex_count(shape) == order for shape, _aut, _classes in shapes) == count
    with pytest.raises(ValueError):
        next(decorated_shapes(1, 0))


@pytest.mark.parametrize("d, count", enumerate((1, 2, 4, 9, 21, 55, 146), start=1))
def test_shape_symmetries_match_listed_automorphisms(d, count):
    # aut_order and classes come from multiplicities of equal branches; here
    # the shapes are distinct, and each one's automorphism group is listed,
    # with its classes counted by Burnside's lemma over that list: an
    # automorphism reversing an edge fixes no proper labelling, and one
    # reversing none fixes (n + 1) * n ** (cycles - 1)
    by_n = {n: list(decorated_shapes(n, d)) for n in (1, 2, 4, 7)}
    shapes = [shape for shape, _aut, _classes in by_n[1]]
    assert len(shapes) == count
    forms = set()
    for i, shape in enumerate(shapes):
        edges = _preorder_edges(shape)
        forms.add(canonical_form(FixedGraph((0,) * (len(edges) + 1), edges, 1)))
        automorphisms = list(_automorphisms(edges))
        for n, yielded in by_n.items():
            assert yielded[i][:2] == (shape, len(automorphisms))
            fixed = sum(
                (n + 1) * n ** (_cycle_count(image) - 1)
                for image in automorphisms
                if all(image[a] != b or image[b] != a for a, b, _degree in edges)
            )
            assert yielded[i][2] * len(automorphisms) == fixed
    assert len(forms) == count


def test_degree_nine_shapes_counted_without_listing_automorphisms():
    # the 9-edge star alone has 9! automorphisms, so listing them would take
    # seconds; the branch multiplicities give these at once
    shapes = list(decorated_shapes(4, 9))
    assert len(shapes) == 1212
    assert sum(classes for _shape, _aut, classes in shapes) == 109_753_700
    assert max(aut for _shape, aut, _classes in shapes) == 362_880


def test_star_with_four_equal_leaves_has_full_symmetric_group():
    # in P1 a star's four leaves all carry the label its center lacks
    stars = [g for g in enumerate_graphs(1, 4) if max(map(len, adjacency(g))) == 4]
    assert sorted(sorted(g.labels) for g in stars) == [[0, 0, 0, 0, 1], [0, 1, 1, 1, 1]]
    for g in stars:
        assert g.aut_order == 24
        check(g, 1, 4, 0)


def test_degree_eight_star_built_without_listing_automorphisms():
    # 8! automorphisms, from the run of eight equal leaves alone
    stars = [g for g in enumerate_graphs(1, 8) if max(map(len, adjacency(g))) == 8]
    assert len(stars) == 2
    assert all(g.aut_order == 40320 for g in stars)


def test_alternating_paths_swapped_by_the_central_flip():
    # 0-1-0-1 and 1-0-1-0 with degrees (1, 1, 1) are one class: the flip
    # about the central edge carries one to the other and fixes neither
    paths = [
        g for g in enumerate_graphs(1, 3)
        if len(g.labels) == 4 and max(map(len, adjacency(g))) == 2
    ]
    assert len(paths) == 1
    assert paths[0].aut_order == 1
    check(paths[0], 1, 3, 0)


def test_marks_on_both_leaves_break_the_conic_flip():
    # the path 1-0-1 of two degree-1 edges has a flip; marks 1 and 2 on the
    # two leaves leave only the identity
    conics = [
        g for g in classes(1, 2, 2)
        if sorted(zip(g.labels, g.marks)) == [(0, ()), (1, (1,)), (1, (2,))]
    ]
    assert len(conics) == 1
    assert conics[0].aut_order == 1
    check(conics[0], 1, 2, 2)
