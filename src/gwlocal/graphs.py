"""Decorated trees indexing the torus-fixed loci of genus-zero stable maps.

A fixed locus of the standard torus action on degree-``d`` stable maps to
projective ``n``-space is encoded by a tree whose vertices carry fixed-point
labels in ``0..n`` (adjacent labels distinct, since an edge covers the
coordinate line joining two distinct fixed points) and whose edges carry
covering degrees summing to ``d``.  A map's marked points also sit on
vertices, but no class here carries them: the engine places marks
analytically, and only the tests' reference enumerator lists marked classes.

:func:`decorated_shapes` yields the degree-decorated shapes (unlabeled
trees with edge degrees), each generated once as a canonical rooted tuple of
branches, with its automorphism order and its number of unmarked classes;
both are counted from the multiplicities of equal branches, without listing
an automorphism or a labelling.  The engine sums targets without insertions
shape by shape over this rooted form.  :func:`enumerate_graphs` builds the
unmarked classes from the same rooted tuples and the same multiplicities,
one representative per isomorphism class together with the order of its
decoration-preserving automorphism group, in a deterministic order; the
engine sums targets with insertions class by class, placing marks
analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, combinations_with_replacement, groupby
from math import comb, factorial

from .targets import InputError, _is_integer

__all__ = ["FixedGraph", "enumerate_graphs", "decorated_shapes"]


@dataclass(frozen=True)
class FixedGraph:
    """One isomorphism class of decorated trees, without marks.

    ``labels[v]`` is the fixed-point label of vertex ``v``; ``edges`` holds
    ``(a, b, degree)`` triples with ``a < b``; ``aut_order`` is the order of
    the automorphism group fixing labels and edge degrees.
    """

    labels: tuple
    edges: tuple
    aut_order: int


# ---------------------------------------------------------------------------
# Degree-decorated shapes, as rooted tuples (see decorated_shapes).  A
# bicentral shape's last branch is its smaller half, so the shape is symmetric
# about its central edge exactly when its other branches equal that half.


@cache
def _rooted_shapes(total):
    # every rooted shape whose edge degrees sum to `total`, as a multiset of
    # branches drawn in order of their degree sums
    branches = [
        (size, (degree, below))
        for size in range(1, total + 1)
        for degree in range(1, size + 1)
        for below in _rooted_shapes(size - degree)
    ]
    shapes = []

    def extend(shape, start, left):
        if not left:
            shapes.append(tuple(sorted(shape)))
        for index in range(start, len(branches)):
            size, branch = branches[index]
            if size > left:
                break
            extend(shape + (branch,), index, left - size)

    extend((), 0, total)
    return tuple(shapes)


@cache
def _height(shape):
    return max((1 + _height(below) for _degree, below in shape), default=0)


@cache
def _shapes(d):
    # every shape of degree d once: a center's two highest branches are
    # equally high, and two centers join halves of equal height
    shapes = []
    for shape in _rooted_shapes(d):
        heights = sorted(_height(below) for _degree, below in shape)
        if len(heights) > 1 and heights[-1] == heights[-2]:
            shapes.append(shape)
    for large in range(d):
        for small in range(min(large, d - 1 - large) + 1):
            for larger in _rooted_shapes(large):
                for smaller in _rooted_shapes(small):
                    if _height(larger) == _height(smaller) and (small < large or smaller <= larger):
                        shapes.append(larger + ((d - large - small, smaller),))
    return tuple(shapes)


def _checked_shapes(n, d):
    # _shapes(d), for the public generators once their n and d are checked
    if not (_is_integer(n) and _is_integer(d)) or n < 1 or d < 1:
        raise InputError(f"need integers n >= 1, d >= 1, got {n!r}, {d!r}")
    return _shapes(d)


def decorated_shapes(n: int, d: int):
    """Yield ``(shape, aut_order, classes)`` for every degree-decorated shape
    of degree ``d``: an unlabeled tree with edge degrees summing to ``d``, up
    to isomorphism.  ``shape`` is the tree rooted at its center, as the sorted
    tuple of its ``(edge degree, subtree)`` branches, each subtree again such
    a tuple and a leaf ``()``.  A tree with two centers is rooted in the larger
    half (by degree sum, then in tuple order), with the smaller as its last
    branch.

    ``aut_order`` is the order of the shape's automorphism group and
    ``classes`` the number of isomorphism classes of its labellings by the
    ``n + 1`` fixed points of projective ``n``-space (adjacent labels
    distinct).  Both come from multiplicities of equal branches, listing no
    automorphism or labelling: ``m`` equal branches with subtree ``S`` give
    ``m! * aut(S) ** m``, and ``comb(n * N(S) + m - 1, m)`` multisets of
    labellings, ``N(S)`` the classes of ``S`` with its root label given; the
    center takes any of ``n + 1`` labels.  Equal halves about a central edge
    double the automorphisms and halve the classes, as the swap moves a
    center's label.  Summed over the shapes, ``classes`` is the number of
    classes ``enumerate_graphs(n, d)`` yields.

    EXAMPLES::

        >>> sum(classes for _shape, _aut, classes in decorated_shapes(4, 2))
        60
        >>> [(shape, aut) for shape, aut, _classes in decorated_shapes(4, 2)]
        [(((1, ()), (1, ())), 2), (((2, ()),), 2)]
    """
    @cache
    def symmetries(shape):
        # (automorphisms fixing the root, classes with the root label given)
        aut = classes = 1
        for branch, run in groupby(shape):
            m = len(tuple(run))
            below_aut, below_classes = symmetries(branch[1])
            aut *= factorial(m) * below_aut**m
            classes *= comb(n * below_classes + m - 1, m)
        return aut, classes

    for shape in _checked_shapes(n, d):
        aut, classes = symmetries(shape)
        classes *= n + 1
        *others, (_degree, last) = shape
        if tuple(others) == last:
            aut *= 2
            classes //= 2
        yield shape, aut, classes


# ---------------------------------------------------------------------------
# Enumeration.


def _preorder_edges(shape):
    # the shape's (a, b, degree) edges in a preorder numbering from the root,
    # vertex 0: edge i joins vertex i + 1 to its parent a
    edges = []

    def walk(shape, parent):
        for degree, below in shape:
            edges.append((parent, len(edges) + 1, degree))
            walk(below, len(edges))

    walk(shape, 0)
    return tuple(edges)


def enumerate_graphs(n: int, d: int, k: int = 0):
    """Yield one representative per isomorphism class of decorated trees for
    degree-``d`` fixed loci in projective ``n``-space, without marks.

    Each shape of :func:`decorated_shapes` is labelled from its rooted
    tuple, and no automorphism is listed.  Below a vertex labelled ``r``,
    ``m`` equal branches with subtree ``S`` take every multiset of ``m``
    labelled classes of ``S`` rooted at labels other than ``r``; a run of
    ``j`` equal chosen branches, each fixed by ``a`` automorphisms, gives
    ``j! * a ** j`` to the class's ``aut_order``.  A shape whose halves about
    its central edge are equal takes unordered pairs of labelled halves;
    adjacent labels differ, so the swap fixes no class.  Vertices are
    numbered in preorder from the root, so all classes of a shape share its
    ``edges``.  Classes appear in a deterministic order: shapes as
    :func:`decorated_shapes` yields them, then root label, then generation
    order.  There is one class per class :func:`decorated_shapes` counts.

    ``k`` must be 0: the engine sums marks per vertex instead of enumerating
    marked classes (see ``_Evaluator.classes_total``).

    EXAMPLES::

        >>> sum(1 for _ in enumerate_graphs(4, 1))
        10
        >>> sum(1 for _ in enumerate_graphs(4, 2))
        60
    """
    if k != 0:
        raise InputError("marked classes are not enumerated: need k = 0")

    @cache
    def classes(shape, root):
        # the labelled classes of a rooted shape whose root is labelled
        # `root`, as (preorder labels, automorphisms fixing the root) pairs
        built = [((root,), 1)]
        for branch, run in groupby(shape):
            below = [
                cls for label in range(n + 1) if label != root for cls in classes(branch[1], label)
            ]
            picks = []
            for chosen in combinations_with_replacement(below, len(tuple(run))):
                labels, aut = (), 1
                for (branch_labels, branch_aut), equal in groupby(chosen):
                    j = len(tuple(equal))
                    labels += branch_labels * j
                    aut *= factorial(j) * branch_aut**j
                picks.append((labels, aut))
            built = [
                (head + tail, aut * tail_aut) for head, aut in built for tail, tail_aut in picks
            ]
        return built

    for shape in _checked_shapes(n, d):
        edges = _preorder_edges(shape)
        *others, (_degree, last) = shape
        if tuple(others) == last:
            halves = [half for root in range(n + 1) for half in classes(last, root)]
            labelled = [
                (first + second, first_aut * second_aut)
                for (first, first_aut), (second, second_aut) in combinations(halves, 2)
                if first[0] != second[0]
            ]
        else:
            labelled = [cls for root in range(n + 1) for cls in classes(shape, root)]
        for labels, aut in labelled:
            yield FixedGraph(labels, edges, aut)
