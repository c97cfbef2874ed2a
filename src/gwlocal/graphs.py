"""Decorated trees indexing the torus-fixed loci of genus-zero stable maps.

A fixed locus of the standard torus action on degree-``d`` stable maps to
projective ``n``-space is encoded by a tree whose vertices carry fixed-point
labels in ``0..n`` (adjacent labels distinct, since an edge covers the
coordinate line joining two distinct fixed points), whose edges carry covering
degrees summing to ``d``, and whose marked points ``1..k`` sit on vertices.

:func:`decorated_shapes` yields the degree-decorated shapes (unlabeled
trees with edge degrees), each generated once as a canonical rooted tuple of
branches, with its automorphism order and its number of unmarked classes;
both are counted from the multiplicities of equal branches, without listing
an automorphism or a labelling.  The engine sums targets without insertions
shape by shape over this rooted form.  :func:`enumerate_graphs` yields
exactly one representative per isomorphism class together with the order of
its decoration-preserving automorphism group.  It works per shape: it lists
the shape's automorphisms and keeps the labellings that are lexicographically
least under them, so no labelled tree is canonicalised, and its order is
deterministic.  :func:`canonical_form` encodes a single tree canonically, for
comparing enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import groupby, product
from math import comb, factorial
from operator import add, itemgetter

__all__ = [
    "FixedGraph",
    "enumerate_graphs",
    "decorated_shapes",
    "canonical_form",
    "iter_dump_lines",
]


@dataclass(frozen=True)
class FixedGraph:
    """One isomorphism class of decorated trees.

    ``vertices[v]`` is ``(label, marks)`` with ``marks`` a sorted tuple of the
    mark indices attached at ``v``; ``edges`` holds ``(a, b, degree)`` triples
    with ``a < b``; ``aut_order`` is the order of the automorphism group
    fixing labels, edge degrees, and mark attachments.
    """

    vertices: tuple
    edges: tuple
    aut_order: int

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_marks(self) -> int:
        return sum(len(marks) for _label, marks in self.vertices)

    @property
    def degree_total(self) -> int:
        return sum(degree for _a, _b, degree in self.edges)

    def labels(self) -> tuple:
        return tuple(label for label, _marks in self.vertices)

    def adjacency(self):
        """Per-vertex list of ``(neighbor, edge_degree)`` pairs."""
        adj = [[] for _ in self.vertices]
        for a, b, degree in self.edges:
            adj[a].append((b, degree))
            adj[b].append((a, degree))
        return adj

    def check(self, ambient_dim: int, curve_degree: int, num_marks: int) -> None:
        """Raise ValueError unless every structural invariant holds."""
        nv = len(self.vertices)
        if nv < 2:
            raise ValueError("a fixed graph needs at least two vertices")
        if len(self.edges) != nv - 1:
            raise ValueError("edge count must be one less than vertex count")
        parent = list(range(nv))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b, degree in self.edges:
            if not (0 <= a < b < nv):
                raise ValueError("edge endpoints must satisfy 0 <= a < b < num_vertices")
            if degree < 1:
                raise ValueError("edge degrees must be positive")
            if self.vertices[a][0] == self.vertices[b][0]:
                raise ValueError("adjacent vertices must carry distinct labels")
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ValueError("edges form a cycle")
            parent[ra] = rb
        for label, marks in self.vertices:
            if not 0 <= label <= ambient_dim:
                raise ValueError("vertex label out of range")
            if tuple(sorted(marks)) != tuple(marks):
                raise ValueError("mark tuples must be sorted")
        if self.degree_total != curve_degree:
            raise ValueError("edge degrees must sum to the curve degree")
        all_marks = sorted(m for _label, marks in self.vertices for m in marks)
        if all_marks != list(range(1, num_marks + 1)):
            raise ValueError("marks must partition 1..k")
        key, aut = _canonical_key_aut(self.labels(), self.edges, [marks for _l, marks in self.vertices])
        if aut != self.aut_order:
            raise ValueError("stored automorphism order disagrees with recomputation")


# ---------------------------------------------------------------------------
# Canonical form and automorphism order.
#
# Root at the center of the underlying tree (an isomorphism invariant), encode
# subtrees recursively with decorations inline, and sort child encodings.  The
# automorphism order is the product over vertices of the factorials of the
# multiplicities of identical child encodings, times 2 for a bicentral tree
# whose halves match.


def _tree_centers(adj_indices):
    count = len(adj_indices)
    if count <= 2:
        return list(range(count))
    degree = [len(neigh) for neigh in adj_indices]
    removed = [False] * count
    layer = [v for v in range(count) if degree[v] == 1]
    remaining = count
    while remaining > 2:
        for v in layer:
            removed[v] = True
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for u in adj_indices[v]:
                if not removed[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(v for v in range(count) if not removed[v])


def _rooted_encoding(v, parent, adj_deg, labels, marks):
    subs = []
    aut = 1
    for u, edge_degree in adj_deg[v]:
        if u == parent:
            continue
        enc_u, aut_u = _rooted_encoding(u, v, adj_deg, labels, marks)
        subs.append((edge_degree, enc_u))
        aut *= aut_u
    subs.sort()
    run = 1
    for i in range(1, len(subs)):
        if subs[i] == subs[i - 1]:
            run += 1
        else:
            aut *= factorial(run)
            run = 1
    aut *= factorial(run) if subs else 1
    mark_text = ",".join(str(m) for m in marks[v])
    enc = f"({labels[v]}:{mark_text}" + "".join(f"[{g}]{e}" for g, e in subs) + ")"
    return enc, aut


def _canonical_key_aut(labels, edges, marks):
    """Canonical encoding (bytes) and automorphism order of a decorated tree."""
    nv = len(labels)
    adj_indices = [[] for _ in range(nv)]
    adj_deg = [[] for _ in range(nv)]
    for a, b, degree in edges:
        adj_indices[a].append(b)
        adj_indices[b].append(a)
        adj_deg[a].append((b, degree))
        adj_deg[b].append((a, degree))
    centers = _tree_centers(adj_indices)
    if len(centers) == 1:
        enc, aut = _rooted_encoding(centers[0], None, adj_deg, labels, marks)
        return ("*" + enc).encode("ascii"), aut
    c1, c2 = centers
    central_degree = next(g for u, g in adj_deg[c1] if u == c2)
    enc1, aut1 = _rooted_encoding(c1, c2, adj_deg, labels, marks)
    enc2, aut2 = _rooted_encoding(c2, c1, adj_deg, labels, marks)
    if enc2 < enc1:
        enc1, enc2 = enc2, enc1
    aut = aut1 * aut2 * (2 if enc1 == enc2 else 1)
    return (f"<{central_degree}>" + enc1 + enc2).encode("ascii"), aut


def canonical_form(graph: FixedGraph) -> bytes:
    """Canonical encoding of a decorated tree: two graphs are isomorphic iff
    their encodings are equal.  Stable across runs and platforms."""
    key, _aut = _canonical_key_aut(
        graph.labels(), graph.edges, [marks for _label, marks in graph.vertices]
    )
    return key


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
    classes ``enumerate_graphs(n, d, 0)`` yields.

    EXAMPLES::

        >>> sum(classes for _shape, _aut, classes in decorated_shapes(4, 2))
        60
        >>> [(shape, aut) for shape, aut, _classes in decorated_shapes(4, 2)]
        [(((1, ()), (1, ())), 2), (((2, ()),), 2)]
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1, d >= 1")

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

    for shape in _shapes(d):
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


def _labelings(edges, num_labels):
    # every vertex-label tuple with adjacent labels distinct (each vertex
    # after the root differs from its parent), in lexicographic order
    labelings = [(label,) for label in range(num_labels)]
    for parent, _child, _degree in edges:
        labelings = [
            labels + (label,)
            for labels in labelings
            for label in range(num_labels)
            if label != labels[parent]
        ]
    return labelings


def _placements(nv, k, stride):
    # every placement of marks 1..k on nv vertices, as the per-vertex mark
    # tuples and the per-vertex offsets stride * (bit mask of the marks)
    placements = []
    for assignment in product(range(nv), repeat=k):
        marks = [[] for _ in range(nv)]
        offsets = [0] * nv
        for bit, v in enumerate(assignment):
            marks[v].append(bit + 1)
            offsets[v] += stride << bit
        placements.append((tuple(map(tuple, marks)), tuple(offsets)))
    return placements


def enumerate_graphs(n: int, d: int, k: int = 0):
    """Yield one representative per isomorphism class of decorated trees for
    degree-``d`` fixed loci in projective ``n``-space with ``k`` marks.

    Each degree-decorated shape (an unlabeled tree with edge degrees, up to
    isomorphism) is taken once, numbered in preorder from its root, and its
    automorphism group is listed.  A labelling and mark placement of the
    shape is kept exactly when it is lexicographically least in its orbit
    under that group, and its stabiliser order is the class's ``aut_order``;
    no labelled tree is ever canonicalised.  Classes appear in a
    deterministic order: shapes as :func:`decorated_shapes` yields them, then
    labellings and mark placements in generation order.  The cost grows like
    ``num_vertices ** k`` in the mark count, so enumerate with ``k = 0`` and
    handle marks analytically when many marks are needed.

    EXAMPLES::

        >>> sum(1 for _ in enumerate_graphs(4, 1, 0))
        10
        >>> sum(1 for _ in enumerate_graphs(4, 2, 0))
        60
    """
    if n < 1 or d < 1 or k < 0:
        raise ValueError("need n >= 1, d >= 1, k >= 0")
    for shape in _shapes(d):
        edges = _preorder_edges(shape)
        nv = len(edges) + 1
        identity = tuple(range(nv))
        images = [itemgetter(*perm) for perm in _automorphisms(edges) if perm != identity]
        placements = _placements(nv, k, n + 1)
        for labels in _labelings(edges, n + 1):
            for marks, offsets in placements:
                # one integer per vertex, equal exactly when the label and
                # the marks agree; tuple order ranks decorations
                decoration = tuple(map(add, labels, offsets))
                aut = 1
                for image in images:
                    moved = image(decoration)
                    if moved < decoration:
                        break
                    if moved == decoration:
                        aut += 1
                else:
                    yield FixedGraph(
                        vertices=tuple(zip(labels, marks)), edges=edges, aut_order=aut
                    )


def iter_dump_lines(graphs):
    """Stable one-line-per-graph text encoding, for diffing enumerations."""
    for graph in graphs:
        yield f"{canonical_form(graph).decode('ascii')}\taut={graph.aut_order}"
