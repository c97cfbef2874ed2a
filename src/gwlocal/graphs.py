"""Decorated trees indexing the torus-fixed loci of genus-zero stable maps.

A fixed locus of the standard torus action on degree-``d`` stable maps to
projective ``n``-space is encoded by a tree whose vertices carry fixed-point
labels in ``0..n`` (adjacent labels distinct, since an edge covers the
coordinate line joining two distinct fixed points), whose edges carry covering
degrees summing to ``d``, and whose marked points ``1..k`` sit on vertices.

:func:`enumerate_graphs` yields exactly one representative per isomorphism
class together with the order of its decoration-preserving automorphism
group.  It works per degree-decorated shape: it keeps the labellings that are
lexicographically least under the shape's automorphisms, so no labelled tree
is canonicalised, and its order is deterministic.  :func:`decorated_shapes`
yields the shapes themselves, each with its automorphism order and its
number of unmarked classes, counted without listing them; the engine sums
targets without insertions shape by shape.  :func:`canonical_form` encodes a
single tree canonically, for comparing enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial
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
# Free (unlabeled) trees, by successor iteration on canonical level sequences.


def _next_rooted_layout(predecessor, p=None):
    if p is None:
        p = len(predecessor) - 1
        while predecessor[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while predecessor[q] != predecessor[p] - 1:
        q -= 1
    result = list(predecessor)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _split_layout(layout):
    one_found = False
    m = None
    for i in range(len(layout)):
        if layout[i] == 1:
            if one_found:
                m = i
                break
            one_found = True
    if m is None:
        m = len(layout)
    left = [layout[i] - 1 for i in range(1, m)]
    rest = [0] + [layout[i] for i in range(m, len(layout))]
    return left, rest


def _next_free_layout(candidate):
    # valid iff the root's left subtree is no higher (and no bigger, and not
    # lexicographically later) than the remainder; otherwise jump ahead
    left, rest = _split_layout(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest):
            valid = False
        elif len(left) == len(rest) and left > rest:
            valid = False
    if valid:
        return candidate
    p = len(left)
    new_candidate = _next_rooted_layout(candidate, p)
    if candidate[p] > 2:
        new_left, _new_rest = _split_layout(new_candidate)
        suffix = range(1, max(new_left) + 2)
        new_candidate[-len(suffix):] = suffix
    return new_candidate


def _layout_to_edges(layout):
    edges = []
    stack = []
    for i, level in enumerate(layout):
        while stack and layout[stack[-1]] >= level:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return edges


def _free_trees(order):
    """Yield the edge list of every unlabeled tree on ``order`` vertices."""
    if order < 2:
        raise ValueError("need at least two vertices")
    if order == 2:
        yield [(0, 1)]
        return
    layout = list(range(order // 2 + 1)) + list(range(1, (order + 1) // 2))
    while layout is not None:
        layout = _next_free_layout(layout)
        if layout is not None:
            yield _layout_to_edges(layout)
            layout = _next_rooted_layout(layout)


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
# Enumeration.


def _compositions(total, parts):
    # ordered tuples of positive integers summing to total
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _decorated_shapes(d):
    # every unlabeled tree with positive edge degrees summing to d, once per
    # isomorphism class, as (a, b, degree) edges in a preorder numbering
    # rooted at vertex 0: edge i joins vertex i + 1 to its parent a
    seen = set()
    for nv in range(2, d + 2):
        for tree in _free_trees(nv):
            for degrees in _compositions(d, nv - 1):
                edges = tuple((a, b, g) for (a, b), g in zip(tree, degrees))
                key, _aut = _canonical_key_aut((0,) * nv, edges, [()] * nv)
                if key not in seen:
                    seen.add(key)
                    yield edges


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


def decorated_shapes(n: int, d: int):
    """Yield ``(edges, aut_order, classes)`` for every degree-decorated shape
    of degree ``d``: an unlabeled tree with edge degrees summing to ``d``, up
    to isomorphism, as ``(a, b, degree)`` edges in a preorder numbering rooted
    at vertex 0, where edge ``i`` joins vertex ``i + 1`` to its parent ``a``.

    ``aut_order`` is the order of the shape's automorphism group and
    ``classes`` the number of isomorphism classes of its labellings by the
    ``n + 1`` fixed points of projective ``n``-space (adjacent labels
    distinct), counted by Burnside's lemma without listing a labelling: an
    automorphism that reverses an edge fixes no proper labelling, and one
    that reverses none fixes a vertex, so it fixes ``(n + 1) * n ** (r - 1)``
    labellings, ``r`` its number of vertex orbits.  Summed over the shapes,
    ``classes`` is the number of classes ``enumerate_graphs(n, d, 0)``
    yields.

    EXAMPLES::

        >>> sum(classes for _edges, _aut, classes in decorated_shapes(4, 2))
        60
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1, d >= 1")
    for edges in _decorated_shapes(d):
        fixed = 0
        automorphisms = list(_automorphisms(edges))
        for image in automorphisms:
            if all(image[a] != b or image[b] != a for a, b, _degree in edges):
                fixed += (n + 1) * n ** (_cycle_count(image) - 1)
        yield edges, len(automorphisms), fixed // len(automorphisms)


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
    isomorphism) is built once, with its automorphism group.  A labelling
    and mark placement of the shape is kept exactly when it is
    lexicographically least in its orbit under that group, and its
    stabiliser order is the class's ``aut_order``; no labelled tree is ever
    canonicalised.  Classes appear in a deterministic order: shapes by vertex
    count, then labellings and mark placements in generation order.  The
    cost grows like ``num_vertices ** k`` in the mark count, so enumerate
    with ``k = 0`` and handle marks analytically when many marks are needed.

    EXAMPLES::

        >>> sum(1 for _ in enumerate_graphs(4, 1, 0))
        10
        >>> sum(1 for _ in enumerate_graphs(4, 2, 0))
        60
    """
    if n < 1 or d < 1 or k < 0:
        raise ValueError("need n >= 1, d >= 1, k >= 0")
    for edges in _decorated_shapes(d):
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
