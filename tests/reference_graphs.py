"""The package's original class enumerator, kept as a test-only reference.

This is the enumerator the package shipped before it learned to pick orbit
representatives per degree-decorated shape: it builds every labelled
decoration of every free tree, computes a canonical string key for each, keeps
the first tree seen per key in a dictionary and yields the classes sorted by
key.  It is slow and obviously correct, which is what a reference should be.
It also enumerates marked classes, which the package does not, as
:class:`MarkedGraph` records, so it is the tests' oracle for the engine's
analytic mark placement.  Tests compare its ``(canonical_form, aut_order)``
multiset with the package's enumeration, and check any class with
:func:`check`; nothing in the package imports it.
"""

from dataclasses import dataclass
from itertools import product
from math import factorial

from gwlocal import graphs


@dataclass(frozen=True)
class MarkedGraph:
    """One isomorphism class of decorated trees with marks.

    ``labels``, ``edges`` and ``aut_order`` are as in ``FixedGraph``, except
    that the automorphisms also fix the marks; ``marks[v]`` is the sorted
    tuple of the mark indices at vertex ``v``.
    """

    labels: tuple
    edges: tuple
    aut_order: int
    marks: tuple


def vertex_marks(graph) -> tuple:
    """Per-vertex mark tuples of ``graph``; a ``FixedGraph`` carries none."""
    if isinstance(graph, MarkedGraph):
        return graph.marks
    return ((),) * len(graph.labels)


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


def canonical_form(graph) -> bytes:
    """Canonical encoding of a decorated tree, a ``FixedGraph`` or a
    :class:`MarkedGraph`: two graphs are isomorphic iff their encodings are
    equal.  Stable across runs and platforms."""
    key, _aut = _canonical_key_aut(graph.labels, graph.edges, vertex_marks(graph))
    return key


def adjacency(graph):
    """Per-vertex list of ``(neighbor, edge_degree)`` pairs."""
    adj = [[] for _ in graph.labels]
    for a, b, degree in graph.edges:
        adj[a].append((b, degree))
        adj[b].append((a, degree))
    return adj


def check(graph, ambient_dim: int, curve_degree: int, num_marks: int) -> None:
    """Raise ValueError unless every structural invariant of ``graph``, a
    ``FixedGraph`` or a :class:`MarkedGraph`, holds."""
    labels, placed = graph.labels, vertex_marks(graph)
    nv = len(labels)
    if len(placed) != nv:
        raise ValueError("need one mark tuple per vertex")
    if nv < 2:
        raise ValueError("a fixed graph needs at least two vertices")
    if len(graph.edges) != nv - 1:
        raise ValueError("edge count must be one less than vertex count")
    parent = list(range(nv))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, degree in graph.edges:
        if not (0 <= a < b < nv):
            raise ValueError("edge endpoints must satisfy 0 <= a < b < vertex count")
        if degree < 1:
            raise ValueError("edge degrees must be positive")
        if labels[a] == labels[b]:
            raise ValueError("adjacent vertices must carry distinct labels")
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ValueError("edges form a cycle")
        parent[ra] = rb
    for label, at in zip(labels, placed):
        if not (isinstance(label, int) and 0 <= label <= ambient_dim):
            raise ValueError("vertex label out of range")
        if tuple(sorted(at)) != tuple(at):
            raise ValueError("mark tuples must be sorted")
    if sum(degree for _a, _b, degree in graph.edges) != curve_degree:
        raise ValueError("edge degrees must sum to the curve degree")
    all_marks = sorted(m for at in placed for m in at)
    if all_marks != list(range(1, num_marks + 1)):
        raise ValueError("marks must partition 1..k")
    _key, aut = _canonical_key_aut(labels, graph.edges, placed)
    if aut != graph.aut_order:
        raise ValueError("stored automorphism order disagrees with recomputation")


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


def _labelings(adj_indices, num_labels):
    # all vertex-label assignments with adjacent labels distinct, by
    # backtracking over vertices in index order
    nv = len(adj_indices)
    assigned = [0] * nv
    earlier = [[u for u in adj_indices[v] if u < v] for v in range(nv)]

    def rec(v):
        if v == nv:
            yield tuple(assigned)
            return
        for lab in range(num_labels):
            if all(assigned[u] != lab for u in earlier[v]):
                assigned[v] = lab
                yield from rec(v + 1)

    yield from rec(0)


def enumerate_graphs(n: int, d: int, k: int = 0):
    """Yield one representative per isomorphism class of decorated trees for
    degree-``d`` fixed loci in projective ``n``-space with ``k`` marks.

    Classes appear sorted by canonical encoding.  The cost grows like
    ``vertex_count ** k`` in the mark count, so enumerate with ``k = 0`` and
    handle marks analytically when many marks are needed.

    EXAMPLES::

        >>> sum(1 for _ in enumerate_graphs(4, 1, 0))
        10
        >>> sum(1 for _ in enumerate_graphs(4, 2, 0))
        60
    """
    if n < 1 or d < 1 or k < 0:
        raise ValueError("need n >= 1, d >= 1, k >= 0")
    reps = {}
    for nv in range(2, d + 2):
        for shape in _free_trees(nv):
            adj_indices = [[] for _ in range(nv)]
            for a, b in shape:
                adj_indices[a].append(b)
                adj_indices[b].append(a)
            for labels in _labelings(adj_indices, n + 1):
                for degrees in _compositions(d, nv - 1):
                    edges = tuple((a, b, g) for (a, b), g in zip(shape, degrees))
                    for assignment in product(range(nv), repeat=k):
                        marks = [[] for _ in range(nv)]
                        for mark_index, v in enumerate(assignment, start=1):
                            marks[v].append(mark_index)
                        key, aut = _canonical_key_aut(labels, edges, marks)
                        if key not in reps:
                            reps[key] = MarkedGraph(
                                labels=labels,
                                edges=edges,
                                aut_order=aut,
                                marks=tuple(map(tuple, marks)),
                            )
    for key in sorted(reps):
        yield reps[key]


def classes(n: int, d: int, k: int):
    """The classes with ``k`` marks: the package's ``FixedGraph`` classes
    when ``k`` is 0, this module's :class:`MarkedGraph` classes otherwise,
    as the package enumerates no marked class."""
    return graphs.enumerate_graphs(n, d) if k == 0 else enumerate_graphs(n, d, k)
