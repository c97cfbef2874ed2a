"""Independent brute-force oracles for the test suite.

Everything in this file is written from scratch and imports nothing from the
package, so agreement between an oracle and the implementation is evidence,
not circularity.
"""

import heapq
from fractions import Fraction
from itertools import product
from math import factorial


def prufer_trees(num_vertices):
    """Yield every labeled tree on vertices 0..num_vertices-1.

    Trees come out as tuples of sorted (a, b) edges with a < b, decoded from
    all Prufer sequences; the classical bijection guarantees each labeled
    tree appears exactly once.
    """
    if num_vertices == 1:
        yield ()
        return
    if num_vertices == 2:
        yield ((0, 1),)
        return
    for seq in product(range(num_vertices), repeat=num_vertices - 2):
        degree = [1] * num_vertices
        for v in seq:
            degree[v] += 1
        leaves = [v for v in range(num_vertices) if degree[v] == 1]
        heapq.heapify(leaves)
        edges = []
        for v in seq:
            leaf = heapq.heappop(leaves)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        a = heapq.heappop(leaves)
        b = heapq.heappop(leaves)
        edges.append((min(a, b), max(a, b)))
        yield tuple(sorted(edges))


def positive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in positive_compositions(total - first, parts - 1):
            yield (first,) + rest


def count_labeled_decorated_trees(n, d, k):
    """Count decorated trees on a fixed, distinguishable vertex set.

    A decorated tree is a labeled tree on {0..V-1} together with a vertex
    labeling into {0..n} that differs across each edge, a positive edge
    degree per edge summing to d, and a placement of marks 1..k on vertices.
    Label, degree, and mark choices are independent once the tree is fixed,
    so the count factors.
    """
    total = 0
    for num_edges in range(1, d + 1):
        verts = num_edges + 1
        degree_choices = sum(1 for _ in positive_compositions(d, num_edges))
        for edges in prufer_trees(verts):
            labelings = sum(
                1
                for labels in product(range(n + 1), repeat=verts)
                if all(labels[a] != labels[b] for a, b in edges)
            )
            total += labelings * degree_choices * verts**k
    return total


def orbit_sum(graphs):
    """Sum of V!/|Aut| over isomorphism classes.

    By orbit-stabilizer this equals the number of decorated trees on a fixed
    vertex set, i.e. count_labeled_decorated_trees on matching inputs.
    """
    return sum(Fraction(factorial(len(g.labels)), g.aut_order) for g in graphs)


def forward_gw0(bps0):
    """Degree-d genus-zero invariant from instanton numbers: the multiple
    cover sum over divisors, cubic weight."""
    return {
        d: sum(bps0[d // k] / Fraction(k**3) for k in range(1, d + 1) if d % k == 0)
        for d in sorted(bps0)
    }


def forward_gw1(bps0, bps1):
    """Genus-one invariant from instanton numbers, linear weights plus the
    genus-zero tail divided by 12."""
    out = {}
    for d in sorted(bps1):
        divisors = [k for k in range(1, d + 1) if d % k == 0]
        tail = sum(bps0[d // k] / Fraction(k) for k in divisors)
        out[d] = tail / 12 + sum(bps1[d // k] / Fraction(k) for k in divisors)
    return out
