"""Independent brute-force oracles for the test suite.

Everything in this file is written from scratch and imports nothing from the
package, so agreement between an oracle and the implementation is evidence,
not circularity.
"""

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import comb, factorial


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


def _splits(entries):
    # (A, B, ways): each way of dealing the distinguishable insertions with
    # the sorted codimensions ``entries`` into two groups, grouped by the
    # groups' codimension multisets
    runs = [(a, len(tuple(run))) for a, run in groupby(entries)]
    for picks in product(*(range(m + 1) for _a, m in runs)):
        first = tuple(a for (a, _m), k in zip(runs, picks) for _ in range(k))
        second = tuple(a for (a, m), k in zip(runs, picks) for _ in range(m - k))
        ways = 1
        for (_a, m), k in zip(runs, picks):
            ways *= comb(m, k)
        yield first, second, ways


def _invariant(r, d, codims):
    # genus-zero invariant of P^r in degree d >= 0 with one insertion H^a per
    # entry a of codims, in any order: at d = 0 the classical triple
    # intersection, which is 1 when three codimensions sum to r and 0 for any
    # other number of insertions
    if d == 0:
        return int(len(codims) == 3 and sum(codims) == r)
    return kontsevich_manin(r, d, tuple(sorted(codims)))


@lru_cache(maxsize=None)
def kontsevich_manin(r, d, codims):
    """Number of rational curves of degree ``d >= 1`` in projective
    ``r``-space, ``r >= 2``, meeting general linear subspaces of the
    codimensions in the sorted tuple ``codims``: the genus-zero invariant
    with one insertion ``H^a`` per entry ``a``, from the Kontsevich-Manin
    recursion (hep-th/9402147; Fulton-Pandharipande, alg-geom/9608011).

    It is 0 unless the codimensions, each at most ``r``, cut the problem to
    dimension 0: ``sum(a - 1) == (r + 1) * d + r - 3``.  A codimension-0
    entry makes it 0 (string axiom), a codimension-1 entry is a factor ``d``
    (divisor axiom), and a line through two points is the base case
    ``N(r, 1, (r, r)) = 1``; with every entry at least 2 and fewer than
    three entries no other problem is balanced.  Otherwise, for the three
    smallest entries ``a <= b <= c`` and the rest ``S``, WDVV for the four
    classes ``H^(a-1), H, H^b, H^c`` and ``S`` equates the sums over
    splittings ``d1 + d2 = d``, ``S = A + B`` and the diagonal ``H^e, H^(r-e)``
    of ``N(d1; a-1, 1, A, e) N(d2; r-e, b, c, B)`` and of
    ``N(d1; a-1, b, A, e) N(d2; r-e, 1, c, B)``.  The first sum's ``d1 = 0``
    term is the wanted ``N(d; a, b, c, S)``; every other term has a lower
    degree, fewer entries once the divisor axiom is applied, or as many
    entries with the smallest, ``a``, lowered by one, so the recursion ends.
    """
    if any(a > r for a in codims) or sum(a - 1 for a in codims) != (r + 1) * d + r - 3:
        return 0
    if codims[0] == 0:
        return 0
    if codims[0] == 1:
        return d * kontsevich_manin(r, d, codims[1:])
    if len(codims) < 3:
        return int(d == 1 and codims == (r, r))
    a, b, c, *rest = codims
    total = 0
    for d1 in range(d + 1):
        for first, second, ways in _splits(tuple(rest)):
            for e in range(r + 1):
                left = _invariant(r, d1, (a - 1, b, *first, e))
                if left:
                    total += ways * left * _invariant(r, d - d1, (r - e, 1, c, *second))
                left = _invariant(r, d1, (a - 1, 1, *first, e)) if d1 else 0
                if left:
                    total -= ways * left * _invariant(r, d - d1, (r - e, b, c, *second))
    return total
