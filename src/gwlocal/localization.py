"""Fixed-point graph sums for genus-zero stable-map invariants.

The torus acting diagonally on projective ``n``-space has isolated fixed
points; the induced fixed loci on genus-zero stable maps are indexed by the
decorated trees of :mod:`gwlocal.graphs`.  Each tree contributes an explicit
rational function of the torus weights, and the weighted sum over trees is a
weight-independent constant whenever the insertions cut the problem to
dimension zero.  That constant is the invariant.

The engine evaluates the sum at concrete positive rational weight vectors
drawn deterministically from seeds and requires exact agreement across
several seeds, which certifies weight independence without symbolic
computation.  No floating point is involved.  The weights' denominators are
cleared once: a balanced problem makes every tree term homogeneous of degree
0 in the weights, so each term is evaluated at the integer multiple of the
weight vector, built from integer numerators and denominators and reduced
once, into one ``fractions.Fraction``; totals and results are exact
``Fraction`` values.

There are two sums, and the target's insertions alone select between them.
A target with insertions is summed class by class: the tree classes are
enumerated once, and each class's term carries the insertions as vertex
sums.  A target without insertions is summed shape by shape: for each
degree-decorated shape a dynamic programme over vertex labels adds up the
terms of all of its labellings at once, so no class is listed, and the
class count reported with the result comes from the multiplicities of
equal branches in each shape.  A mark-count state would carry insertions
through the same programme, but it is far slower than the class sum on
point-insertion targets, so those keep the class sum.

Both sums read one set of per-label integer tables, and every denominator
in them is fixed per label.  A flag of degree ``de`` at a vertex labelled
``i`` towards label ``j`` is the integer ``de * T_i / (p_i - p_j)`` over
the tangent product ``T_i``, so the reciprocal flag sum at the vertex is a
small integer over ``T_i``, and its vertex factor is that integer's power
times ``T_i^2 / B_i^(val-1)``, ``B_i`` the hypersurface base.  In the class
sum each mark's vertex sum is an integer over ``L = lcm(T_0, ..., T_n)``;
the marks' common denominator ``L^k`` is the same for every class, so the
class sum adds a slice's integer terms over the running lcm of their
denominators and makes one ``Fraction`` per slice, divided by ``L^k``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd, lcm, prod

from .graphs import decorated_shapes, enumerate_graphs
from .targets import (
    CITarget,
    DimensionQuery,
    InputError,
    WeightVector,
    expected_dimension,
    positivity_check,
)

__all__ = [
    "ENGINE_VERSION",
    "WEIGHT_BOUND",
    "DegenerateWeights",
    "WeightIndependenceFailure",
    "ResamplingExhausted",
    "DimensionMismatch",
    "EngineResult",
    "sample_weights",
    "stable_map_dim",
    "required_insertion_total",
    "lines_closed_form",
    "sum_invariant",
]

ENGINE_VERSION = "0.1.0"

# sample_weights draws integers from 1..WEIGHT_BOUND, so numerators are
# bounded by WEIGHT_BOUND and denominators equal 1
WEIGHT_BOUND = 10_000

_MAX_RESAMPLE = 64


class DegenerateWeights(ArithmeticError):
    """A weight specialization made a denominator factor vanish.  Harmless:
    callers resample from the same seed lineage (seed, attempt + 1)."""


class WeightIndependenceFailure(RuntimeError):
    """Totals at distinct seeds disagreed.  This indicates a bug in the
    formulas or the enumeration, never bad user input."""


class ResamplingExhausted(RuntimeError):
    """Every weight vector a seed's lineage offered degenerated, so the graph
    sum could not be evaluated for that seed."""


class DimensionMismatch(InputError):
    """The insertions do not cut the moduli problem to dimension zero, so no
    weight-independent number exists."""


def sample_weights(seed: int, n: int, attempt: int = 0) -> WeightVector:
    """Deterministic admissible weights for projective ``n``-space.

    Draws ``n + 1`` pairwise-distinct integers from ``1..WEIGHT_BOUND`` with
    the stdlib generator seeded by ``(seed, attempt)``; the same pair always
    yields the same vector.  Bump ``attempt`` to stay in the same lineage
    while avoiding a degenerate specialization.
    """
    rng = random.Random(1_000_003 * seed + attempt)
    values = rng.sample(range(1, WEIGHT_BOUND + 1), n + 1)
    return WeightVector(tuple(Fraction(v) for v in values))


def stable_map_dim(n: int, d: int, k: int = 0) -> int:
    """Complex expected dimension of the genus-zero stable-map space of
    degree-``d`` maps to projective ``n``-space with ``k`` marks."""
    query = DimensionQuery(genus=0, marks=k, c1_dot_A=(n + 1) * d, half_dim=n)
    return expected_dimension(query) // 2


def required_insertion_total(target: CITarget) -> int:
    """Total insertion codimension that cuts ``target`` to a number: the
    stable-map dimension minus the rank of the bundle of hypersurface
    conditions."""
    d = target.curve_degree
    bundle_rank = sum(a * d + 1 for a in target.degrees)
    return stable_map_dim(target.ambient_dim, d, len(target.insertions)) - bundle_rank


class _Evaluator:
    """Evaluates tree contributions at one concrete weight vector.

    Precondition: the target is balanced, its insertion codimensions totalling
    :func:`required_insertion_total` (:func:`sum_invariant` enforces this).
    Every tree term of a balanced problem is then homogeneous of degree 0 in
    the weights, so it takes the same value at ``lam`` and at the integer
    vector ``p = L * lam``, with ``L`` the lcm of the weight denominators (1
    for sampled weights).  The denominators are cleared once, here; every
    factor is an integer numerator and denominator at ``p``, and the class
    sum makes each slice of trees one ``Fraction`` at the end, reduced once
    instead of once per multiply or per tree.  For an unbalanced target the
    value is the term at ``p``.

    Edge factors recur across trees, so each one, whole, is memoized as an
    integer numerator and denominator, with the edge's two integer flags,
    under both orders of its (label, label, degree).  Everything else both
    sums need per label is one family of integer tables, computed once:
    the cofactors ``T_i / (p_i - p_j)``, with ``T_i`` the tangent product,
    that put every reciprocal flag sum over ``T_i``, the fixed parts
    ``T_i^2`` and ``B_i^(val-1)`` of the vertex factors, and each insertion
    power's mark coefficients over the common denominator ``L``, the lcm of
    the ``T_i``.  :meth:`classes_total` sums a slice of unmarked trees,
    dividing by the marks' ``L^k`` once; :meth:`shape_value` sums every
    labelling of one shape from the same edge memo and tables, and shares
    the tables of equal subtrees across shapes.  Instances are cheap and
    process-local; each worker builds its own.
    """

    def __init__(self, weights: WeightVector, target: CITarget):
        if weights.ambient_dim != target.ambient_dim:
            raise InputError("weight vector length does not match the ambient dimension")
        lam = weights.weights
        scale = lcm(*(w.denominator for w in lam))
        self.p = tuple(w.numerator * (scale // w.denominator) for w in lam)
        self.target = target
        # per label: the tangent product T_i = prod_{k != i} (p_i - p_k) and
        # B_i = prod_a a * p_i, the bases of the vertex factors
        tangent = tuple(
            prod(pi - pk for k, pk in enumerate(self.p) if k != i) for i, pi in enumerate(self.p)
        )
        bundle_vertex = tuple(prod(a * pi for a in target.degrees) for pi in self.p)
        # [i][j]: the cofactor T_i / (p_i - p_j), an integer; a flag of degree
        # de at label i towards label j has reciprocal weight de * [i][j] / T_i
        self._cofactor = tuple(
            tuple(ti // (pi - pj) if i != j else 0 for j, pj in enumerate(self.p))
            for i, (pi, ti) in enumerate(zip(self.p, tangent))
        )
        # [i][val - 1]: T_i^2 and B_i^(val-1), the parts of the vertex factor
        # fixed by label and valence; a tree of degree d has at most d edges,
        # so 1 <= val <= d
        self._vertex_parts = tuple(
            tuple((t * t, b**e) for e in range(target.curve_degree))
            for t, b in zip(tangent, bundle_vertex)
        )
        # per distinct insertion power w: p_i^w * L / T_i per label, and the
        # number of marks of that power; L^k is the marks' common denominator
        common = lcm(*tangent)
        scales = [common // ti for ti in tangent]
        powers = target.insertions
        self._mark_coefficients = tuple(
            (tuple(pi**w * si for pi, si in zip(self.p, scales)), powers.count(w))
            for w in sorted(set(powers))
        )
        self._mark_denominator = common ** len(powers)
        self._edges = {}
        self._branch_tables = {}

    def _edge(self, i, j, de):
        # (flag_i, flag_j, num, den) for an edge of degree de from label i to
        # label j: the integers de * cof[i][j] and de * cof[j][i], its ends'
        # reciprocal flag weights over T_i and T_j, and the edge factor
        # num / den: -de / (p_i - p_j)^2, the division by both flag weights
        # with one de of the symmetry divisor, times prod_a bundle * normal,
        # the hypersurface-section weights
        #   bundle = prod_{c=0..a*de} (c*p_i + (a*de - c)*p_j) / de
        # and the edge block of the inverse normal-bundle euler class
        #   normal = (-1)^de * de^(2de) / ((de!)^2 (p_i - p_j)^(2de))
        #     * prod_{k != i,j} prod_{c=0..de} de / (c*p_i + (de-c)*p_j - de*p_k)
        # The factor is symmetric in i and j, so it is computed once per
        # unordered pair and memoized under both orders, the flags swapped
        key = (i, j, de)
        value = self._edges.get(key)
        if value is None:
            pi, pj = self.p[i], self.p[j]
            factors = (len(self.p) - 2) * (de + 1)
            num = (-1) ** (de + 1) * de ** (2 * de + 1 + factors)
            den = factorial(de) ** 2 * (pi - pj) ** (2 * de + 2)
            for a in self.target.degrees:
                m = a * de
                for c in range(m + 1):
                    num *= c * pi + (m - c) * pj
                den *= de ** (m + 1)
            for k, pk in enumerate(self.p):
                if k == i or k == j:
                    continue
                for c in range(de + 1):
                    denominator = c * pi + (de - c) * pj - de * pk
                    if denominator == 0:
                        raise DegenerateWeights(
                            f"edge ({i},{j}) of degree {de} met fixed point {k}"
                        )
                    den *= denominator
            flag_i, flag_j = de * self._cofactor[i][j], de * self._cofactor[j][i]
            value = self._edges[key] = (flag_i, flag_j, num, den)
            self._edges[j, i, de] = (flag_j, flag_i, num, den)
        return value

    def _class_term(self, graph):
        # (num, den) with num / den the tree's term, summed over the
        # placements of the marks, times the mark denominator L^k; at a
        # vertex labelled i with flag sum R_v / T_i, num and den carry
        # T_i^2 * R_v^(val-3) / B_i^(val-1)
        labels = graph.labels
        nv = len(labels)
        valence = [0] * nv
        flag = [0] * nv
        edges = self._edges
        num = 1
        den = graph.aut_order
        for u, v, de in graph.edges:
            key = (labels[u], labels[v], de)
            flag_u, flag_v, edge_num, edge_den = edges.get(key) or self._edge(*key)
            valence[u] += 1
            valence[v] += 1
            flag[u] += flag_u
            flag[v] += flag_v
            num *= edge_num
            den *= edge_den
        vertex_parts = self._vertex_parts
        for label, val, r in zip(labels, valence, flag):
            vertex_num, vertex_den = vertex_parts[label][val - 1]
            num *= vertex_num
            den *= vertex_den
            if val > 3:
                num *= r ** (val - 3)
            elif val < 3:
                if r == 0:
                    raise DegenerateWeights(
                        f"reciprocal flag weights at a vertex labelled {label} summed to zero"
                    )
                den *= r ** (3 - val)
        for coefficients, count in self._mark_coefficients:
            num *= sum(r * coefficients[label] for label, r in zip(labels, flag)) ** count
        return num, den

    def classes_total(self, graphs) -> Fraction:
        """Sum of the contributions of the unmarked trees ``graphs``, each
        summed over all ways of placing the target's marks on it;
        ``classes_total((graph,))`` is one tree's contribution.

        Placing mark ``l`` at vertex ``v`` multiplies the unmarked term by
        the reciprocal flag sum at ``v`` times ``p[label(v)] ** power(l)``,
        and the placements are independent, so they factor into one vertex
        sum per mark, shared by marks of equal power.  Weighted by
        ``1/aut``, this equals the sum over marked classes (orbit counting).
        At a vertex labelled ``i`` the reciprocal flag sum is ``R_v / T_i``,
        with ``R_v`` the integer ``sum_f de_f * T_i / (p_i - p_j_f)``, so the
        vertex factor is ``T_i^2 R_v^(val-3) / B_i^(val-1)`` and a mark's
        vertex sum of power ``w`` is ``sum_v R_v p_i^w (L / T_i)`` over
        ``L = lcm(T_0, ..., T_n)``.  The marks' denominator ``L^k`` is the
        same for every tree, so the trees' integer terms are added over the
        running lcm of their denominators, one ``gcd`` per tree, and divided
        by ``L^k`` in the slice's one ``Fraction``.
        """
        num, den = 0, 1
        for graph in graphs:
            term_num, term_den = self._class_term(graph)
            g = gcd(den, term_den)
            num = num * (term_den // g) + term_num * (den // g)
            den *= term_den // g
        return Fraction(num, den * self._mark_denominator)

    def _vertex_sum(self, label, rest):
        # the vertex factor T_i^2 (r + sum_f R_f)^(val-3) / B_i^(val-1) of
        # _class_term at a vertex labelled i, summed over the labels behind
        # all of its flags but one, as a function of the integer
        # r = de * cof[i][j] of that remaining flag: rest lists the branches
        # behind the others, and a branch of degree de_f whose root is
        # labelled c has R_f = de_f * cof[i][c]
        tangent_square, bundle_power = self._vertex_parts[label][len(rest)]
        cofactors = self._cofactor[label]
        if not rest:
            return lambda r: Fraction(tangent_square, r * r)
        scale = Fraction(tangent_square, bundle_power)
        if len(rest) == 1:
            (branch,) = rest
            de = branch[0]
            terms = [
                (value * scale, de * cofactors[c])
                for c, value in enumerate(self._branch_table(branch)[label])
                if c != label
            ]

            def vertex_sum(r):
                total = Fraction(0)
                for value, flag in terms:
                    weight = r + flag
                    if not weight:
                        raise DegenerateWeights(
                            f"reciprocal flag weights at a vertex labelled {label} summed to zero"
                        )
                    total += value / weight
                return total

            return vertex_sum
        # m = val - 3: (r + sum_f R_f)^m = m! [t^m] exp(r t) prod_f exp(R_f t),
        # and summing over the labels behind flag f turns exp(R_f t) into
        # sum_j s_f[j] t^j / j!, with s_f[j] the sum of value * R_f^j.  The
        # product of such series, coefficients scaled by j!, is the binomial
        # convolution of the s_f
        m = len(rest) - 2
        series = [Fraction(1)] + [Fraction(0)] * m
        for branch in rest:
            de = branch[0]
            moments = [Fraction(0)] * (m + 1)
            for c, value in enumerate(self._branch_table(branch)[label]):
                if c != label:
                    flag = de * cofactors[c]
                    for j in range(m + 1):
                        moments[j] += value
                        value *= flag
            series = [
                sum(comb(k, j) * series[j] * moments[k - j] for j in range(k + 1))
                for k in range(m + 1)
            ]
        coefficients = [comb(m, j) * series[m - j] * scale for j in range(m + 1)]

        def vertex_sum(r):
            total = coefficients[m]
            for coefficient in reversed(coefficients[:m]):
                total = total * r + coefficient
            return total

        return vertex_sum

    def _branch_table(self, branch):
        # [i][j]: the sum, over the labellings of the branch's subtree whose
        # root is labelled j below a parent labelled i, of its edge factor,
        # its root's vertex factor and everything below; None on the
        # diagonal.  Equal branches, in one shape or several, share one table
        table = self._branch_tables.get(branch)
        if table is None:
            de, below = branch
            cofactor = self._cofactor
            labels = range(len(self.p))
            vertex_sums = [self._vertex_sum(j, below) for j in labels]
            table = [
                [
                    Fraction(*self._edge(i, j, de)[2:]) * vertex_sums[j](de * cofactor[j][i])
                    if i != j
                    else None
                    for j in labels
                ]
                for i in labels
            ]
            self._branch_tables[branch] = table
        return table

    def shape_value(self, shape) -> Fraction:
        """Sum of the contributions of every class of unmarked trees with one
        degree-decorated shape, for a target without insertions.

        ``shape`` is ``(tree, aut_order, classes)`` as
        :func:`gwlocal.graphs.decorated_shapes` yields it, the tree a rooted
        tuple of ``(edge degree, subtree)`` branches.  Each class is an orbit
        of proper labellings under the shape's automorphism group, with the
        stabiliser as its ``aut_order``, so the classes' sum is the sum of
        :meth:`classes_total`'s term over every proper labelling, divided by
        ``aut_order`` (orbit-stabiliser counting).  That sum factors over the
        rooted tree: a branch's table holds, per parent label and own label,
        the sum over its subtree's labellings of its edge factor, its root's
        vertex factor and everything below it.  Every factor is the one
        :meth:`classes_total` multiplies in, read from the same tables: the
        memoized edge factors, and the vertex factor
        ``T_i^2 R_v^(val-3) / B_i^(val-1)`` with ``R_v`` the sum of the
        integer flags ``de * T_i / (p_i - p_j)``.  So a vector degenerates
        here exactly when it degenerates on some class of the shape.
        """
        tree, aut_order, _classes = shape
        # the root's first flag plays the parent flag's part
        first, *rest = tree
        de = first[0]
        table = self._branch_table(first)
        total = Fraction(0)
        for i, cofactors in enumerate(self._cofactor):
            vertex_sum = self._vertex_sum(i, rest)
            for c, value in enumerate(table[i]):
                if c != i:
                    total += value * vertex_sum(de * cofactors[c])
        return total / aut_order

    def shapes_total(self, shapes) -> Fraction:
        """Sum of :meth:`shape_value` over ``shapes``."""
        return sum(map(self.shape_value, shapes), Fraction(0))


def lines_closed_form(n: int, degrees, weights: WeightVector) -> Fraction:
    """Degree-1 invariant summed directly over pairs of fixed points.

    One term per unordered pair ``i < j``: the product over hypersurface
    degrees ``a`` of ``prod_{c=0..a} (c*lam_i + (a-c)*lam_j)`` divided by
    ``prod_{k != i,j} (lam_i - lam_k)(lam_j - lam_k)``.  Shares no code with
    the tree sum, so it serves as an independent oracle for it.
    """
    if weights.ambient_dim != n:
        raise InputError("weight vector length does not match the ambient dimension")
    lam = weights.weights
    total = Fraction(0)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            li, lj = lam[i], lam[j]
            numerator = Fraction(1)
            for a in degrees:
                for c in range(a + 1):
                    numerator *= c * li + (a - c) * lj
            denominator = Fraction(1)
            for k in range(n + 1):
                if k != i and k != j:
                    denominator *= (li - lam[k]) * (lj - lam[k])
            total += numerator / denominator
    return total


@dataclass(frozen=True)
class EngineResult:
    """Certified output of :func:`sum_invariant`."""

    value: Fraction
    graph_count: int
    weight_seeds: tuple


# the slice method, its items, the target and the slice count of the call a
# pool worker serves; set once per worker by the pool's initializer, never in
# the calling process
_worker_shared = None


def _init_worker(shared):
    global _worker_shared
    _worker_shared = shared


def _slice_total(shared, task):
    """Sum over one slice of the items at one weight vector, or ``None`` if
    the vector degenerates on an item of the slice.  Degeneracy is returned
    rather than raised so that one bad vector does not abort a whole map."""
    term, items, target, slice_count = shared
    weights, index = task
    try:
        return term(_Evaluator(weights, target), items[index::slice_count])
    except DegenerateWeights:
        return None


def _pooled_slice_total(task):
    return _slice_total(_worker_shared, task)


def _summands(target):
    """The terms of ``target``'s fixed-point sum: the :class:`_Evaluator`
    method that sums a slice of them, the items it takes, and the number of
    tree classes they cover.

    A target with insertions is summed class by class, with
    :meth:`_Evaluator.classes_total` over :func:`enumerate_graphs`; one
    without is summed shape by shape, with :meth:`_Evaluator.shapes_total`
    over :func:`decorated_shapes`, which lists no class.
    """
    n, d = target.ambient_dim, target.curve_degree
    if target.insertions:
        graphs = tuple(enumerate_graphs(n, d, 0))
        return _Evaluator.classes_total, graphs, len(graphs)
    shapes = tuple(decorated_shapes(n, d))
    return _Evaluator.shapes_total, shapes, sum(classes for _tree, _aut, classes in shapes)


def ProcessPoolExecutor(*args, **kwargs):
    """The standard library's process pool, imported on the first call.

    Importing ``concurrent.futures.process`` loads ``multiprocessing``,
    ``socket``, ``subprocess`` and ``logging``, a large share of the
    package's import time; only a call that opens a pool pays for it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(*args, **kwargs)


def _totals_at(shared, candidates, pool=None):
    """Totals of the ``(term, items, target, slice_count)`` of ``shared`` at
    each weight vector in ``candidates``, ``None`` where a vector
    degenerates.

    Each candidate is evaluated as ``slice_count`` slices of the items: by
    ``pool``, whose workers got ``shared`` once, through its initializer, so
    a task carries only a weight vector and a slice index; or, without a
    pool, here, through the builtin ``map``.
    """
    slice_count = shared[-1]
    tasks = [(weights, index) for weights in candidates for index in range(slice_count)]
    if pool is None:
        partials = list(map(partial(_slice_total, shared), tasks))
    else:
        partials = list(pool.map(_pooled_slice_total, tasks))
    totals = []
    for start in range(0, len(partials), slice_count):
        parts = partials[start : start + slice_count]
        totals.append(None if any(part is None for part in parts) else sum(parts, Fraction(0)))
    return totals


def sum_invariant(target: CITarget, seeds=(1, 2, 3), jobs: int = 1) -> EngineResult:
    """Genus-zero invariant of ``target`` as an exact rational.

    Lists the terms of the fixed-point sum once, evaluates the sum at the
    weight vector of each seed (resampling within a seed's lineage if a
    specialization degenerates), and requires the per-seed totals to agree
    exactly; the certified common value is returned.  A target with
    insertions is summed over its tree classes; one without is summed over
    its degree-decorated shapes, each shape's labellings at once, and its
    classes are counted but never listed (see :func:`_summands`).
    ``graph_count`` is the number of classes either way.  Every seed's first
    weight vector is evaluated in one batch: with ``jobs > 1`` and at least
    ``2·jobs`` classes or shapes, it is spread over one pool of worker
    processes, each vector split into ``jobs`` slices of them.  The pool
    machinery is imported only when a call opens a pool, so a serial call
    never loads it.  The seeds are then resolved in order: while a seed's
    vector degenerates, or repeats the vector an earlier seed accepted, the
    seed moves to its next attempt, and a vector not yet evaluated is
    evaluated on its own, by the same pool, which stays open until the last
    seed is resolved.  Exact addition commutes, so the result is identical
    for any worker count.

    Raises :class:`~gwlocal.targets.InputError` if ``jobs`` is not an
    integer of at least 1, a seed is not an integer, fewer than two distinct
    seeds are given or a hypersurface factor is not positive;
    :class:`DimensionMismatch` if the insertions do not cut the problem to
    dimension zero, :class:`ResamplingExhausted` if every weight vector a
    seed offers degenerates (naming the first such seed), and
    :class:`WeightIndependenceFailure` if the per-seed totals disagree.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise InputError(f"jobs must be a positive integer, got {jobs!r}")
    seeds = tuple(seeds)
    if not all(isinstance(s, int) for s in seeds):
        raise InputError(f"seeds must be integers, got {seeds!r}")
    if len(seeds) < 2 or len(set(seeds)) != len(seeds):
        raise InputError("need at least two distinct seeds")
    if not positivity_check(target):
        raise InputError("target has a non-positive hypersurface factor")
    supplied = sum(target.insertions)
    needed = required_insertion_total(target)
    if supplied != needed:
        raise DimensionMismatch(
            f"insertion codimensions total {supplied} but the problem needs {needed}"
        )
    term, items, graph_count = _summands(target)
    n = target.ambient_dim
    slice_count = jobs if jobs > 1 and len(items) >= 2 * jobs else 1
    shared = (term, items, target, slice_count)
    # every seed's first vector in one batch; the call's one pool, if any,
    # opens for it and serves the resampling walk too
    first = [sample_weights(seed, n) for seed in seeds]
    fresh = {weights.weights: weights for weights in first}
    pool = None
    if slice_count > 1:
        pool = ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(shared,))
    try:
        evaluated = dict(zip(fresh, _totals_at(shared, list(fresh.values()), pool)))
        accepted = {}  # weights -> total, in seed order
        for seed, weights in zip(seeds, first):
            attempt = 0
            while evaluated[weights.weights] is None or weights.weights in accepted:
                attempt += 1
                if attempt == _MAX_RESAMPLE:
                    raise ResamplingExhausted(
                        f"no admissible weights for seed {seed} after {_MAX_RESAMPLE} attempts"
                    )
                weights = sample_weights(seed, n, attempt)
                if weights.weights not in evaluated:
                    (evaluated[weights.weights],) = _totals_at(shared, [weights], pool)
            accepted[weights.weights] = evaluated[weights.weights]
    finally:
        if pool is not None:
            pool.shutdown()
    totals = list(accepted.values())
    if any(total != totals[0] for total in totals[1:]):
        raise WeightIndependenceFailure(
            f"seed totals disagree: {[str(t) for t in totals]} for seeds {seeds}"
        )
    return EngineResult(value=totals[0], graph_count=graph_count, weight_seeds=seeds)
