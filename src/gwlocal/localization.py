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
terms of all of its labellings at once, so no class is listed, and the class
count reported with the result comes from the multiplicities of equal
branches in each shape.  A mark-count state would carry insertions through
the same programme, but it is far slower than the class sum on
point-insertion targets, so those keep the class sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, factorial, lcm, prod

from .graphs import FixedGraph, decorated_shapes, enumerate_graphs
from .targets import (
    CITarget,
    DimensionQuery,
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


class DimensionMismatch(ValueError):
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
    return stable_map_dim(target.ambient_dim, d, target.num_marks) - bundle_rank


class _Evaluator:
    """Evaluates tree contributions at one concrete weight vector.

    Precondition: the target is balanced, its insertion codimensions totalling
    :func:`required_insertion_total` (:func:`sum_invariant` enforces this).
    Every tree term of a balanced problem is then homogeneous of degree 0 in
    the weights, so it takes the same value at ``lam`` and at the integer
    vector ``p = L * lam``, with ``L`` the lcm of the weight denominators (1
    for sampled weights).  The denominators are cleared once, here; every
    factor is an integer numerator and denominator at ``p``, and each tree
    becomes one ``Fraction`` at the end, reduced once instead of once per
    multiply.  For an unbalanced target the value is the term at ``p``.

    Edge factors recur across trees, so they are memoized per (pair, degree);
    the tangent product at each fixed point is computed once per label.
    :meth:`summed_value` evaluates one tree; :meth:`shape_value` sums every
    labelling of one shape, from the same memoized factors, and shares the
    tables of equal subtrees across shapes.  Instances are cheap and
    process-local; each worker builds its own.
    """

    def __init__(self, weights: WeightVector, target: CITarget):
        if weights.ambient_dim != target.ambient_dim:
            raise ValueError("weight vector length does not match the ambient dimension")
        lam = weights.weights
        scale = lcm(*(w.denominator for w in lam))
        self.p = tuple(w.numerator * (scale // w.denominator) for w in lam)
        self.target = target
        degrees = target.degrees
        # per label: prod_{k != i} (p_i - p_k) and prod_a a * p_i, the bases of
        # the tangent and hypersurface vertex factors
        self._tangent = tuple(
            prod(pi - pk for k, pk in enumerate(self.p) if k != i) for i, pi in enumerate(self.p)
        )
        self._bundle_vertex = tuple(prod(a * pi for a in degrees) for pi in self.p)
        powers = [insertion.power for insertion in target.insertions]
        self._insertion_powers = tuple((w, powers.count(w)) for w in sorted(set(powers)))
        self._bundle_memo = {}
        self._normal_memo = {}
        self._edge_tables = {}
        self._flag_tables = {}
        self._vertex_memo = {}
        self._branch_tables = {}

    def _bundle_edge(self, a, i, j, de):
        # hypersurface-section weights along one edge:
        #   prod_{c=0..a*de} (c*p_i + (a*de - c)*p_j) / de
        # as (num, den)
        if i > j:
            i, j = j, i
        key = (a, i, j, de)
        value = self._bundle_memo.get(key)
        if value is None:
            pi, pj = self.p[i], self.p[j]
            m = a * de
            num = 1
            for c in range(m + 1):
                num *= c * pi + (m - c) * pj
            value = (num, de ** (m + 1))
            self._bundle_memo[key] = value
        return value

    def _normal_edge(self, i, j, de):
        # edge block of the inverse normal-bundle euler class:
        #   (-1)^de * de^(2de) / ((de!)^2 (p_i - p_j)^(2de))
        #   * prod_{k != i,j} prod_{c=0..de} de / (c*p_i + (de-c)*p_j - de*p_k)
        # as (num, den)
        if i > j:
            i, j = j, i
        key = (i, j, de)
        value = self._normal_memo.get(key)
        if value is None:
            pi, pj = self.p[i], self.p[j]
            den = factorial(de) ** 2 * (pi - pj) ** (2 * de)
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
            factors = (len(self.p) - 2) * (de + 1)
            value = ((-1) ** de * de ** (2 * de + factors), den)
            self._normal_memo[key] = value
        return value

    def summed_value(self, graph: FixedGraph) -> Fraction:
        """Contribution of an unmarked tree, summed over all ways of placing
        the target's marks on it.

        Placing mark ``l`` at vertex ``v`` multiplies the unmarked
        contribution by ``rnum[v] / rden[v] * p[label(v)] ** power(l)``, and the
        placements are independent, so the sum over placements factors into
        one vertex sum per mark.  Summing the factored form over unmarked
        classes weighted by ``1/aut`` equals summing the explicit form over
        marked classes (orbit counting), with enumeration cost independent of
        the mark count.  Marks of equal power share one vertex sum.
        """
        p = self.p
        degrees = self.target.degrees
        labels = [label for label, _marks in graph.vertices]
        nv = len(labels)
        valence = [0] * nv
        # rnum[v] / rden[v] is the sum of reciprocal flag weights at v
        rnum = [0] * nv
        rden = [1] * nv
        num = 1
        den = graph.aut_order
        for u, v, de in graph.edges:
            i, j = labels[u], labels[v]
            diff = p[i] - p[j]
            valence[u] += 1
            valence[v] += 1
            # flag weights are omega = diff / de at u and -omega at v: their
            # reciprocals enter the vertex sums, and dividing by both
            # multiplies by -(de / diff)^2; the symmetry divisor takes one de
            rnum[u] = rnum[u] * diff + de * rden[u]
            rden[u] *= diff
            rnum[v] = rnum[v] * diff - de * rden[v]
            rden[v] *= diff
            num *= -de * de
            den *= diff * diff * de
            for a in degrees:
                bn, bd = self._bundle_edge(a, i, j, de)
                num *= bn
                den *= bd
            nn, nd = self._normal_edge(i, j, de)
            num *= nn
            den *= nd
        for v in range(nv):
            # tangent^(val-1) * prod_a (a p)^(1-val) * recip^(val-3)
            label = labels[v]
            e = valence[v] - 1
            if e > 0:
                num *= self._tangent[label] ** e
                den *= self._bundle_vertex[label] ** e
            elif e < 0:
                num *= self._bundle_vertex[label]
                den *= self._tangent[label]
            exponent = e - 2
            if exponent > 0:
                num *= rnum[v] ** exponent
                den *= rden[v] ** exponent
            elif exponent < 0:
                if rnum[v] == 0:
                    raise DegenerateWeights(f"reciprocal flag weights at vertex {v} summed to zero")
                num *= rden[v] ** -exponent
                den *= rnum[v] ** -exponent
        for power, count in self._insertion_powers:
            # sum_v (rn/rd) p_v^power over the common denominator prod rd
            snum, sden = 0, 1
            for label, rn, rd in zip(labels, rnum, rden):
                snum = snum * rd + rn * p[label] ** power * sden
                sden *= rd
            num *= snum**count
            den *= sden**count
        return Fraction(num, den)

    def _edge_table(self, de):
        # [i][j]: the factor of an edge of degree de between labels i and j,
        #   -de / (p_i - p_j)^2 * prod_a bundle * normal
        # (the flag-weight division with one de of the symmetry divisor, as
        # in summed_value), None on the diagonal
        table = self._edge_tables.get(de)
        if table is None:
            p = self.p
            table = [[None] * len(p) for _ in p]
            for i in range(len(p)):
                for j in range(i + 1, len(p)):
                    num, den = -de, (p[i] - p[j]) ** 2
                    for a in self.target.degrees:
                        bn, bd = self._bundle_edge(a, i, j, de)
                        num *= bn
                        den *= bd
                    nn, nd = self._normal_edge(i, j, de)
                    table[i][j] = table[j][i] = Fraction(num * nn, den * nd)
            self._edge_tables[de] = table
        return table

    def _flag_table(self, de):
        # [i][j]: the reciprocal weight de / (p_i - p_j) of the flag at a
        # vertex labelled i on an edge of degree de towards label j
        table = self._flag_tables.get(de)
        if table is None:
            p = self.p
            table = [
                [Fraction(de, pi - pj) if i != j else None for j, pj in enumerate(p)]
                for i, pi in enumerate(p)
            ]
            self._flag_tables[de] = table
        return table

    def _vertex_factor(self, label, e):
        # (tangent / bundle vertex)^e at a vertex of valence e + 1
        key = (label, e)
        value = self._vertex_memo.get(key)
        if value is None:
            value = Fraction(self._tangent[label] ** e, self._bundle_vertex[label] ** e)
            self._vertex_memo[key] = value
        return value

    def _flag_power(self, label, rest):
        # the power (sum of reciprocal flag weights)^(val - 3) at a vertex
        # with the given label, summed over the labels of the branches behind
        # all of its flags but one, as a function of the reciprocal weight x
        # of that remaining flag: rest lists those branches
        if not rest:
            return lambda x: 1 / (x * x)
        if len(rest) == 1:
            (branch,) = rest
            flags = self._flag_table(branch[0])[label]
            terms = [
                (value, flags[c])
                for c, value in enumerate(self._branch_table(branch)[label])
                if c != label
            ]

            def power(x):
                total = Fraction(0)
                for value, flag in terms:
                    weight = x + flag
                    if not weight:
                        raise DegenerateWeights(
                            f"reciprocal flag weights at a vertex labelled {label} summed to zero"
                        )
                    total += value / weight
                return total

            return power
        # m = val - 3: (x + sum_f x_f)^m = m! [t^m] exp(x t) prod_f exp(x_f t),
        # and summing over the labels behind flag f turns exp(x_f t) into
        # sum_j s_f[j] t^j / j!, with s_f[j] the sum of value * x_f^j.  The
        # product of such series, coefficients scaled by j!, is the binomial
        # convolution of the s_f
        m = len(rest) - 2
        series = [Fraction(1)] + [Fraction(0)] * m
        for branch in rest:
            flags = self._flag_table(branch[0])[label]
            moments = [Fraction(0)] * (m + 1)
            for c, value in enumerate(self._branch_table(branch)[label]):
                if c != label:
                    for j in range(m + 1):
                        moments[j] += value
                        value *= flags[c]
            series = [
                sum(comb(k, j) * series[j] * moments[k - j] for j in range(k + 1))
                for k in range(m + 1)
            ]
        coefficients = [comb(m, j) * series[m - j] for j in range(m + 1)]

        def power(x):
            total = coefficients[m]
            for coefficient in reversed(coefficients[:m]):
                total = total * x + coefficient
            return total

        return power

    def _branch_table(self, branch):
        # [i][j]: the sum, over the labellings of the branch's subtree whose
        # root is labelled j below a parent labelled i, of its edge factor,
        # its root's vertex factor and flag power, and everything below; None
        # on the diagonal.  Equal branches, in one shape or several, share
        # one table
        table = self._branch_tables.get(branch)
        if table is None:
            de, below = branch
            factors = self._edge_table(de)
            flags = self._flag_table(de)
            labels = range(len(self.p))
            powers = [self._flag_power(j, below) for j in labels]
            table = [
                [
                    factors[i][j] * self._vertex_factor(j, len(below)) * powers[j](flags[j][i])
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
        :meth:`summed_value`'s term over every proper labelling, divided by
        ``aut_order`` (orbit-stabiliser counting).  That sum factors over the
        rooted tree: a branch's table holds, per parent label and own label,
        the sum over its subtree's labellings of its edge factor, its vertex
        factor and everything below it.  Every factor is the one
        :meth:`summed_value` multiplies in, so a vector degenerates here
        exactly when it degenerates on some class of the shape.
        """
        tree, aut_order, _classes = shape
        # the root's first flag plays the parent flag's part
        first, *rest = tree
        table = self._branch_table(first)
        flags = self._flag_table(first[0])
        total = Fraction(0)
        for i in range(len(self.p)):
            power = self._flag_power(i, rest)
            below = sum(
                (value * power(flags[i][c]) for c, value in enumerate(table[i]) if i != c),
                Fraction(0),
            )
            total += self._vertex_factor(i, len(tree) - 1) * below
        return total / aut_order


def lines_closed_form(n: int, degrees, weights: WeightVector) -> Fraction:
    """Degree-1 invariant summed directly over pairs of fixed points.

    One term per unordered pair ``i < j``: the product over hypersurface
    degrees ``a`` of ``prod_{c=0..a} (c*lam_i + (a-c)*lam_j)`` divided by
    ``prod_{k != i,j} (lam_i - lam_k)(lam_j - lam_k)``.  Shares no code with
    the tree sum, so it serves as an independent oracle for it.
    """
    if weights.ambient_dim != n:
        raise ValueError("weight vector length does not match the ambient dimension")
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
    target: CITarget


# the term method, its items, the target and the slice count of the call a
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
    evaluator = _Evaluator(weights, target)
    total = Fraction(0)
    try:
        for item in items[index::slice_count]:
            total += term(evaluator, item)
    except DegenerateWeights:
        return None
    return total


def _pooled_slice_total(task):
    return _slice_total(_worker_shared, task)


def _summands(target):
    """The terms of ``target``'s fixed-point sum: the :class:`_Evaluator`
    method that evaluates one, the items it takes, and the number of tree
    classes they cover.

    A target with insertions is summed class by class, with
    :meth:`_Evaluator.summed_value` over :func:`enumerate_graphs`; one
    without is summed shape by shape, with :meth:`_Evaluator.shape_value`
    over :func:`decorated_shapes`, which lists no class.
    """
    n, d = target.ambient_dim, target.curve_degree
    if target.insertions:
        graphs = tuple(enumerate_graphs(n, d, 0))
        return _Evaluator.summed_value, graphs, len(graphs)
    shapes = tuple(decorated_shapes(n, d))
    return _Evaluator.shape_value, shapes, sum(classes for _tree, _aut, classes in shapes)


def ProcessPoolExecutor(*args, **kwargs):
    """The standard library's process pool, imported on the first call.

    Importing ``concurrent.futures.process`` loads ``multiprocessing``,
    ``socket``, ``subprocess`` and ``logging``, a large share of the
    package's import time; only a call that opens a pool pays for it.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(*args, **kwargs)


def _totals_at(term, items, target, jobs, candidates):
    """Totals of ``term`` over ``items`` at each weight vector in
    ``candidates``, ``None`` where a vector degenerates.

    With ``jobs > 1`` and enough items, one pool evaluates every candidate
    as ``jobs`` slices; the items reach each worker once, through the pool's
    initializer, so a task carries only a weight vector and a slice index.
    Only then is the pool machinery imported, through
    :func:`ProcessPoolExecutor`.  Otherwise the same tasks run here, through
    the builtin ``map``.
    """
    slice_count = jobs if jobs > 1 and len(items) >= 2 * jobs else 1
    shared = (term, items, target, slice_count)
    tasks = [(weights, index) for weights in candidates for index in range(slice_count)]
    if slice_count == 1:
        partials = list(map(partial(_slice_total, shared), tasks))
    else:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(shared,)
        ) as pool:
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
    ``graph_count`` is the number of classes either way.  The seeds' weight
    vectors are evaluated together, in rounds: ``jobs > 1`` spreads a round
    over one pool of worker processes, each vector split into ``jobs``
    slices of the classes or shapes.  The pool machinery is imported only
    when a call opens a pool, so a serial call never loads it.  A seed whose
    vector degenerates, or repeats the vector an earlier seed accepted,
    moves to its next attempt in the next round, so the vectors used are
    those of evaluating the seeds one by one in order.  Exact addition
    commutes, so the result is identical for any worker count.

    Raises ``ValueError`` if ``jobs`` is not an integer of at least 1 or a
    seed is not an integer, :class:`DimensionMismatch` if the insertions do
    not cut the problem to dimension zero, :class:`ResamplingExhausted` if
    every weight vector a seed offers degenerates (naming the first such
    seed), and :class:`WeightIndependenceFailure` if the per-seed totals
    disagree.
    """
    if not isinstance(jobs, int) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    seeds = tuple(seeds)
    if not all(isinstance(s, int) for s in seeds):
        raise ValueError(f"seeds must be integers, got {seeds!r}")
    if len(seeds) < 2 or len(set(seeds)) != len(seeds):
        raise ValueError("need at least two distinct seeds")
    if not positivity_check(target):
        raise ValueError("target has a non-positive hypersurface factor")
    supplied = sum(insertion.power for insertion in target.insertions)
    needed = required_insertion_total(target)
    if supplied != needed:
        raise DimensionMismatch(
            f"insertion codimensions total {supplied} but the problem needs {needed}"
        )
    term, items, graph_count = _summands(target)
    attempts = [0] * len(seeds)
    # the weight vector drawn at each seed's current attempt, None once the
    # seed has moved past it
    candidates = [None] * len(seeds)
    evaluated = {}  # weights -> total, or None if they degenerate
    totals = []  # of the seeds accepted so far, a prefix in seed order
    used = set()
    while len(totals) < len(seeds):
        for i in range(len(totals), len(seeds)):
            if candidates[i] is not None:
                continue
            if attempts[i] < _MAX_RESAMPLE:
                candidates[i] = sample_weights(seeds[i], target.ambient_dim, attempts[i])
            elif i == len(totals):
                raise ResamplingExhausted(
                    f"no admissible weights for seed {seeds[i]} after {_MAX_RESAMPLE} attempts"
                )
        fresh = {
            weights.weights: weights
            for weights in candidates[len(totals) :]
            if weights is not None and weights.weights not in evaluated
        }
        if fresh:
            evaluated.update(
                zip(fresh, _totals_at(term, items, target, jobs, list(fresh.values())))
            )
        # resolve in seed order: degeneracy is final for any seed, but only a
        # seed whose predecessors are all accepted can be checked against them
        for i in range(len(totals), len(seeds)):
            weights = candidates[i]
            if weights is None:
                continue
            total = evaluated[weights.weights]
            first = i == len(totals)
            if total is None or (first and weights.weights in used):
                attempts[i] += 1
                candidates[i] = None
            elif first:
                used.add(weights.weights)
                totals.append(total)
    if any(total != totals[0] for total in totals[1:]):
        raise WeightIndependenceFailure(
            f"seed totals disagree: {[str(t) for t in totals]} for seeds {seeds}"
        )
    return EngineResult(
        value=totals[0], graph_count=graph_count, weight_seeds=seeds, target=target
    )
