"""Fixed-point graph sums for genus-zero stable-map invariants.

The torus acting diagonally on projective ``n``-space has isolated fixed
points; the induced fixed loci on genus-zero stable maps are indexed by the
decorated trees of :mod:`gwlocal.graphs`.  Each tree contributes an explicit
rational function of the torus weights, and the weighted sum over trees is a
weight-independent constant whenever the insertions cut the problem to
dimension zero.  That constant is the invariant.

The engine evaluates the sum at concrete positive integer weight vectors
drawn deterministically from seeds and requires exact agreement across
several seeds, which certifies weight independence without symbolic
computation.  No floating point is involved.  Each term is built from
integer numerators and denominators and reduced once, into one
``fractions.Fraction``; totals and results are exact ``Fraction`` values.

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
small integer over ``T_i``.  The vertex factor is that integer's power
times ``T_i^2 / B_i^(val-1)``, ``B_i`` the hypersurface base, and on a tree
the bases ``B_v^val`` multiply to the product of ``B_i * B_j`` over the
edges; so each vertex carries the per-label constant ``T_i^2 * B_i`` and
each edge factor divides by its ends' ``B_i * B_j``.  In the class sum each
mark's vertex sum is an integer over ``L = lcm(T_0, ..., T_n)``; the marks'
common denominator ``L^k`` is the same for every class, so the class sum
adds a slice's integer terms over the running lcm of their denominators
and makes one ``Fraction`` per slice, divided by ``L^k``.

A weight vector degenerates when a tree has a vanishing denominator
factor; :func:`_degenerate` decides that from the weights, before any sum.

No table depends on the curve degree: an :class:`_Evaluator` is built from
the weight vector, the hypersurface degrees and the insertions alone, and
those three are the key under which :func:`_slice_total` looks it up in one
``functools.lru_cache`` of ``_KEPT`` entries.  Each process keeps the
``_KEPT`` evaluators it used most recently: the calling process those of its
serial calls and their threads, and each pool worker its own, for the life
of the pool (a forked worker starts from a copy of the caller's).  So a loop
over degrees at the same seeds builds each distinct vector's tables once,
and values and draws are those of a call with nothing kept.  At the bound,
eight quintic d=8 evaluators hold 3.5 MB (``tracemalloc``, Python 3.11).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import comb, factorial, gcd, lcm, prod

from .graphs import decorated_shapes, enumerate_graphs
from .targets import (
    CITarget,
    DimensionQuery,
    InputError,
    WeightVector,
    _is_integer,
    expected_dimension,
    positivity_check,
)

__all__ = [
    "ENGINE_VERSION",
    "WEIGHT_BOUND",
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

# sample_weights draws n + 1 distinct integers from 1..WEIGHT_BOUND
WEIGHT_BOUND = 10_000

_MAX_RESAMPLE = 64

# evaluators kept per process; at least the 7 distinct vectors that a
# quintic degree loop to d=6 at seeds 27, 75 and 191 takes
_KEPT = 8


class WeightIndependenceFailure(RuntimeError):
    """Totals at distinct seeds disagreed.  This indicates a bug in the
    formulas or the enumeration, never bad user input."""


class ResamplingExhausted(RuntimeError):
    """Every weight vector a seed's lineage offered degenerated or repeated
    an earlier seed's, so no sum could be evaluated for that seed."""


class DimensionMismatch(InputError):
    """The insertions do not cut the moduli problem to dimension zero, so no
    weight-independent number exists."""


def sample_weights(seed: int, n: int, attempt: int = 0) -> WeightVector:
    """Deterministic admissible weights for projective ``n``-space.

    Draws ``n + 1`` pairwise-distinct integers from ``1..WEIGHT_BOUND`` with
    the stdlib generator seeded by ``(seed, attempt)``; the same pair always
    yields the same vector.  Bump ``attempt`` to stay in the same lineage
    while avoiding a degenerate specialization.  Raises
    :class:`~gwlocal.targets.InputError` unless all three are integers, not
    ``bool``, and ``n + 1`` weights fit in ``1..WEIGHT_BOUND``.
    """
    if not all(map(_is_integer, (seed, n, attempt))):
        raise InputError(f"seed, n and attempt must be integers, got {seed!r}, {n!r}, {attempt!r}")
    if n + 1 > WEIGHT_BOUND:
        raise InputError(
            f"n = {n} needs {n + 1} distinct weights, more than WEIGHT_BOUND = {WEIGHT_BOUND}"
        )
    rng = random.Random(1_000_003 * seed + attempt)
    return WeightVector(tuple(rng.sample(range(1, WEIGHT_BOUND + 1), n + 1)))


def _degenerate(weights: WeightVector, d: int) -> bool:
    """True if a tree of curve degree at most ``d`` has a vanishing
    denominator factor at ``weights``, in either sum; monotone in ``d``.

    Such a factor involves three fixed points with weights ``a < m < b``:
    an edge of degree ``de`` from ``a`` to ``b`` meets ``m`` when
    ``c*b + (de - c)*a = de*m`` for some ``0 < c < de``, and the
    reciprocal flag weights of a valence-2 vertex at ``m`` with flags of
    degrees ``e_a`` and ``e_b`` towards ``a`` and ``b`` cancel when
    ``e_a / (m - a) = e_b / (b - m)``.  The least such ``de`` and
    ``e_a + e_b`` are both ``(b - a) / gcd(m - a, b - m)``, and each such
    edge and vertex occurs in some tree of every degree at least that.
    """
    return any(
        (b - a) // gcd(m - a, b - m) <= d for a, m, b in combinations(sorted(weights.weights), 3)
    )


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

    Preconditions: the target is balanced, its insertion codimensions
    totalling :func:`required_insertion_total`, and the vector is not
    :func:`_degenerate` at the degrees of the trees summed
    (:func:`sum_invariant` enforces both); a degenerate vector's vanishing
    factor raises ``ZeroDivisionError`` and never yields a value.
    Every factor is an integer numerator and denominator at the integer
    weights ``p``, and the class sum makes each slice of trees one
    ``Fraction`` at the end, reduced once instead of once per multiply or
    per tree.

    Edge factors recur across trees, so each one, whole, is memoized as an
    integer numerator and denominator, with the edge's two integer flags,
    under both orders of its (label, label, degree); it carries the
    division by its ends' hypersurface bases ``B_i * B_j`` that the vertex
    factors ``T_i^2 R_v^(val-3) / B_i^(val-1)`` would otherwise make.
    Everything else both sums need per label is one family of integer
    tables, computed once: the cofactors ``T_i / (p_i - p_j)``, with ``T_i``
    the tangent product, that put every reciprocal flag sum over ``T_i``,
    the vertex constants ``T_i^2 * B_i``, and each insertion power's mark
    coefficients over the common denominator ``L``, the lcm of the
    ``T_i``.  :meth:`classes_total` sums a slice of unmarked trees, dividing
    by the marks' ``L^k`` once; :meth:`shape_value` sums every labelling of
    one shape from the same edge memo and tables, and shares the tables of
    equal subtrees across shapes.

    An instance depends on its weights, hypersurface degrees and insertions
    alone, so one serves every curve degree (see the module docstring).
    Concurrent calls that share an instance stay exact without a lock: its
    tables are fixed once built, and its memos only gain entries, each
    holding the one value its key determines.
    """

    def __init__(self, weights: WeightVector, degrees: tuple, insertions: tuple):
        self.p = weights.weights
        self.degrees = degrees
        # per label: the tangent product T_i = prod_{k != i} (p_i - p_k), and
        # T_i^2 * B_i, with B_i = prod_a a * p_i the hypersurface base, the
        # part of the vertex factor fixed by the label alone
        tangent = tuple(
            prod(pi - pk for k, pk in enumerate(self.p) if k != i) for i, pi in enumerate(self.p)
        )
        self._vertex = tuple(
            ti * ti * prod(a * pi for a in degrees) for pi, ti in zip(self.p, tangent)
        )
        # [i][j]: the cofactor T_i / (p_i - p_j), an integer; a flag of degree
        # de at label i towards label j has reciprocal weight de * [i][j] / T_i
        self._cofactor = tuple(
            tuple(ti // (pi - pj) if i != j else 0 for j, pj in enumerate(self.p))
            for i, (pi, ti) in enumerate(zip(self.p, tangent))
        )
        # per distinct insertion power w: p_i^w * L / T_i per label, and the
        # number of marks of that power; L^k is the marks' common denominator
        common = lcm(*tangent)
        scales = [common // ti for ti in tangent]
        self._mark_coefficients = tuple(
            (tuple(pi**w * si for pi, si in zip(self.p, scales)), insertions.count(w))
            for w in sorted(set(insertions))
        )
        self._mark_denominator = common ** len(insertions)
        self._edges = {}
        self._branch_tables = {}

    def _edge(self, i, j, de):
        # (flag_i, flag_j, num, den) for an edge of degree de from label i to
        # label j: the integers de * cof[i][j] and de * cof[j][i], its ends'
        # reciprocal flag weights over T_i and T_j, and the edge factor
        # num / den: -de / (p_i - p_j)^2, the division by both flag weights
        # with one de of the symmetry divisor, times prod_a bundle * normal
        # over B_i * B_j, the ends' hypersurface bases that the vertex
        # factors leave to the edges.  The bases are the c = 0 and c = a*de
        # factors a * p_j and a * p_i of the hypersurface-section weights,
        # so what remains of those is
        #   bundle = prod_{c=1..a*de-1} (c*p_i + (a*de - c)*p_j) / de
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
            for a in self.degrees:
                m = a * de
                for c in range(1, m):
                    num *= c * pi + (m - c) * pj
                den *= de ** (m - 1)
            for k, pk in enumerate(self.p):
                if k != i and k != j:
                    for c in range(de + 1):
                        den *= c * pi + (de - c) * pj - de * pk
            flag_i, flag_j = de * self._cofactor[i][j], de * self._cofactor[j][i]
            value = self._edges[key] = (flag_i, flag_j, num, den)
            self._edges[j, i, de] = (flag_j, flag_i, num, den)
        return value

    def _class_term(self, graph):
        # (num, den) with num / den the tree's term, summed over the
        # placements of the marks, times the mark denominator L^k; at a
        # vertex labelled i with flag sum R_v / T_i, num and den carry
        # T_i^2 * B_i * R_v^(val-3), and the edge factors the rest of the
        # vertex factor, 1 / B_i per flag
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
        for label, val, r in zip(labels, valence, flag):
            num *= self._vertex[label]
            if val > 3:
                num *= r ** (val - 3)
            elif val < 3:
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
        vertex factor is ``T_i^2 R_v^(val-3) / B_i^(val-1)``, its bases
        carried by the edge factors and ``T_i^2 B_i`` by the vertex, and a
        mark's vertex sum of power ``w`` is ``sum_v R_v p_i^w (L / T_i)``
        over ``L = lcm(T_0, ..., T_n)``.  The marks' denominator ``L^k`` is
        the same for every tree, so the trees' integer terms are added over
        the running lcm of their denominators, one ``gcd`` per tree, and
        divided by ``L^k`` in the slice's one ``Fraction``.  At a
        :func:`_degenerate` vector a vanishing factor zeroes that lcm, and
        the ``Fraction`` raises ``ZeroDivisionError``.
        """
        num, den = 0, 1
        for graph in graphs:
            term_num, term_den = self._class_term(graph)
            g = gcd(den, term_den)
            num = num * (term_den // g) + term_num * (den // g)
            den *= term_den // g
        return Fraction(num, den * self._mark_denominator)

    def _vertex_sum(self, label, rest):
        # the vertex part T_i^2 B_i (r + sum_f R_f)^(val-3) of _class_term
        # at a vertex labelled i, summed over the labels behind
        # all of its flags but one, as a function of the integer
        # r = de * cof[i][j] of that remaining flag: rest lists the branches
        # behind the others, and a branch of degree de_f whose root is
        # labelled c has R_f = de_f * cof[i][c]
        scale = self._vertex[label]
        cofactors = self._cofactor[label]
        if not rest:
            return lambda r: Fraction(scale, r * r)
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
                    total += value / (r + flag)
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
        # its root's vertex part and everything below; None on the
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
        vertex part and everything below it.  Every factor is the one
        :meth:`classes_total` multiplies in, read from the same tables: the
        memoized edge factors, and the vertex part ``T_i^2 B_i R_v^(val-3)``
        with ``R_v`` the sum of the integer flags ``de * T_i / (p_i - p_j)``.
        Every edge and valence-2 vertex of a tree of the shape's degree is
        evaluated at every labelling, so a vector :func:`_degenerate` at that
        degree raises ``ZeroDivisionError`` here as in the class sum.
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


# "shared": the slice method, its items, the target and the slice count of
# the call a pool worker serves; set once per worker by the pool's
# initializer, never in the calling process
_worker = {}


def _init_worker(shared):
    _worker["shared"] = shared


_evaluator = lru_cache(maxsize=_KEPT)(_Evaluator)


def _slice_total(shared, task):
    """Sum over one slice of the items at one weight vector, with this
    process's kept evaluator of it (see the module docstring)."""
    term, items, target, slice_count = shared
    weights, index = task
    evaluator = _evaluator(weights, target.degrees, target.insertions)
    return term(evaluator, items[index::slice_count])


def _pooled_slice_total(task):
    return _slice_total(_worker["shared"], task)


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


def _totals_at(shared, candidates):
    """Totals of the ``(term, items, target, slice_count)`` of ``shared`` at
    each weight vector in ``candidates``, none of them :func:`_degenerate`
    at the target's curve degree.

    Each candidate is evaluated as ``slice_count`` slices of the items: with
    one slice, here, through the builtin ``map``; with more, in one ``map``
    by a pool of ``slice_count`` worker processes, opened here and shut down
    before this returns, whose workers got ``shared`` once, through its
    initializer, so a task carries only a weight vector and a slice index.
    """
    slice_count = shared[-1]
    tasks = [(weights, index) for weights in candidates for index in range(slice_count)]
    if slice_count == 1:
        partials = list(map(partial(_slice_total, shared), tasks))
    else:
        with ProcessPoolExecutor(slice_count, initializer=_init_worker, initargs=(shared,)) as pool:
            partials = list(pool.map(_pooled_slice_total, tasks))
    return [
        sum(partials[start : start + slice_count], Fraction(0))
        for start in range(0, len(partials), slice_count)
    ]


def sum_invariant(target: CITarget, seeds=(1, 2, 3), jobs: int = 1) -> EngineResult:
    """Genus-zero invariant of ``target`` as an exact rational.

    Lists the terms of the fixed-point sum once, evaluates the sum at one
    weight vector per seed, and requires the per-seed totals to agree
    exactly; the certified common value is returned.  A target with
    insertions is summed over its tree classes; one without is summed over
    its degree-decorated shapes, each shape's labellings at once, and its
    classes are counted but never listed (see :func:`_summands`).
    ``graph_count`` is the number of classes either way.

    The vectors are chosen first: each seed in order walks its
    ``(seed, attempt)`` draws from attempt 0, past any that is
    :func:`_degenerate` at the curve degree or repeats an earlier seed's
    vector.  They are then evaluated in one batch: with ``jobs > 1`` and at
    least ``2·jobs`` classes or shapes, by one pool of worker processes in
    one ``map``, each vector split into ``jobs`` slices of them.  The pool
    machinery is imported only when a call opens a pool.  Exact addition
    commutes, so the result is identical for any worker count, and for any
    evaluators kept from earlier calls (see the module docstring).

    Raises :class:`~gwlocal.targets.InputError` if ``jobs`` is not an
    integer of at least 1, a seed is not an integer, fewer than two seeds
    are given, two seeds are equal or a hypersurface factor is not
    positive (``bool`` is not accepted as an integer for ``jobs`` or a
    seed);
    :class:`DimensionMismatch` if the insertions do not cut the problem to
    dimension zero, :class:`ResamplingExhausted` if every weight vector a
    seed offers degenerates or repeats an earlier seed's (naming the first
    such seed), and :class:`WeightIndependenceFailure` if the per-seed
    totals disagree.
    """
    if not _is_integer(jobs) or jobs < 1:
        raise InputError(f"jobs must be a positive integer, got {jobs!r}")
    seeds = tuple(seeds)
    if not all(map(_is_integer, seeds)):
        raise InputError(f"seeds must be integers, got {seeds!r}")
    if len(seeds) < 2:
        raise InputError(f"need at least two seeds, got {seeds!r}")
    if len(set(seeds)) != len(seeds):
        raise InputError(f"seeds must be pairwise distinct, got {seeds!r}")
    if not positivity_check(target):
        raise InputError("target has a non-positive hypersurface factor")
    supplied = sum(target.insertions)
    needed = required_insertion_total(target)
    if supplied != needed:
        raise DimensionMismatch(
            f"insertion codimensions total {supplied} but the problem needs {needed}"
        )
    term, items, graph_count = _summands(target)
    n, d = target.ambient_dim, target.curve_degree
    chosen = {}  # weights -> vector, in seed order
    for seed in seeds:
        for attempt in range(_MAX_RESAMPLE):
            weights = sample_weights(seed, n, attempt)
            if weights.weights not in chosen and not _degenerate(weights, d):
                chosen[weights.weights] = weights
                break
        else:
            raise ResamplingExhausted(
                f"no admissible weights for seed {seed} after {_MAX_RESAMPLE} attempts"
            )
    slice_count = jobs if jobs > 1 and len(items) >= 2 * jobs else 1
    totals = _totals_at((term, items, target, slice_count), list(chosen.values()))
    if any(total != totals[0] for total in totals[1:]):
        raise WeightIndependenceFailure(
            f"seed totals disagree: {[str(t) for t in totals]} for seeds {seeds}"
        )
    return EngineResult(value=totals[0], graph_count=graph_count, weight_seeds=seeds)
