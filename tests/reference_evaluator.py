"""The engine's original per-graph evaluator, kept as a test-only reference.

This is the evaluator the package shipped before its arithmetic moved to
integer numerators and denominators: every factor is a ``Fraction`` and every
multiply reduces.  It is slow and obviously close to the formulas, which is
what a reference should be.  Tests compare it term by term with the package's
evaluator at shared weights; nothing in the package imports it.
"""

from fractions import Fraction
from math import factorial

from gwlocal.graphs import FixedGraph
from gwlocal.targets import CITarget, WeightVector

from reference_graphs import MarkedGraph


class DegenerateWeights(ArithmeticError):
    """A weight specialization made one of the reference's denominator
    factors vanish."""


class ReferenceEvaluator:
    """Evaluates tree contributions at one concrete weight vector.

    Edge factors recur across trees, so they are memoized per (pair, degree).
    Instances are cheap and process-local; each worker builds its own.
    """

    def __init__(self, weights: WeightVector, target: CITarget):
        if weights.ambient_dim != target.ambient_dim:
            raise ValueError("weight vector length does not match the ambient dimension")
        self.lam = tuple(map(Fraction, weights.weights))
        self.target = target
        self._bundle_memo = {}
        self._normal_memo = {}

    def _bundle_edge(self, a, i, j, de):
        # hypersurface-section weights along one edge:
        #   prod_{c=0..a*de} (c*lam_i + (a*de - c)*lam_j) / de
        if i > j:
            i, j = j, i
        key = (a, i, j, de)
        value = self._bundle_memo.get(key)
        if value is None:
            li, lj = self.lam[i], self.lam[j]
            m = a * de
            value = Fraction(1)
            for c in range(m + 1):
                value *= Fraction(c * li + (m - c) * lj, de)
            self._bundle_memo[key] = value
        return value

    def _normal_edge(self, i, j, de):
        # edge block of the inverse normal-bundle euler class:
        #   (-1)^de * de^(2de) / ((de!)^2 (lam_i - lam_j)^(2de))
        #   * prod_{k != i,j} prod_{c=0..de} de / (c*lam_i + (de-c)*lam_j - de*lam_k)
        if i > j:
            i, j = j, i
        key = (i, j, de)
        value = self._normal_memo.get(key)
        if value is None:
            li, lj = self.lam[i], self.lam[j]
            value = Fraction((-1) ** de * de ** (2 * de), factorial(de) ** 2)
            value /= (li - lj) ** (2 * de)
            for k, lk in enumerate(self.lam):
                if k == i or k == j:
                    continue
                for c in range(de + 1):
                    denominator = c * li + (de - c) * lj - de * lk
                    if denominator == 0:
                        raise DegenerateWeights(
                            f"edge ({i},{j}) of degree {de} met fixed point {k}"
                        )
                    value *= Fraction(de) / denominator
            self._normal_memo[key] = value
        return value

    def _geometry(self, graph: FixedGraph):
        # per vertex: edge valence, flag weights (lam_i - lam_j)/de, and the
        # sum of reciprocal flag weights
        nv = len(graph.labels)
        valence = [0] * nv
        flags = [[] for _ in range(nv)]
        for a, b, de in graph.edges:
            la = self.lam[graph.labels[a]]
            lb = self.lam[graph.labels[b]]
            omega = Fraction(la - lb, de)
            flags[a].append(omega)
            flags[b].append(-omega)
            valence[a] += 1
            valence[b] += 1
        recip_sums = [sum((1 / w for w in flag_list), Fraction(0)) for flag_list in flags]
        return valence, flags, recip_sums

    def _core(self, graph, valence, flags, recip_sums, mark_counts):
        # bundle euler class over the graph
        value = Fraction(1)
        for a in self.target.degrees:
            for u, v, de in graph.edges:
                value *= self._bundle_edge(a, graph.labels[u], graph.labels[v], de)
            for v, label in enumerate(graph.labels):
                value *= (a * self.lam[label]) ** (1 - valence[v])
        # vertex blocks of the inverse normal euler class
        for v, label in enumerate(graph.labels):
            lv = self.lam[label]
            tangent = Fraction(1)
            for k, lk in enumerate(self.lam):
                if k != label:
                    tangent *= lv - lk
            exponent = valence[v] + mark_counts[v] - 3
            recip = recip_sums[v]
            if recip == 0 and exponent < 0:
                raise DegenerateWeights(f"reciprocal flag weights at vertex {v} summed to zero")
            value *= tangent ** (valence[v] - 1)
            value *= recip**exponent
            for omega in flags[v]:
                value /= omega
        # edge blocks
        for u, v, de in graph.edges:
            value *= self._normal_edge(graph.labels[u], graph.labels[v], de)
        return value

    def _symmetry_divisor(self, graph):
        divisor = graph.aut_order
        for _u, _v, de in graph.edges:
            divisor *= de
        return divisor

    def marked_value(self, graph: MarkedGraph) -> Fraction:
        """Contribution of one tree carrying its marks explicitly."""
        insertions = self.target.insertions
        valence, flags, recip_sums = self._geometry(graph)
        mark_counts = [len(marks) for marks in graph.marks]
        value = self._core(graph, valence, flags, recip_sums, mark_counts)
        for label, marks in zip(graph.labels, graph.marks):
            for mark in marks:
                value *= self.lam[label] ** insertions[mark - 1]
        return value / self._symmetry_divisor(graph)

    def summed_value(self, graph: FixedGraph) -> Fraction:
        """Total of :meth:`marked_value` over all ways of placing the target's
        marks on an unmarked tree.

        Placing mark ``l`` at vertex ``v`` multiplies the unmarked
        contribution by ``recip_sums[v] * lam[label(v)] ** power(l)``, and the
        placements are independent, so the sum over placements factors into
        one vertex sum per mark.  Summing the factored form over unmarked
        classes weighted by ``1/aut`` equals summing the explicit form over
        marked classes (orbit counting), with enumeration cost independent of
        the mark count.
        """
        valence, flags, recip_sums = self._geometry(graph)
        value = self._core(graph, valence, flags, recip_sums, [0] * len(graph.labels))
        for power in self.target.insertions:
            vertex_sum = Fraction(0)
            for v, label in enumerate(graph.labels):
                vertex_sum += recip_sums[v] * self.lam[label] ** power
            value *= vertex_sum
        return value / self._symmetry_divisor(graph)


def permuted(weights: WeightVector, perm) -> WeightVector:
    """``weights`` rearranged so position ``i`` holds the old entry ``perm[i]``."""
    if sorted(perm) != list(range(len(weights.weights))):
        raise ValueError("not a permutation of the weight positions")
    return WeightVector(tuple(weights.weights[p] for p in perm))


def scaled(weights: WeightVector, factor: int) -> WeightVector:
    """``weights`` with every entry multiplied by the integer ``factor``."""
    return WeightVector(tuple(w * factor for w in weights.weights))
