"""Weight sampling, per-tree contributions, and the certified graph sum."""

import gc
import sys
import threading
import weakref
from fractions import Fraction
from itertools import combinations

import pytest

from gwlocal import (
    CITarget,
    DimensionMismatch,
    FixedGraph,
    ResamplingExhausted,
    WeightIndependenceFailure,
    WeightVector,
    lines_closed_form,
    sample_weights,
    sum_invariant,
)
from gwlocal import localization
from gwlocal.localization import (
    _degenerate,
    _Evaluator,
    required_insertion_total,
    stable_map_dim,
)
from gwlocal.targets import InputError

import reference_graphs
from reference_evaluator import DegenerateWeights, ReferenceEvaluator, permuted, scaled


class TestSampleWeights:
    def test_deterministic(self):
        assert sample_weights(7, 4).weights == sample_weights(7, 4).weights

    def test_seeds_differ(self):
        assert sample_weights(1, 4).weights != sample_weights(2, 4).weights

    def test_attempts_differ(self):
        assert sample_weights(1, 4).weights != sample_weights(1, 4, attempt=1).weights

    @pytest.mark.parametrize("args", [(True, 4), (1, True), (1.5, 4), (1, 4, 2.0)])
    def test_bool_and_float_rejected(self, args):
        # True was drawn as seed 1 or as n = 1, and 1.5 seeded the generator
        with pytest.raises(InputError, match="seed, n and attempt must be integers"):
            sample_weights(*args)

    def test_entries_positive_distinct_bounded(self):
        for seed in range(1, 6):
            w = sample_weights(seed, 7)
            assert len(w.weights) == 8
            assert len(set(w.weights)) == 8
            for entry in w.weights:
                assert 0 < entry <= localization.WEIGHT_BOUND
                assert type(entry) is int

    def test_draws_are_the_generators_integers(self):
        # the weights are the integers the seeded generator draws, as drawn
        assert sample_weights(1, 4).weights == (8453, 5246, 8540, 2840, 8411)
        assert sample_weights(7, 2, attempt=3).weights == (8431, 3498, 6671)

    def test_more_weights_than_the_bound_rejected(self):
        # n + 1 distinct weights cannot come from 1..WEIGHT_BOUND; the largest
        # n that fits still draws
        bound = localization.WEIGHT_BOUND
        with pytest.raises(InputError, match=f"n = {bound} needs {bound + 1} distinct weights"):
            sample_weights(1, bound)
        assert sorted(sample_weights(1, bound - 1).weights) == list(range(1, bound + 1))


class TestDimensions:
    def test_stable_map_dim(self):
        # quintic ambient space, lines, no marks
        assert stable_map_dim(4, 1, 0) == 6
        # plane cubics with eight marks
        assert stable_map_dim(2, 3, 8) == 16

    def test_required_insertion_total(self):
        assert required_insertion_total(CITarget(4, (5,), 1)) == 0
        assert required_insertion_total(CITarget(4, (5,), 2)) == 0
        assert required_insertion_total(CITarget(2, (), 1, (2, 2))) == 4
        # one divisor insertion on the quintic is a balanced problem
        assert required_insertion_total(CITarget(4, (5,), 1, (1,))) == 1


class TestQuinticLines:
    def test_value_and_metadata(self):
        result = sum_invariant(CITarget(4, (5,), 1))
        assert result.value == 2875
        assert result.graph_count == 10
        assert result.weight_seeds == (1, 2, 3)

    def test_oracle_agrees_at_shared_weights(self):
        # degree-1 specializations cannot degenerate, so attempt index 0 is
        # exactly what the engine evaluated
        result = sum_invariant(CITarget(4, (5,), 1), seeds=(3, 4))
        for seed in (3, 4):
            w = sample_weights(seed, 4)
            assert lines_closed_form(4, (5,), w) == result.value

    def test_divisor_insertion(self):
        result = sum_invariant(CITarget(4, (5,), 1, (1,)))
        assert result.value == 2875


class TestQuinticDegreeFive:
    def test_mirror_formula_value(self):
        # the genus-zero degree-5 quintic number predicted by the mirror formula
        result = sum_invariant(CITarget(4, (5,), 5))
        assert result.value == 229305888887648
        assert result.graph_count == 18730


class TestQuinticDegreeSix:
    def test_multiple_cover_sum_of_published_instanton_numbers(self):
        # genus-zero instanton numbers of the quintic, Candelas, de la Ossa,
        # Green and Parkes (1991); N_6 = sum over k | 6 of n_(6/k) / k^3
        instantons = {1: 2875, 2: 609250, 3: 317206375, 6: 248249742118022000}
        expected = sum(Fraction(n, (6 // d) ** 3) for d, n in instantons.items())
        assert expected == 248249742157695375
        result = sum_invariant(CITarget(4, (5,), 6))
        assert result.value == expected
        assert result.graph_count == 153720


class TestSmallTargets:
    def test_p1_two_marked_points(self):
        result = sum_invariant(CITarget(1, (), 1, (1, 1)))
        assert result.value == 1
        assert result.graph_count == 1

    def test_p2_line_through_two_points(self):
        assert sum_invariant(CITarget(2, (), 1, (2, 2))).value == 1

    def test_single_edge_contribution_symmetric_in_endpoints(self):
        w = sample_weights(9, 4)
        target = CITarget(4, (5,), 1)
        a = FixedGraph((0, 3), ((0, 1, 1),), 1)
        b = FixedGraph((3, 0), ((0, 1, 1),), 1)
        evaluator = _Evaluator(w, target.degrees, target.insertions)
        assert evaluator.classes_total((a,)) == evaluator.classes_total((b,))


class TestMarkedVersusFactored:
    """The engine distributes marks by factoring; summing explicit marked
    classes with the independent reference evaluator must give the same
    total."""

    @pytest.mark.parametrize(
        "n, degrees, d, powers",
        [
            (1, (), 1, (1, 1)),
            (2, (), 2, (2, 2, 2, 2, 2)),
        ],
    )
    def test_agreement(self, n, degrees, d, powers):
        target = CITarget(n, degrees, d, powers)
        engine = sum_invariant(target, seeds=(2, 5)).value
        w = sample_weights(2, n)
        reference = ReferenceEvaluator(w, target)
        marked = sum(
            reference.marked_value(g)
            for g in reference_graphs.enumerate_graphs(n, d, len(powers))
        )
        assert marked == engine


class TestCovariance:
    def _total(self, target, weights):
        assert not _degenerate(weights, target.curve_degree), "weights degenerate"
        term, items, _count = localization._summands(target)
        (total,) = localization._totals_at((term, items, target, 1), [weights])
        return total

    def test_scaling_leaves_total_fixed(self):
        target = CITarget(4, (5,), 2)
        w = sample_weights(11, 4)
        assert self._total(target, w) == self._total(target, scaled(w, 7))

    def test_permutation_leaves_total_fixed(self):
        target = CITarget(2, (), 2, (2, 2, 2, 2, 2))
        w = sample_weights(11, 2)
        assert self._total(target, w) == self._total(target, permuted(w, (2, 0, 1)))


def _raises(reference, graphs):
    # whether the reference evaluator raises on one of graphs
    try:
        for graph in graphs:
            reference.summed_value(graph)
    except DegenerateWeights:
        return True
    return False


class TestDegeneracy:
    def test_meeting_a_third_fixed_point_raises(self):
        # degree-2 edge between labels 0 and 2 at weights (1,2,3):
        # the c=1 factor is 1 + 3 - 2*2 = 0, and no degree-1 edge meets a
        # fixed point
        graph = FixedGraph((0, 2), ((0, 1, 2),), 1)
        w = WeightVector((1, 2, 3))
        assert _degenerate(w, 2) and not _degenerate(w, 1)
        # the kernel's vanishing factor never yields a value
        with pytest.raises(ZeroDivisionError):
            _Evaluator(w, (), ()).classes_total((graph,))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_predicate_matches_reference(self, n):
        # every vector of n + 1 distinct integers from 1..7, at every scale:
        # _degenerate flags it at degree d exactly when the reference
        # evaluator raises on some class of degree d.  Its outcome does not
        # depend on the scale or the hypersurface, so each vector runs the
        # reference at one scale, with or without a hypersurface, in turn
        classes = {d: tuple(reference_graphs.classes(n, d, 0)) for d in range(1, 5)}
        scales = (1, 7, 97)
        turns = [(scale, degrees) for scale in scales for degrees in ((), (2,))]
        for i, values in enumerate(combinations(range(1, 8), n + 1)):
            scale, degrees = turns[i % len(turns)]
            base = WeightVector(values)
            reference = ReferenceEvaluator(scaled(base, scale), CITarget(n, degrees, 1))
            for d, graphs in classes.items():
                raises = _raises(reference, graphs)
                for other in scales:
                    assert _degenerate(scaled(base, other), d) == raises, (values, d)

    def test_draws_pinned(self, monkeypatch):
        # on the quintic at d=2 and d=3, every seed triple (s, s+1, s+2) for
        # s = 1, 4, ..., 298 draws only each seed's first vector but these
        # six, whose draws are those of an engine that found degeneracy by
        # evaluating each drawn vector
        resampled = {
            (2, 25): [(25, 0), (26, 0), (27, 0), (27, 1)],
            (2, 190): [(190, 0), (191, 0), (191, 1), (192, 0)],
            (3, 25): [(25, 0), (26, 0), (27, 0), (27, 1)],
            (3, 73): [(73, 0), (74, 0), (75, 0), (75, 1)],
            (3, 190): [(190, 0), (191, 0), (191, 1), (192, 0)],
            (3, 202): [(202, 0), (203, 0), (203, 1), (204, 0)],
        }
        values = {2: Fraction(4876875, 8), 3: Fraction(8564575000, 27)}
        real = localization.sample_weights
        calls = []

        def recorded(seed, n, attempt=0):
            calls.append((seed, attempt))
            return real(seed, n, attempt)

        monkeypatch.setattr(localization, "sample_weights", recorded)
        for d in (2, 3):
            for s in range(1, 299, 3):
                calls.clear()
                seeds = (s, s + 1, s + 2)
                assert sum_invariant(CITarget(4, (5,), d), seeds=seeds).value == values[d]
                first = [(seed, 0) for seed in seeds]
                assert sorted(calls) == resampled.get((d, s), first), (d, s)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_engine_retries_within_seed_lineage(self, monkeypatch, jobs):
        target = CITarget(2, (), 2, (2, 2, 2, 2, 2))
        baseline = sum_invariant(target, seeds=(1, 2)).value
        real = localization.sample_weights
        calls = []

        def crooked(seed, n, attempt=0):
            calls.append((seed, attempt))
            if seed == 1 and attempt == 0:
                return WeightVector((1, 2, 3))
            return real(seed, n, attempt)

        monkeypatch.setattr(localization, "sample_weights", crooked)
        result = sum_invariant(target, seeds=(1, 2), jobs=jobs)
        assert result.value == baseline
        # each (seed, attempt) is drawn once, so traced resample counts hold
        assert calls.count((1, 0)) == 1 and calls.count((1, 1)) == 1
        assert sorted(calls) == [(1, 0), (1, 1), (2, 0)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_seed_repeating_an_accepted_vector_moves_on(self, monkeypatch, jobs):
        target = CITarget(4, (5,), 2)
        real = localization.sample_weights
        calls = []

        def crooked(seed, n, attempt=0):
            calls.append((seed, attempt))
            if (seed, attempt) == (2, 0):
                return real(1, n, 0)
            return real(seed, n, attempt)

        monkeypatch.setattr(localization, "sample_weights", crooked)
        result = sum_invariant(target, jobs=jobs)
        assert result.value == Fraction(4876875, 8)
        assert sorted(calls) == [(1, 0), (2, 0), (2, 1), (3, 0)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sampled_weights_that_degenerate(self, monkeypatch, jobs):
        # no mock of the weights: on the quintic at d=4 the first vector of
        # each of these seeds degenerates, and so does seed 27's second
        real = localization.sample_weights
        real_pool = localization.ProcessPoolExecutor
        calls = []
        pools = []

        def recorded(seed, n, attempt=0):
            calls.append((seed, attempt))
            return real(seed, n, attempt)

        def counted_pool(*args, **kwargs):
            pools.append(real_pool(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(localization, "sample_weights", recorded)
        monkeypatch.setattr(localization, "ProcessPoolExecutor", counted_pool)
        result = sum_invariant(CITarget(4, (5,), 4), seeds=(27, 75, 191), jobs=jobs)
        assert result.value == Fraction(15517926796875, 64)
        assert sorted(calls) == [(27, 0), (27, 1), (27, 2), (75, 0), (75, 1), (191, 0), (191, 1)]
        # the three vectors taken are evaluated in one batch, by one pool
        assert len(pools) == (jobs > 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhaustion_names_the_first_seed_in_order(self, monkeypatch, jobs):
        # (a, 2a, 3a) meets a third fixed point on a degree-2 edge between
        # labels 0 and 2, as in the test above, for every a
        def degenerate(seed, n, attempt=0):
            a = 1 + attempt + 100 * seed
            return WeightVector((a, 2 * a, 3 * a))

        monkeypatch.setattr(localization, "sample_weights", degenerate)
        monkeypatch.setattr(localization, "_MAX_RESAMPLE", 3)
        with pytest.raises(ResamplingExhausted, match="seed 5 after 3 attempts"):
            sum_invariant(CITarget(2, (), 3, (2,) * 8), seeds=(5, 3), jobs=jobs)


class TestKeptEvaluators:
    """Each process keeps the ``_KEPT`` evaluators it used most recently, one
    per weight vector, hypersurface degrees and insertions, and a call
    reuses every one it evaluates again, at any curve degree, whether its
    seeds draw the vector first or by resampling; values, class counts and
    draws are those of a call with nothing kept."""

    @staticmethod
    def _recorded(monkeypatch):
        # the (seed, attempt) draws of the calls made after this
        real = localization.sample_weights
        calls = []

        def recorded(seed, n, attempt=0):
            calls.append((seed, attempt))
            return real(seed, n, attempt)

        monkeypatch.setattr(localization, "sample_weights", recorded)
        return calls

    @staticmethod
    def _isolated(target, seeds, calls):
        # value, class count and sorted draws of a call with nothing kept
        localization._evaluator.cache_clear()
        calls.clear()
        result = sum_invariant(target, seeds=seeds)
        return result.value, result.graph_count, sorted(calls)

    def test_degree_loop_builds_each_vector_once(self):
        memo = localization._evaluator
        memo.cache_clear()
        for d in range(1, 5):
            sum_invariant(CITarget(4, (5,), d), seeds=(1, 2, 3))
        assert (memo.cache_info().misses, memo.cache_info().currsize) == (3, 3)
        # a pooled call evaluates nothing here, so it leaves this process's
        # memo as it was
        kept = memo.cache_info()
        sum_invariant(CITarget(4, (5,), 3), seeds=(4, 5), jobs=2)
        assert memo.cache_info() == kept
        sum_invariant(CITarget(4, (5,), 2), seeds=(1, 2, 3))
        assert memo.cache_info().misses == 3

    def test_least_recently_used_is_rebuilt(self):
        # lines never degenerate, so each call takes its seeds' first draws:
        # two new vectors per call, more than _KEPT in all
        memo = localization._evaluator
        memo.cache_clear()
        target = CITarget(4, (5,), 1)
        pairs = [(2 * i + 1, 2 * i + 2) for i in range(localization._KEPT // 2 + 1)]
        for i, seeds in enumerate(pairs):
            sum_invariant(target, seeds=seeds)
            if i == 0:
                first = [weakref.ref(memo(sample_weights(s, 4), (5,), ())) for s in seeds]
        built = 2 * len(pairs)
        assert (memo.cache_info().misses, memo.cache_info().currsize) == (built, localization._KEPT)
        gc.collect()
        assert all(ref() is None for ref in first)
        sum_invariant(target, seeds=pairs[-1])
        assert memo.cache_info().misses == built
        sum_invariant(target, seeds=pairs[0])
        assert memo.cache_info().misses == built + 2

    def test_resampled_vectors_are_built_once(self):
        # seeds 27, 75 and 191 resample at several quintic degrees, and the
        # loop evaluates 7 distinct vectors 18 times over its 6 calls
        memo = localization._evaluator
        memo.cache_clear()
        for d in range(1, 7):
            sum_invariant(CITarget(4, (5,), d), seeds=(27, 75, 191))
        info = memo.cache_info()
        assert (info.hits + info.misses, info.misses, info.currsize) == (18, 7, 7)

    @pytest.mark.parametrize("seeds", [(1, 2, 3), (27, 75, 191)])
    def test_reuse_leaves_no_trace(self, monkeypatch, seeds):
        # seeds 27, 75 and 191 resample at several of these degrees; at
        # jobs=2, degree 3 and up opens a pool, whose workers keep their own
        calls = self._recorded(monkeypatch)
        for n, degrees, top in [(4, (5,), 4), (5, (3, 3), 3), (7, (2, 2, 2, 2), 2)]:
            targets = [CITarget(n, degrees, d) for d in range(1, top + 1)]
            isolated = {target: self._isolated(target, seeds, calls) for target in targets}
            for jobs in (1, 2):
                for loop in (targets, targets[::-1]):
                    localization._evaluator.cache_clear()
                    for target in loop:
                        calls.clear()
                        result = sum_invariant(target, seeds=seeds, jobs=jobs)
                        seen = result.value, result.graph_count, sorted(calls)
                        assert seen == isolated[target], (target, jobs)

    def test_degeneracy_survives_reuse(self, monkeypatch):
        # the first vectors of seeds 75 and 203 are admissible for the
        # quintic at d=2 and degenerate at d=3; kept from the d=2 call, they
        # must still degenerate, and the seeds resample as they do alone
        calls = self._recorded(monkeypatch)
        low, high = CITarget(4, (5,), 2), CITarget(4, (5,), 3)
        seeds = (75, 203)
        alone = self._isolated(high, seeds, calls)
        assert alone[2] == [(75, 0), (75, 1), (203, 0), (203, 1)]
        assert self._isolated(low, seeds, calls)[2] == [(75, 0), (203, 0)]
        memo = localization._evaluator
        assert memo.cache_info().currsize == 2
        calls.clear()
        result = sum_invariant(high, seeds=seeds)
        assert (result.value, result.graph_count, sorted(calls)) == alone
        # the d=3 call uses neither kept vector and builds the two it takes
        assert (memo.cache_info().misses, memo.cache_info().currsize) == (4, 4)


class TestDegreeFreeEvaluators:
    """Nothing an evaluator holds depends on the curve degree, so one whose
    memos were filled at any degree serves every other, alone or shared
    between threads."""

    @pytest.mark.parametrize(
        "low, high",
        [
            (CITarget(4, (5,), 1), CITarget(4, (5,), 5)),
            (CITarget(2, (), 1, (2,) * 11), CITarget(2, (), 4, (2,) * 11)),
        ],
        ids=["shapes", "classes"],
    )
    def test_built_at_degree_one(self, low, high):
        weights = sample_weights(1, high.ambient_dim)
        evaluator = _Evaluator(weights, high.degrees, high.insertions)
        term, items, _count = localization._summands(low)
        term(evaluator, items)
        term, items, _count = localization._summands(high)
        value = term(evaluator, items)
        assert value == term(_Evaluator(weights, high.degrees, high.insertions), items)
        assert value == {5: 229305888887648, 4: 620}[high.curve_degree]

    def test_concurrent_calls_share_evaluators(self):
        # each round's d=1 call leaves the evaluators of seeds 1-3 kept, and
        # eight threads, two per degree, then fill the same memos at once,
        # switching threads as often as the interpreter allows; no seed
        # resamples at d <= 5, so no thread builds an evaluator of its own.
        # A branch table stored in its memo before it is filled made some
        # round fail in each of 4 runs of this test
        isolated = {
            2: (Fraction(4876875, 8), 60),
            3: (Fraction(8564575000, 27), 350),
            4: (Fraction(15517926796875, 64), 2475),
            5: (229305888887648, 18730),
        }
        memo = localization._evaluator

        def call(d, copy):
            result = sum_invariant(CITarget(4, (5,), d), seeds=(1, 2, 3))
            results[d, copy] = result.value, result.graph_count

        for _round in range(3):
            memo.cache_clear()
            sum_invariant(CITarget(4, (5,), 1), seeds=(1, 2, 3))
            results = {}
            threads = [
                threading.Thread(target=call, args=(d, copy)) for d in isolated for copy in (0, 1)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert results == {(d, copy): isolated[d] for d in isolated for copy in (0, 1)}
            assert memo.cache_info().misses == 3


class TestCertification:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_weight_dependent_sum_is_refused(self, monkeypatch, jobs):
        # each sum skewed through the method its target runs: the quintic has
        # no insertions and is summed by shape (4 at d=3, enough for a pool
        # of 2), the plane cubics through 8 points by class (39), a slice of
        # classes at a time
        for method, target in [
            ("shape_value", CITarget(4, (5,), 3)),
            ("classes_total", CITarget(2, (), 3, (2,) * 8)),
        ]:
            real = getattr(_Evaluator, method)

            def skewed(self, item, real=real):
                return real(self, item) + Fraction(1, self.p[0])

            # patched before the call, so forked pool workers inherit it too
            with monkeypatch.context() as patch:
                patch.setattr(_Evaluator, method, skewed)
                with pytest.raises(WeightIndependenceFailure, match="seed totals disagree"):
                    sum_invariant(target, seeds=(1, 2), jobs=jobs)


class TestInputPolicing:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            sum_invariant(CITarget(4, (5,), 1, (2, 2)))
        with pytest.raises(DimensionMismatch):
            sum_invariant(CITarget(2, (), 1, (2,)))

    def test_seed_validation(self):
        with pytest.raises(InputError, match="need at least two seeds"):
            sum_invariant(CITarget(4, (5,), 1), seeds=(1,))
        # two distinct seeds are present, but one is repeated
        with pytest.raises(InputError, match="seeds must be pairwise distinct"):
            sum_invariant(CITarget(4, (5,), 1), seeds=(1, 1, 2))

    @pytest.mark.parametrize("seeds", [(True, 2), (1, False, 3)])
    def test_bool_seeds_rejected(self, seeds):
        # True and False are ints to isinstance; as seeds they would be
        # drawn as 1 and 0 and echoed back in weight_seeds
        with pytest.raises(InputError, match="seeds must be integers"):
            sum_invariant(CITarget(4, (5,), 1), seeds=seeds)

    @pytest.mark.parametrize("jobs", [True, False])
    def test_bool_jobs_rejected(self, jobs):
        with pytest.raises(InputError, match="jobs must be a positive integer"):
            sum_invariant(CITarget(4, (5,), 1), jobs=jobs)

    @pytest.mark.parametrize("seeds", [(1.5, 2.5, 3), (1.5, 1.7, 3)])
    def test_non_integral_seeds_rejected(self, seeds):
        # truncated, they would be the distinct seeds (1, 2, 3) in one case
        # and repeat seed 1 in the other
        with pytest.raises(ValueError, match="seeds must be integers"):
            sum_invariant(CITarget(4, (5,), 3), seeds=seeds)

    # at jobs=2.5 the quintic's 4 shapes at d=3 stay below the pool
    # threshold and its 9 at d=4 reach it
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("jobs", [2.5, 0, -2, 1.0])
    def test_jobs_must_be_a_positive_integer(self, d, jobs):
        with pytest.raises(InputError, match="jobs must be a positive integer"):
            sum_invariant(CITarget(4, (5,), d), jobs=jobs)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            sum_invariant(CITarget(4, (0,), 1))


class TestParallel:
    def test_worker_count_is_invisible(self):
        # the quintic at d=3 runs the shape sum, and plane cubics through 8
        # points the per-insertion vertex sums, inside the pool workers
        for target, value, classes in [
            (CITarget(4, (5,), 2), Fraction(4876875, 8), 60),
            (CITarget(4, (5,), 3), Fraction(8564575000, 27), 350),
            (CITarget(2, (), 3, (2,) * 8), 12, 39),
        ]:
            serial = sum_invariant(target, seeds=(1, 2))
            parallel = sum_invariant(target, seeds=(1, 2), jobs=2)
            assert serial.value == parallel.value == value
            assert serial.graph_count == parallel.graph_count == classes

    @pytest.mark.parametrize(
        "target, value, workers",
        [
            # 3 classes and 2 shapes, fewer than 2 * jobs: no pool
            (CITarget(2, (), 1, (2, 2)), 1, []),
            (CITarget(4, (5,), 2), Fraction(4876875, 8), []),
            # 4 shapes: one pool of jobs workers
            (CITarget(4, (5,), 3), Fraction(8564575000, 27), [2]),
        ],
        ids=["p2-lines-3-classes", "quintic-d2-2-shapes", "quintic-d3-4-shapes"],
    )
    def test_pool_opens_at_two_items_per_worker(self, monkeypatch, target, value, workers):
        real_pool = localization.ProcessPoolExecutor
        opened = []

        def counted_pool(max_workers, *args, **kwargs):
            opened.append(max_workers)
            return real_pool(max_workers, *args, **kwargs)

        monkeypatch.setattr(localization, "ProcessPoolExecutor", counted_pool)
        assert sum_invariant(target, seeds=(1, 2), jobs=2).value == value
        assert opened == workers


class TestLinesOracle:
    def test_matches_engine_for_several_complete_intersections(self):
        for n, degrees in [(4, (5,)), (5, (3, 3))]:
            target = CITarget(n, degrees, 1)
            result = sum_invariant(target, seeds=(21, 22))
            for seed in (21, 22):
                w = sample_weights(seed, n)
                assert lines_closed_form(n, degrees, w) == result.value
            assert result.value.denominator == 1

    def test_rejects_mismatched_weight_length(self):
        with pytest.raises(ValueError):
            lines_closed_form(4, (5,), sample_weights(1, 3))
