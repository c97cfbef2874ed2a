"""Weight sampling, per-tree contributions, and the certified graph sum."""

from fractions import Fraction

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
    DegenerateWeights,
    _Evaluator,
    required_insertion_total,
    stable_map_dim,
)
from gwlocal.targets import InputError

import reference_graphs
from reference_evaluator import ReferenceEvaluator, permuted, scaled


class TestSampleWeights:
    def test_deterministic(self):
        assert sample_weights(7, 4).weights == sample_weights(7, 4).weights

    def test_seeds_differ(self):
        assert sample_weights(1, 4).weights != sample_weights(2, 4).weights

    def test_attempts_differ(self):
        assert sample_weights(1, 4).weights != sample_weights(1, 4, attempt=1).weights

    def test_entries_positive_distinct_bounded(self):
        for seed in range(1, 6):
            w = sample_weights(seed, 7)
            assert len(w.weights) == 8
            assert len(set(w.weights)) == 8
            for entry in w.weights:
                assert 0 < entry <= localization.WEIGHT_BOUND
                assert entry.denominator == 1


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
        evaluator = _Evaluator(w, target)
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
        term, items, _count = localization._summands(target)
        (total,) = localization._totals_at((term, items, target, 1), [weights])
        assert total is not None, "weights degenerated"
        return total

    def test_scaling_leaves_total_fixed(self):
        target = CITarget(4, (5,), 2)
        w = sample_weights(11, 4)
        assert self._total(target, w) == self._total(target, scaled(w, Fraction(7, 3)))

    def test_permutation_leaves_total_fixed(self):
        target = CITarget(2, (), 2, (2, 2, 2, 2, 2))
        w = sample_weights(11, 2)
        assert self._total(target, w) == self._total(target, permuted(w, (2, 0, 1)))


class TestDegeneracy:
    def test_meeting_a_third_fixed_point_raises(self):
        # degree-2 edge between labels 0 and 2 at weights (1,2,3):
        # the c=1 factor is 1 + 3 - 2*2 = 0
        graph = FixedGraph((0, 2), ((0, 1, 2),), 1)
        w = WeightVector((1, 2, 3))
        with pytest.raises(DegenerateWeights):
            _Evaluator(w, CITarget(2, (), 2)).classes_total((graph,))

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
        # one pool serves the first batch and all four resampled vectors
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
        with pytest.raises(ValueError):
            sum_invariant(CITarget(4, (5,), 1), seeds=(1,))
        with pytest.raises(ValueError):
            sum_invariant(CITarget(4, (5,), 1), seeds=(1, 1, 2))

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
