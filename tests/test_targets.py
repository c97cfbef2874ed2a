"""Domain types, predicates, and the dimension formula."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwlocal import (
    CITarget,
    DimensionQuery,
    WeightVector,
    expected_dimension,
    is_positive_system,
    positivity_check,
)
from gwlocal.targets import InputError, is_calabi_yau

from reference_evaluator import permuted, scaled

rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
)


class TestFractionCodec:
    # output cells are str(Fraction) and table fields are parsed by
    # Fraction(field), so the two must agree on "n" and "n/d"
    def test_integer_renders_without_slash(self):
        assert str(Fraction(2875)) == "2875"

    def test_proper_fraction_renders_with_slash(self):
        assert str(Fraction(4876875, 8)) == "4876875/8"

    def test_parse_both_forms(self):
        assert Fraction("2875") == 2875
        assert Fraction(" -49355000/81\t") == Fraction(-49355000, 81)

    @given(rationals)
    def test_round_trip(self, q):
        assert Fraction(str(q)) == q

    @given(rationals, rationals)
    def test_add_sub_cancel(self, a, b):
        assert (a + b) - b == a

    @given(rationals, rationals.filter(lambda q: q != 0))
    def test_mul_div_cancel(self, a, b):
        assert (a * b) / b == a

    @given(rationals)
    def test_lowest_terms(self, q):
        from math import gcd

        assert gcd(abs(q.numerator), q.denominator) == 1
        assert q.denominator > 0


class TestCITarget:
    def test_quintic_constructs(self):
        t = CITarget(4, (5,), 1)
        assert t.degrees == (5,)
        assert t.insertions == ()

    def test_insertions_coerced(self):
        t = CITarget(2, (), 1, [2, 2])
        assert t.insertions == (2, 2)

    def test_too_many_factors_rejected(self):
        # complete intersection must have positive dimension: m < n
        with pytest.raises(ValueError):
            CITarget(2, (2, 2), 1)

    def test_bad_ambient_dim_rejected(self):
        with pytest.raises(InputError, match="ambient dimension"):
            CITarget(0, (), 1)

    def test_bad_curve_degree_rejected(self):
        with pytest.raises(ValueError):
            CITarget(4, (5,), 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            CITarget(4, (-1,), 1)

    def test_non_integral_degrees_rejected(self):
        # int() would truncate 5.7 to a quintic and 2.9 to a codimension-2
        # insertion
        with pytest.raises(ValueError):
            CITarget(4, (5.7,), 1)
        with pytest.raises(ValueError):
            CITarget(4, (5.0,), 1)
        with pytest.raises(ValueError):
            CITarget(2, (), 1, (2.9, 2.2))
        with pytest.raises(ValueError):
            CITarget(4, (5,), 1.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((True, ()), "ambient dimension"),
            ((4, (True,)), "hypersurface degrees"),
            ((4, (5,), True), "curve degree"),
            ((1, (), 1, (True, True)), "insertion power"),
        ],
        ids=["ambient_dim", "degrees", "curve_degree", "insertions"],
    )
    def test_bool_fields_rejected(self, args, message):
        # True is an int to isinstance: CITarget(4, (5,), True) was summed
        # as the quintic's lines, 2875
        with pytest.raises(InputError, match=message):
            CITarget(*args)

    def test_degree_zero_constructible(self):
        # needed so the positivity predicate's false branch is reachable
        assert not positivity_check(CITarget(4, (0,), 1))

    def test_insertion_power_bounds(self):
        CITarget(4, (5,), 1, (0, 4))
        with pytest.raises(ValueError):
            CITarget(4, (5,), 1, (5,))
        with pytest.raises(ValueError, match="must be a nonnegative integer, got -1"):
            CITarget(4, (5,), 1, (-1,))


class TestWeightVector:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            WeightVector((1, 1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector((0, 1, 2))
        with pytest.raises(ValueError):
            WeightVector((-1, 1, 2))

    def test_rejects_bool(self):
        # True == 1, so this was read as the weights (1, 2, 3)
        with pytest.raises(InputError, match="not bool"):
            WeightVector((True, 2, 3))

    @pytest.mark.parametrize(
        "weights", [(Fraction(1, 2), 1, 2), (Fraction(1), 2, 3), (1.0, 2, 3), (1, 2, 3.5)]
    )
    def test_rejects_non_integers(self, weights):
        with pytest.raises(InputError, match="weights must be integers"):
            WeightVector(weights)

    def test_rejects_too_short(self):
        with pytest.raises(ValueError):
            WeightVector((1,))

    def test_indexing_and_ambient_dim(self):
        w = WeightVector((1, 2, 7))
        assert w.weights == (1, 2, 7)
        assert w.ambient_dim == 2

    def test_scaled(self):
        w = scaled(WeightVector((1, 2, 7)), 3)
        assert w.weights == (3, 6, 21)
        with pytest.raises(InputError):
            scaled(WeightVector((1, 2, 7)), Fraction(3, 5))

    def test_permuted(self):
        w = permuted(WeightVector((1, 2, 7)), (2, 0, 1))
        assert list(w.weights) == [7, 1, 2]


class TestCalabiYau:
    def test_quintic(self):
        assert is_calabi_yau(CITarget(4, (5,), 1))

    def test_bicubic(self):
        assert is_calabi_yau(CITarget(5, (3, 3), 1))

    def test_quartic_in_p4_is_not(self):
        assert not is_calabi_yau(CITarget(4, (4,), 1))


class TestPositivity:
    def test_quintic_positive(self):
        assert is_positive_system((5,), 3)

    def test_degree_zero_fails(self):
        assert not is_positive_system((0,), 1)

    def test_two_factor_positive(self):
        assert is_positive_system((2, 4), 2)

    def test_monotone_in_each_degree(self):
        # raising any factor never flips true -> false
        for degrees in [(0,), (1,), (2, 0), (1, 1), (3, 2, 1)]:
            for d in (1, 2, 3):
                before = is_positive_system(degrees, d)
                for slot in range(len(degrees)):
                    raised = tuple(
                        a + 1 if s == slot else a for s, a in enumerate(degrees)
                    )
                    if before:
                        assert is_positive_system(raised, d)


class TestExpectedDimension:
    def test_calabi_yau_threefold_genus_one(self):
        assert expected_dimension(DimensionQuery(1, 0, 0, 3)) == 0

    def test_genus_one_drops_the_dimension_term(self):
        assert expected_dimension(DimensionQuery(1, 2, 7, 3)) == 18
        for half_dim in (2, 3, 9):
            assert expected_dimension(DimensionQuery(1, 2, 7, half_dim)) == 18

    def test_twisted_degree_two_ambient(self):
        q = DimensionQuery(1, 0, 10, 4, bundle_c1_dot_A=10)
        assert expected_dimension(q) == 0

    def test_genus_bounds(self):
        with pytest.raises(InputError, match="genus must be 0 or 1"):
            DimensionQuery(2, 0, 0, 3)

    @pytest.mark.parametrize(
        "fields",
        [
            (0.0, 1, 6, 2),
            (0, 1.5, 6, 2),
            (0, 1, 6.5, 2),
            (0, 1, 6, 2.0),
            (0, 1, 6, 2, 1.5),
            (0, 1, Fraction(6), 2),
            (True, 1, 6, 2),
            (0, True, 6, 2),
            (0, 1, False, 2),
            (0, 1, 6, True),
            (0, 1, 6, 2, True),
        ],
    )
    def test_non_integer_fields_rejected(self, fields):
        # unchecked, (0, 1.5, 6, 2) gave the dimension 13.0, and bools are
        # ints to isinstance
        with pytest.raises(InputError, match="must be integers"):
            DimensionQuery(*fields)

    @given(
        st.integers(0, 1),
        st.integers(0, 20),
        st.integers(-50, 50),
        st.integers(1, 10),
    )
    def test_linear_in_marks_with_slope_two(self, genus, marks, c1a, half_dim):
        base = expected_dimension(DimensionQuery(genus, marks, c1a, half_dim))
        bumped = expected_dimension(DimensionQuery(genus, marks + 1, c1a, half_dim))
        assert bumped - base == 2

    def test_calabi_yau_targets_have_dimension_zero(self):
        # each cut locus is a threefold with vanishing first Chern pairing
        for n, degrees in [(4, (5,)), (5, (3, 3)), (5, (2, 4)), (6, (2, 2, 3)), (7, (2, 2, 2, 2))]:
            target = CITarget(n, degrees, 2)
            assert is_calabi_yau(target)
            assert n - len(degrees) == 3
            c1a = target.curve_degree * (n + 1 - sum(degrees))
            for genus in (0, 1):
                assert expected_dimension(DimensionQuery(genus, 0, c1a, 3)) == 0
