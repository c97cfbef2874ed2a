"""Genus-one relations, instanton expansions, reference-table audit, WDVV."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwlocal import (
    BPSTable,
    bps0_from_gw0,
    bps1_from_gw1,
    genus1_from_reduced,
    gw0_from_bps0,
    gw1_from_bps,
    load_table1,
    reproduce_table1,
    wdvv_p2,
)
from gwlocal.relations import UnsupportedDimension, gw_difference, parse_degree_table
from gwlocal.targets import InputError

from oracles import forward_gw0, forward_gw1, kontsevich_manin

QUINTIC_GW0 = {
    1: Fraction(2875),
    2: Fraction(4876875, 8),
    3: Fraction(8564575000, 27),
    4: Fraction(15517926796875, 64),
}

rationals = st.fractions(
    min_value=Fraction(-(10**9)), max_value=Fraction(10**9), max_denominator=10**6
)


class TestGenusOneFromReduced:
    def test_degree_one(self):
        assert genus1_from_reduced(Fraction(2875), Fraction(0)) == Fraction(2875, 12)

    def test_degree_two(self):
        assert genus1_from_reduced(Fraction(4876875, 8), Fraction(2875, 32)) == Fraction(407125, 8)

    def test_zero(self):
        assert genus1_from_reduced(0, 0) == 0

    @pytest.mark.parametrize(
        "args, name",
        [((0.1, 0), "genus0_value"), ((True, 0), "genus0_value"), ((0, 0.5), "reduced_term")],
        ids=["float", "bool", "float-reduced"],
    )
    def test_inexact_arguments_rejected(self, args, name):
        # 0.1 was read as its binary expansion and True as 1
        with pytest.raises(InputError, match=f"{name} must be an exact rational"):
            genus1_from_reduced(*args)


class TestGwDifference:
    def test_surface_case_vanishes(self):
        assert gw_difference(4, 17, Fraction(355, 113)) == 0

    def test_threefold_calabi_yau(self):
        assert gw_difference(6, 0, Fraction(2875)) == Fraction(2875, 12)

    def test_threefold_coefficient_zero(self):
        assert gw_difference(6, 2, Fraction(999)) == 0

    def test_unsupported_dimensions(self):
        for dim in (2, 5, 8):
            with pytest.raises(UnsupportedDimension):
                gw_difference(dim, 0, Fraction(1))

    @pytest.mark.parametrize(
        "args, message",
        [
            ((6, 0.5, 1), "c1_pairing must be an exact rational"),  # was a TypeError
            ((6, 0, 2.0), "genus0_value must be an exact rational"),
            ((6, False, 1), "c1_pairing must be an exact rational"),
            ((4, 0, 0.5), "genus0_value must be an exact rational"),
            ((6.0, 0, 1), "real_dim must be an integer"),
            ((True, 0, 1), "real_dim must be an integer"),
            ((6, 0, None), "genus0_value: None is not an exact rational"),
        ],
    )
    def test_inexact_arguments_rejected(self, args, message):
        with pytest.raises(InputError, match=message):
            gw_difference(*args)

    @given(rationals)
    def test_agreement_of_the_two_genus_one_statements(self, x):
        # the threefold Calabi-Yau specialization and the reduced-term
        # identity assign the same correction x/12
        assert gw_difference(6, 0, x) == genus1_from_reduced(x, 0)


class TestBPSInversion:
    def test_degree_one_is_identity(self):
        assert bps0_from_gw0({1: Fraction(2875)})[1] == 2875

    def test_degree_two(self):
        table = bps0_from_gw0({d: QUINTIC_GW0[d] for d in (1, 2)})
        assert table[2] == 609250

    def test_degree_three(self):
        table = bps0_from_gw0({d: QUINTIC_GW0[d] for d in (1, 2, 3)})
        assert table[3] == 317206375

    def test_degree_four(self):
        assert bps0_from_gw0(QUINTIC_GW0)[4] == 242467530000

    def test_genus_one_low_degrees(self):
        bps0 = bps0_from_gw0({d: QUINTIC_GW0[d] for d in (1, 2, 3)})
        gw1 = {
            1: Fraction(2875, 12),
            2: Fraction(407125, 8),
            3: Fraction(243388750, 9),
        }
        table = bps1_from_gw1(gw1, bps0)
        assert [table[d] for d in (1, 2, 3)] == [0, 0, 609250]

    def test_forward_inverse_round_trip_against_oracle(self):
        rng = random.Random(414243)
        for _ in range(25):
            size = rng.randint(1, 6)
            t0 = {
                d: Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 999))
                for d in range(1, size + 1)
            }
            t1 = {
                d: Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 999))
                for d in range(1, size + 1)
            }
            bps0 = BPSTable(0, t0)
            bps1 = BPSTable(1, t1)
            # forward sums computed by an independent implementation
            assert gw0_from_bps0(bps0) == forward_gw0(t0)
            assert gw1_from_bps(bps0, bps1) == forward_gw1(t0, t1)
            assert bps0_from_gw0(forward_gw0(t0)).entries == t0
            assert bps1_from_gw1(forward_gw1(t0, t1), bps0).entries == t1


class TestBPSTable:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            BPSTable(0, {1: Fraction(1), 3: Fraction(1)})
        with pytest.raises(ValueError):
            BPSTable(0, {2: Fraction(1)})

    def test_genus_restricted(self):
        with pytest.raises(ValueError):
            BPSTable(2, {1: Fraction(1)})

    def test_accessors(self):
        table = BPSTable(0, {1: Fraction(5), 2: Fraction(7)})
        assert table.max_degree == 2
        assert table[2] == 7
        assert dict(table.items()) == {1: Fraction(5), 2: Fraction(7)}

    @pytest.mark.parametrize(
        "entries",
        [
            {1.0: 5, 2.5: 3},  # truncated, these would be degrees 1 and 2
            {1: 5, "2": 3},
            {1: 5, 2: 0.5},
        ],
    )
    def test_inexact_entries_rejected(self, entries):
        with pytest.raises(ValueError, match="integer degrees and exact values"):
            BPSTable(0, entries)

    @pytest.mark.parametrize(
        "build, value",
        [
            (lambda v: BPSTable(0, {1: v}), "x"),  # Fraction raises ValueError
            (lambda v: bps0_from_gw0({1: v}), None),  # TypeError
            (lambda v: bps1_from_gw1({1: v}, BPSTable(0, {1: 5})), "1/0"),  # ZeroDivisionError
        ],
        ids=["literal", "none", "zero-denominator"],
    )
    def test_unreadable_value_is_input_error(self, build, value):
        with pytest.raises(InputError, match=f"^degree 1: {re.escape(repr(value))} is not"):
            build(value)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: BPSTable(True, {1: 2875}), "genus must be 0 or 1"),
            (lambda: BPSTable(0, {True: 2875}), "integer degrees"),
            (lambda: bps0_from_gw0({True: 2875}), "integer degrees"),
        ],
        ids=["genus", "degree", "inversion-degree"],
    )
    def test_bool_is_not_an_integer(self, build, message):
        # True == 1, so each of these was read as genus or degree 1
        with pytest.raises(InputError, match=message):
            build()

    @pytest.mark.parametrize(
        "build",
        [lambda: BPSTable(0, {1: True}), lambda: bps0_from_gw0({1: True})],
        ids=["table", "inversion"],
    )
    def test_bool_is_not_a_value(self, build):
        # True == 1, so each of these stored the value 1
        with pytest.raises(InputError, match="exact values, got 1: True"):
            build()

    @pytest.mark.parametrize(
        "build, degree",
        [
            (lambda: bps0_from_gw0({0: 5, 1: 2875}), 0),
            (lambda: bps0_from_gw0({-3: 5}), -3),
            (lambda: BPSTable(1, {0: 7}), 0),
        ],
        ids=["zero-and-one", "negative", "zero"],
    )
    def test_nonpositive_degree_rejected(self, build, degree):
        # each of these dropped the degree, leaving {1: 2875} or no entry
        with pytest.raises(InputError, match=f"degree must be at least 1, got {degree}$"):
            build()

    def test_inversion_rejects_a_fractional_degree(self):
        with pytest.raises(ValueError, match="integer degrees"):
            bps0_from_gw0({1: 2875, 2.9: QUINTIC_GW0[2]})


class TestWDVV:
    def test_pinned_low_degrees(self):
        assert wdvv_p2(3) == {1: 1, 2: 1, 3: 12}

    def test_higher_degrees(self):
        table = wdvv_p2(5)
        assert table[4] == 620
        assert table[5] == 87304
        assert [kontsevich_manin(2, d, (2,) * (3 * d - 1)) for d in (4, 5)] == [620, 87304]

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(InputError, match="max degree must be at least 1"):
            wdvv_p2(0)

    @pytest.mark.parametrize("max_degree", [True, 2.5])
    @pytest.mark.parametrize(
        "build",
        [wdvv_p2, lambda d: reproduce_table1(d, {}, {}, {}, lambda _d: 0)],
        ids=["wdvv", "table1"],
    )
    def test_bool_and_float_bounds_rejected(self, build, max_degree):
        # True == 1 gave one degree, and 2.5 a TypeError from range
        with pytest.raises(InputError, match="max degree must be an integer"):
            build(max_degree)


class TestReferenceTable:
    def test_bundled_rows(self):
        ref = load_table1()
        assert ref.max_degree == 4
        assert ref.reduced_terms[1] == 0
        assert ref.reduced_terms[2] == Fraction(2875, 32)
        assert ref.genus1_gw[2] == Fraction(407125, 8)
        assert ref.genus1_gw[4] == Fraction(366163353125, 16)
        assert ref.genus1_bps[3] == 609250
        assert ref.genus1_bps[4] == 3721431625

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(
            "# comment lines are skipped\n1\t0\t2875/12\t0\n2\t2875/32\t407125/8\t0\n",
            encoding="ascii",
        )
        ref = load_table1(path)
        assert ref.max_degree == 2
        assert ref.genus1_gw[1] == Fraction(2875, 12)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "table.txt"
        for text, message in [
            ("1\t0\t2875/12\n", ":1: expected 4 fields"),
            ("1\t0\t2875/12\t0\t7\n", ":1: expected 4 fields"),
            ("1\t0\t2875/12\t0\n1\t0\t1\t0\n", ":2: degree 1 appears twice"),
            ("# header\n0\t0\t0\t0\n", ":2: degree must be at least 1"),
            ("2\t0\t0\t0\n", ": table is missing degree 1"),
        ]:
            path.write_text(text, encoding="ascii")
            with pytest.raises(ValueError, match=f"^{re.escape(str(path) + message)}"):
                load_table1(path)
        with pytest.raises(InputError, match="^t:1: expected 2 fields$"):
            parse_degree_table("1\n", "t")


class TestAudit:
    def _audit(self, max_degree):
        ref = load_table1()
        return reproduce_table1(
            max_degree,
            ref.reduced_terms,
            ref.genus1_gw,
            ref.genus1_bps,
            QUINTIC_GW0.__getitem__,
        )

    def test_low_degrees_consistent(self):
        rows = self._audit(3)
        assert [row.degree for row in rows] == [1, 2, 3]
        assert all(row.consistent for row in rows)
        assert all(row.corrected_genus1_gw is None for row in rows)
        assert rows[2].genus1_gw == Fraction(243388750, 9)

    def test_degree_four_flagged_and_corrected(self):
        row = self._audit(4)[3]
        assert not row.consistent
        assert row.corrected_genus1_gw == Fraction(382833353125, 16)
        assert row.genus0_gw == QUINTIC_GW0[4]

    def test_empty_audit(self):
        assert self._audit(0) == []

    def test_disagreeing_routes_refuse_to_correct(self):
        ref = load_table1()
        # poison the degree-4 instanton number so the expansion route no
        # longer lands on the reduced-term route's value
        bad_bps = dict(ref.genus1_bps)
        bad_bps[4] = bad_bps[4] + 1
        with pytest.raises(ValueError):
            reproduce_table1(
                4, ref.reduced_terms, ref.genus1_gw, bad_bps, QUINTIC_GW0.__getitem__
            )
