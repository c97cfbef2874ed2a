"""End-to-end acceptance checks, one test per shipped guarantee.

Every assertion here is exact; timing bounds use wall-clock seconds and are
generous compared to observed runtimes.
"""

import random
import time
from fractions import Fraction

import pytest

from gwlocal import (
    BPSTable,
    CITarget,
    DimensionQuery,
    bps0_from_gw0,
    bps1_from_gw1,
    enumerate_graphs,
    expected_dimension,
    genus1_from_reduced,
    gw0_from_bps0,
    gw1_from_bps,
    is_positive_system,
    lines_closed_form,
    load_table1,
    positivity_check,
    reproduce_table1,
    sample_weights,
    sum_invariant,
    wdvv_p2,
)

import reference_graphs
from oracles import count_labeled_decorated_trees, forward_gw1, orbit_sum

EXPECTED_GW0 = {
    1: Fraction(2875),
    2: Fraction(4876875, 8),
    3: Fraction(8564575000, 27),
    4: Fraction(15517926796875, 64),
}

TIME_BUDGETS = {1: 1.0, 2: 5.0, 3: 120.0, 4: 900.0}


@pytest.fixture(scope="module")
def quintic():
    """Engine results and wall times for the quintic threefold, degrees 1..4,
    at the default seed triple."""
    results, elapsed = {}, {}
    for d in range(1, 5):
        start = time.perf_counter()
        results[d] = sum_invariant(CITarget(4, (5,), d))
        elapsed[d] = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_quintic_low_degrees(quintic):
    results, elapsed = quintic
    ref = load_table1()
    for d in (1, 2, 3):
        assert results[d].value == EXPECTED_GW0[d]
        # the pinned values re-derive from the published genus-one rows:
        # twelve times (genus-one invariant minus reduced term)
        assert results[d].value == 12 * (ref.genus1_gw[d] - ref.reduced_terms[d])
        assert elapsed[d] < TIME_BUDGETS[d], f"degree {d} took {elapsed[d]:.2f}s"
    print(
        "ACCEPTANCE 1: PASS - quintic degrees 1..3 exact "
        f"({elapsed[1]:.2f}s, {elapsed[2]:.2f}s, {elapsed[3]:.2f}s)"
    )


def test_criterion_2_reference_rows_regenerate(quintic):
    results, _elapsed = quintic
    ref = load_table1()
    rows = reproduce_table1(
        3, ref.reduced_terms, ref.genus1_gw, ref.genus1_bps, lambda d: results[d].value
    )
    assert [row.consistent for row in rows] == [True, True, True]
    # middle row from engine output plus the published reduced terms
    for d in (1, 2, 3):
        assert genus1_from_reduced(results[d].value, ref.reduced_terms[d]) == ref.genus1_gw[d]
        # equivalently, the reduced row regenerates from the other two
        assert ref.reduced_terms[d] == ref.genus1_gw[d] - results[d].value / 12
    # bottom row from the expansions, using engine-derived genus-zero counts
    bps0 = bps0_from_gw0({d: results[d].value for d in (1, 2, 3)})
    bps1 = bps1_from_gw1({d: ref.genus1_gw[d] for d in (1, 2, 3)}, bps0)
    assert [bps1[d] for d in (1, 2, 3)] == [0, 0, 609250]
    assert [ref.genus1_bps[d] for d in (1, 2, 3)] == [0, 0, 609250]
    print("ACCEPTANCE 2: PASS - reference rows for degrees 1..3 regenerated exactly")


def test_criterion_3_degree_four_audit(quintic):
    results, elapsed = quintic
    assert results[4].value == EXPECTED_GW0[4]
    assert elapsed[4] < TIME_BUDGETS[4], f"degree 4 took {elapsed[4]:.2f}s"
    ref = load_table1()
    rows = reproduce_table1(
        4, ref.reduced_terms, ref.genus1_gw, ref.genus1_bps, lambda d: results[d].value
    )
    flagged = rows[3]
    assert flagged.degree == 4
    assert not flagged.consistent
    corrected = Fraction(382833353125, 16)
    assert flagged.corrected_genus1_gw == corrected
    # route one: the reduced-term identity with the engine's genus-zero value
    route_reduced = results[4].value / 12 + ref.reduced_terms[4]
    # route two: the genus-one expansion with the published instanton number
    # and engine-derived genus-zero instanton numbers, summed independently
    bps0 = bps0_from_gw0({d: results[d].value for d in range(1, 5)})
    route_expansion = forward_gw1(
        dict(bps0.items()), {d: ref.genus1_bps[d] for d in range(1, 5)}
    )[4]
    assert route_reduced == route_expansion == corrected
    assert flagged.genus1_gw == Fraction(366163353125, 16) != corrected
    print(
        "ACCEPTANCE 3: PASS - degree-4 row flagged; both correction routes give "
        f"382833353125/16 (graph sum {elapsed[4]:.2f}s)"
    )


def test_criterion_4_weight_independence(quintic):
    results, _elapsed = quintic
    # the fixture already certified seeds (1, 2, 3); a disjoint triple must
    # land on the same exact rationals
    for d in range(1, 5):
        again = sum_invariant(CITarget(4, (5,), d), seeds=(11, 12, 13))
        assert again.weight_seeds == (11, 12, 13)
        assert again.value == results[d].value
        assert results[d].weight_seeds == (1, 2, 3)
    print("ACCEPTANCE 4: PASS - six distinct seeds agree exactly at every degree")


def test_criterion_5_line_counts_match_the_closed_form():
    expected = {
        (4, (5,)): 2875,
        (5, (3, 3)): 1053,
        (5, (2, 4)): 1280,
        (6, (2, 2, 3)): 720,
        (7, (2, 2, 2, 2)): 512,
    }
    seeds = (31, 32, 33)
    for (n, degrees), count in expected.items():
        result = sum_invariant(CITarget(n, degrees, 1), seeds=seeds)
        # degree-one specializations cannot degenerate, so the engine used
        # exactly these vectors: the oracle shares its weights
        for seed in seeds:
            assert lines_closed_form(n, degrees, sample_weights(seed, n)) == result.value
        assert result.value.denominator == 1
        assert result.value == count
    print("ACCEPTANCE 5: PASS - tree sum equals the pair sum on all five targets")


def test_criterion_6_plane_curves_match_wdvv():
    start = time.perf_counter()
    recursion = wdvv_p2(3)
    engine = {}
    for d in (1, 2, 3):
        target = CITarget(2, (), d, (2,) * (3 * d - 1))
        engine[d] = sum_invariant(target).value
    elapsed = time.perf_counter() - start
    assert engine == {1: 1, 2: 1, 3: 12}
    assert engine == recursion
    assert elapsed < 60, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 6: PASS - localization and associativity agree ({elapsed:.2f}s)")


def test_criterion_7_multiple_cover_round_trips():
    rng = random.Random(99173)

    def random_table(size):
        return {
            d: Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**4))
            for d in range(1, size + 1)
        }

    for _trial in range(100):
        size = rng.randint(1, 6)
        t0, t1 = random_table(size), random_table(size)
        assert bps0_from_gw0(gw0_from_bps0(BPSTable(0, t0))).entries == t0
        gw1 = gw1_from_bps(BPSTable(0, t0), BPSTable(1, t1))
        assert bps1_from_gw1(gw1, BPSTable(0, t0)).entries == t1
    print("ACCEPTANCE 7: PASS - 100 random tables round-trip at both genera")


def test_criterion_8_orbit_stabilizer_oracle():
    for n in range(1, 4):
        for d in range(1, 4):
            for k in range(3):
                total = orbit_sum(reference_graphs.classes(n, d, k))
                assert total.denominator == 1, (n, d, k)
                assert total == count_labeled_decorated_trees(n, d, k), (n, d, k)
    assert sum(1 for _ in enumerate_graphs(4, 1)) == 10
    assert sum(1 for _ in enumerate_graphs(4, 2)) == 60
    print("ACCEPTANCE 8: PASS - class enumeration matches brute force on the full grid")


def test_criterion_9_dimensions_and_positivity():
    for genus in (0, 1):
        assert expected_dimension(DimensionQuery(genus, 0, 0, 3)) == 0
    # twenty split systems, both verdicts represented
    degree_choices = [
        (0,), (1,), (2,), (5,), (0, 1), (1, 1), (2, 0), (2, 4), (3, 3), (2, 2, 3),
    ]
    cases = [(degrees, d) for degrees in degree_choices for d in (1, 2)]
    assert len(cases) == 20
    verdicts = {}
    for degrees, d in cases:
        target = CITarget(len(degrees) + 1, degrees, d)
        verdict = positivity_check(target)
        assert verdict == is_positive_system(degrees, d)
        # the definition, checked literally: every factor pairs positively
        # with every curve class of degree 1..d
        assert verdict == all(a * b > 0 for a in degrees for b in range(1, d + 1))
        verdicts[(degrees, d)] = verdict
    assert any(verdicts.values()) and not all(verdicts.values())
    print("ACCEPTANCE 9: PASS - dimension zero at both genera; 20-target truth table")
