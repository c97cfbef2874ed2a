"""
Lines on Calabi-Yau complete intersections
==========================================

For five classical threefolds cut out of projective space, the degree-one
invariant (the number of lines) comes out of two unrelated computations:

  * the tree sum over torus fixed loci, and
  * a direct pair sum over fixed points of the ambient space.

The script evaluates both at the same random integer weights and prints the
shared integers.  2875 is the famous count of lines on the quintic; the
others are its complete-intersection cousins.
"""

from gwlocal import CITarget, lines_closed_form, sample_weights, sum_invariant

TARGETS = [
    (4, (5,), "quintic in P4"),
    (5, (3, 3), "bicubic in P5"),
    (5, (2, 4), "quadric-quartic in P5"),
    (6, (2, 2, 3), "(2,2,3) in P6"),
    (7, (2, 2, 2, 2), "four quadrics in P7"),
]

seeds = (31, 32, 33)
for n, degrees, name in TARGETS:
    engine = sum_invariant(CITarget(n, degrees, 1), seeds=seeds)
    oracle_values = {lines_closed_form(n, degrees, sample_weights(s, n)) for s in seeds}
    assert oracle_values == {engine.value}
    assert engine.value.denominator == 1
    print(f"{name:24s} lines = {engine.value}  (pair sum agrees at 3 weight vectors)")
