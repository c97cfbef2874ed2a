"""
A census of torus-fixed loci
============================

Each fixed locus of the torus action on genus-zero stable maps to Pn is a
decorated tree: vertices sit at fixed points (labels 0..n) and edges cover
coordinate lines with some degree.  Marked points ride on vertices too, but
the engine sums them per vertex and enumerates only the unmarked trees; it
never sees individual curves.

The census counts isomorphism classes, and checks them against a count of
fully labeled trees by orbit-stabilizer: summing V!/|Aut| over classes must
reproduce the labeled total.
"""

from math import factorial

from gwlocal import enumerate_graphs

print("classes of decorated trees (no marks):")
print("d\\n " + "".join(f"{n:>8}" for n in range(1, 5)))
for d in range(1, 5):
    row = [sum(1 for _ in enumerate_graphs(n, d)) for n in range(1, 5)]
    print(f"{d}   " + "".join(f"{c:>8}" for c in row))

# the quintic's degree-4 sum runs over this many classes
count = sum(1 for _ in enumerate_graphs(4, 4))
print(f"\ndegree 4 in P4: {count} classes feed the graph sum")

print("\nsmallest nontrivial census, P1 and degree 2:")
graphs = list(enumerate_graphs(1, 2))
# each class as its vertex labels and its (vertex, vertex, degree) edges
for labels, edges, aut in sorted((g.labels, g.edges, g.aut_order) for g in graphs):
    print(f"  labels {labels}  edges {edges}  aut={aut}")

labeled = sum(factorial(len(g.labels)) // g.aut_order for g in graphs)
print(f"orbit-stabilizer: sum of V!/|Aut| = {labeled} labeled decorated trees")
# by hand: the degree-2 edge has distinct endpoint labels, so no symmetry
# and 2!/1 = 2 labeled copies; the paths 0-1-0 and 1-0-1 each carry a flip,
# 3!/2 = 3 copies apiece
assert labeled == 2 + 3 + 3
