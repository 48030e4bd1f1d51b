"""End-to-end witness construction.

Goal: an r-graph that does NOT arrow (K_3, K_3), built as the primal
graph of a cleaned random 5-graph.  Every surviving 5-edge spans a
K_5 block in the primal graph; 2-linearity lets a fixed good coloring
of K_5 (the pentagon) be transported block by block, and conformality
forces every primal triangle inside a single block, where the pentagon
coloring has no monochromatic triangle.  The certificate is checked by
brute force.
"""

import itertools

from ramseykit import (
    TargetList,
    base_coloring_search,
    clean,
    complete_hypergraph,
    count_mono_clique_copies,
    lift_coloring,
    parse_probability,
    sample_hypergraph,
    verify_good_coloring,
)

n, s, r, t = 1000, 5, 2, 3
targets = TargetList(r, (3, 3))
p = parse_probability("n^-3.8", n)

print(f"1. sample H(n={n}, s={s}) at p = n^-3.8 ~ {float(p):.2e}")
H = sample_hypergraph(n, s, p, seed=7)
print(f"   {H.num_edges} edges")

print("2. clean: delete one edge per bad configuration")
report = clean(H, r, t)
H0 = report.result
print(f"   {report.num_linearity_violations} overlap pairs, "
      f"{report.num_cover_violations} cover violations, "
      f"deleted {len(report.deleted)}; survivor has {H0.num_edges} edges")

print("3. base coloring: a good 2-coloring of K_5 (row-lex search)")
base = base_coloring_search(s, targets)
print(f"   red class {base.color_class(1)} (a 5-cycle)")

print("4. lift through the order isomorphism of every 5-edge")
lifted = lift_coloring(H0, r, base)
G = lifted.host
print(f"   primal graph: {G.num_edges} edges on {len(G.support)} active vertices")

print("5. certify: no monochromatic triangle in either color")
check = verify_good_coloring(G, lifted, targets)
assert check, check
for color in (1, 2):
    assert count_mono_clique_copies(lifted, color, 3) == 0
# independent brute force over all vertex triples of the support
edge_set = G.edge_set
colors = lifted.assignment
for a, b, c in itertools.combinations(G.support, 3):
    if (a, b) in edge_set and (a, c) in edge_set and (b, c) in edge_set:
        assert len({colors[(a, b)], colors[(a, c)], colors[(b, c)]}) > 1
print("   verified: the primal graph does not arrow (K_3, K_3)")

print("\nsanity: one extra vertex per block would be fatal, since K_6")
print("already arrows two triangles:")
from ramseykit import arrows_decision  # noqa: E402

print(f"   K_6 verdict: {arrows_decision(complete_hypergraph(6, 2), targets).verdict}")
