"""Deciding arrowing relations and computing small Ramsey numbers.

G arrows (t_1, ..., t_l) when every l-edge-coloring of G yields a
monochromatic complete r-graph on t_i vertices in some color i.  The
backtracking search either exhausts the assignment tree (a proof of
arrowing) or returns a verified good coloring; on complete hosts it may
skip colorings whose adjacency rows are out of lex order, which every
coloring can be relabelled to avoid.  Larger instances export
to DIMACS CNF for external SAT solvers.
"""

from ramseykit import (
    TargetList,
    arrows_decision,
    complete_hypergraph,
    export_cnf,
    ramsey_number,
    verify_good_coloring,
)

targets = TargetList(2, (3, 3))

print("== complete graphs against two triangles ==")
for n in range(3, 7):
    G = complete_hypergraph(n, 2)
    result = arrows_decision(G, targets)
    line = f"K_{n}: {result.verdict:>10} ({result.nodes_explored} nodes)"
    if result.witness is not None:
        red = result.witness.color_class(1)
        line += f", witness red class {red}"
    print(line)

print("\n== Ramsey numbers from exhaustive search ==")
print(f"two triangles, graphs: R = {ramsey_number(targets, 8)}")
# triangle vs K_4: the search breaks vertex symmetry on complete graphs
# (rows of the colored adjacency matrix in lex order), so exhausting K_9
# takes about 9k nodes instead of 29M
mixed = TargetList(2, (3, 4))
print(f"triangle vs K_4, graphs: R = {ramsey_number(mixed, 9)}")
for n in (8, 9):
    res = arrows_decision(complete_hypergraph(n, 2), mixed)
    print(f"  K_{n}: {res.verdict} ({res.nodes_explored} nodes with row-lex pruning)")

print("\n== witness verification is exact ==")
G = complete_hypergraph(5, 2)
witness = arrows_decision(G, targets).witness
check = verify_good_coloring(G, witness, targets)
print(f"K_5 witness verified: {bool(check)}")

print("\n== DIMACS export for the unsat instance K_6 -> (3,3) ==")
text = export_cnf(complete_hypergraph(6, 2), targets)
lines = text.splitlines()
print("\n".join(lines[:3]))
print("  ...")
header = next(line for line in lines if line.startswith("p cnf"))
print(header, "  (satisfiable iff a good coloring exists)")
