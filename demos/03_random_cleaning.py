"""Sampling H(n, s, p) and deleting the bad configurations.

Two configuration kinds break the primal construction: edge pairs
sharing >= r vertices, and minimal non-trivial r-covers of t-sets by
edges.  Deleting one edge per configuration leaves an r-linear,
(r, t)-conformal sub-hypergraph; in the sparse regime the deleted
fraction is tiny.  The exact expectation and its trace-cover bound show
why: the expected number of covers of a fixed t-set is far below
p * n^(s - t).
"""

from ramseykit import (
    clean,
    expected_cover_bound,
    parse_probability,
    run_trials,
    sample_hypergraph,
)

n, s, r, t = 400, 4, 2, 3
p = parse_probability("n^-2.9", n)
print(f"sampling H(n={n}, s={s}) at p = n^-2.9 ~ {float(p):.3e}")

H = sample_hypergraph(n, s, float(p), seed=2026)
report = clean(H, r, t)
print(f"one sample: {H.num_edges} edges, "
      f"{report.num_linearity_violations} overlap pairs, "
      f"{report.num_cover_violations} cover violations, "
      f"deleted {len(report.deleted)} -> survivor {report.result.num_edges} edges")
if report.deleted:
    print(f"  deleted edges: {list(report.deleted)[:4]} ...")

print("\n== 30 trials ==")
stats = run_trials(n, s, r, t, float(p), trials=30, master_seed=2026)
print(f"mean edges          {stats.mean_edges:9.3f}")
print(f"mean overlap pairs  {stats.mean_linearity_violations:9.3f}")
print(f"mean cover counts   {stats.mean_cover_violations:9.3f}")
print(f"mean deleted        {stats.mean_deleted:9.3f}"
      f"   (fraction {stats.mean_deleted_fraction:.4f})")
print(f"violations per edge {stats.violation_edge_ratio:9.5f}")

print("\nfirst trials (seed, e_H, X, Y, deleted, e_H0):")
for rec in stats.records[:3]:
    print(" ", rec.seed, rec.edges_sampled, rec.cover_violations,
          rec.linearity_violations, rec.deleted, rec.edges_clean)

print("\n== exact expectation and bound for covers of a fixed 3-set ==")
bound = expected_cover_bound(n, s, r, t, p)
print(f"trace covers: {bound.trace_count}")
print(f"exact     = E[X_W] = {float(bound.exact):.4e}")
print(f"bound     = {float(bound.total):.4e}")
print(f"reference = p * n^(s-t) = {float(bound.reference):.4e}")
print(f"ratio     = {float(bound.ratio):.5f}  (far below 1)")
