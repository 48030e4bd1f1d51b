"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (powerset scans, full coloring
enumeration, a tiny DPLL solver) and shares no code path with the
implementations under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import numpy as np


def brute_force_density(n, k, edges) -> Fraction:
    """Max r-density by scanning ALL vertex subsets of [1..n]."""
    edges = [frozenset(e) for e in edges]
    if len(edges) == 0:
        return Fraction(0)
    if len(edges) == 1:
        return Fraction(1, k)
    best = None
    universe = range(1, n + 1)
    for size in range(k + 1, n + 1):
        for U in itertools.combinations(universe, size):
            uset = set(U)
            count = sum(1 for e in edges if e <= uset)
            if count >= 1:
                val = Fraction(count - 1, size - k)
                if best is None or val > best:
                    best = val
    assert best is not None
    return best


def naive_cliques(n, k, edges, t) -> list[tuple[int, ...]]:
    """All t-subsets of [1..n] whose k-subsets are all edges."""
    edge_set = {tuple(sorted(e)) for e in edges}
    out = []
    for W in itertools.combinations(range(1, n + 1), t):
        if all(b in edge_set for b in itertools.combinations(W, k)):
            out.append(W)
    return out


def powerset_minimal_covers(W, candidates, r):
    """All minimal non-trivial r-covers by full powerset scan.

    Returns a set of frozensets of member tuples.
    """
    W = tuple(sorted(W))
    rsubs = [frozenset(b) for b in itertools.combinations(W, r)]
    cands = sorted({tuple(sorted(set(c))) for c in candidates})

    def covers(family):
        return all(any(b <= frozenset(a) for a in family) for b in rsubs)

    all_covers = []
    for size in range(2, len(cands) + 1):
        for family in itertools.combinations(cands, size):
            if covers(family):
                all_covers.append(frozenset(family))
    minimal = set()
    for fam in all_covers:
        if not any(other < fam for other in all_covers):
            minimal.add(fam)
    return minimal


def walk_unrank_subset(rank, n, k):
    """The rank-th k-subset of 1..n in lexicographic order, by walking
    v = 1..n and skipping the C(n - v, k - 1) subsets that start at v."""
    out = []
    v = 1
    while k > 0:
        c = comb(n - v, k - 1)
        if rank < c:
            out.append(v)
            k -= 1
        else:
            rank -= c
        v += 1
    return tuple(out)


def naive_linearity_pairs(edges, r):
    """All-pairs scan for edge pairs sharing >= r vertices."""
    out = set()
    edges = sorted(tuple(sorted(e)) for e in edges)
    for a, b in itertools.combinations(edges, 2):
        if len(set(a) & set(b)) >= r:
            out.add((a, b))
    return sorted(out)


def naive_conformality(n, edges, r, t):
    """All-t-subsets scan for conformality violations.

    Returns {W: set of minimal non-trivial cover families (frozensets)}.
    """
    edges = [tuple(sorted(e)) for e in edges]
    edge_sets = [frozenset(e) for e in edges]
    out = {}
    for W in itertools.combinations(range(1, n + 1), t):
        wset = frozenset(W)
        covered = all(
            any(frozenset(b) <= es for es in edge_sets)
            for b in itertools.combinations(W, r)
        )
        if not covered:
            continue
        if any(wset <= es for es in edge_sets):
            continue
        fams = powerset_minimal_covers(W, edges, r)
        if fams:
            out[W] = fams
    return out


def count_good_colorings_graph(n, t_red, t_blue):
    """Number of 2-edge-colorings of K_n with no red K_{t_red} and no
    blue K_{t_blue}; vectorized over all 2^C(n,2) colorings."""
    edges = list(itertools.combinations(range(1, n + 1), 2))
    m = len(edges)
    index = {e: i for i, e in enumerate(edges)}
    colorings = np.arange(1 << m, dtype=np.uint64)
    bad = np.zeros(1 << m, dtype=bool)
    for W in itertools.combinations(range(1, n + 1), t_red):
        mask = np.uint64(sum(1 << index[b] for b in itertools.combinations(W, 2)))
        bad |= (colorings & mask) == mask  # all edges red (bit set = red)
    for W in itertools.combinations(range(1, n + 1), t_blue):
        mask = np.uint64(sum(1 << index[b] for b in itertools.combinations(W, 2)))
        bad |= (colorings & mask) == 0  # all edges blue
    return int((~bad).sum())


def exhaustive_good_coloring_exists(n, k, edges, targets):
    """Plain product scan over all colorings of the given edges.

    `targets` is a sequence of clique sizes, one per color.  Feasible
    only for a handful of edges."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    ell = len(targets)
    for colors in itertools.product(range(1, ell + 1), repeat=len(edges)):
        by_color = {c: set() for c in range(1, ell + 1)}
        for e, c in zip(edges, colors):
            by_color[c].add(e)
        good = True
        for c, t in enumerate(targets, start=1):
            if naive_cliques(n, k, by_color[c], t):
                good = False
                break
        if good:
            return True
    return False


def parse_dimacs(text):
    """Parse a DIMACS CNF string into (num_vars, clauses)."""
    num_vars = None
    clauses = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            _, fmt, nv, nc = line.split()
            assert fmt == "cnf"
            num_vars = int(nv)
            num_clauses = int(nc)
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert num_vars is not None and len(clauses) == num_clauses
    return num_vars, clauses


def dpll_satisfiable(num_vars, clauses):
    """Minimal DPLL with unit propagation; returns True iff satisfiable."""

    def simplify(clauses, lit):
        out = []
        for cl in clauses:
            if lit in cl:
                continue
            reduced = [x for x in cl if x != -lit]
            if not reduced:
                return None
            out.append(reduced)
        return out

    def solve(clauses):
        while True:
            units = [cl[0] for cl in clauses if len(cl) == 1]
            if not units:
                break
            clauses = simplify(clauses, units[0])
            if clauses is None:
                return False
        if not clauses:
            return True
        lit = clauses[0][0]
        for choice in (lit, -lit):
            reduced = simplify(clauses, choice)
            if reduced is not None and solve(reduced):
                return True
        return False

    return solve([list(cl) for cl in clauses])
