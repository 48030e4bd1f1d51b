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


def brute_force_cover_expectation(n, s, r, t, p):
    """E[X_W] for W = [1..t] in H(n, s, p): p^|F| summed over every family
    F of s-subsets of [n] that is a minimal non-trivial r-cover of W.

    An s-set meeting W in fewer than r vertices covers no r-subset of W,
    and each member of a minimal cover covers an r-subset that no other
    member does, so only the s-sets meeting W in >= r vertices and only
    families of at most C(t, r) members can contribute.
    """
    W = set(range(1, t + 1))
    rsubs = [set(b) for b in itertools.combinations(sorted(W), r)]
    cands = [set(e) for e in itertools.combinations(range(1, n + 1), s)
             if len(W.intersection(e)) >= r]

    def covers(family):
        return all(any(b <= a for a in family) for b in rsubs)

    total = Fraction(0)
    for size in range(2, len(rsubs) + 1):
        for family in itertools.combinations(cands, size):
            if covers(family) and not any(
                covers(family[:i] + family[i + 1:]) for i in range(size)
            ):
                total += Fraction(p) ** size
    return total


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


def lex_first_good_coloring(n, k, edges, targets):
    """Plain product scan over all colorings of the given edges, sorted,
    in lexicographic order of their color tuples.

    `targets` is a sequence of clique sizes, one per color.  Returns the
    first coloring in which no color class holds its target clique, as
    {edge: color}, or None when every coloring does.  Feasible only for a
    handful of edges."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    index = {e: i for i, e in enumerate(edges)}
    cliques = [
        (color, [index[b] for b in itertools.combinations(W, k)])
        for color, t in enumerate(targets, start=1)
        for W in naive_cliques(n, k, edges, t)
    ]
    for colors in itertools.product(range(1, len(targets) + 1), repeat=len(edges)):
        if not any(all(colors[i] == color for i in ids) for color, ids in cliques):
            return dict(zip(edges, colors))
    return None


def row_lex_ordered(n, colors):
    """Whether, for every i < n, row i of the colored adjacency matrix of
    K_n is lexicographically at most row i+1, both read over the columns
    other than i and i+1.  `colors` maps each (a, b), a < b, to a color."""

    def entry(i, j):
        return colors[(min(i, j), max(i, j))]

    for i in range(1, n):
        cols = [j for j in range(1, n + 1) if j not in (i, i + 1)]
        if [entry(i, j) for j in cols] > [entry(i + 1, j) for j in cols]:
            return False
    return True


def row_lex_relabelling(n, colors):
    """A permutation `perm` of 1..n (vertex v becomes perm[v - 1]) under
    which the coloring of K_n is row-lex ordered, or None; tries all n!."""
    for perm in itertools.permutations(range(1, n + 1)):
        relabelled = {
            tuple(sorted((perm[a - 1], perm[b - 1]))): c for (a, b), c in colors.items()
        }
        if row_lex_ordered(n, relabelled):
            return perm
    return None


def row_lex_broken(n, colors):
    """Whether a partial coloring of K_n (unassigned pairs absent from
    `colors`) already breaks row_lex_ordered: some rows i, i+1 differ,
    over the columns other than i and i+1 read in increasing order, with
    row i larger at the first difference, before any unassigned entry."""
    for i in range(1, n):
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            a = colors.get((min(i, j), max(i, j)))
            b = colors.get((min(i + 1, j), max(i + 1, j)))
            if a is None or b is None or a < b:
                break
            if a > b:
                return True
    return False


def search_nodes(n, sizes, row_lex, edges=None):
    """The arrowing search on the graph on [n] with `edges` (default: all
    of K_n's, lexicographic) as (first full coloring or None, nodes
    visited): one node per color tried for an edge (edges in the order
    given, colors ascending), a color rejected when it completes a
    monochromatic target or, with `row_lex` (complete hosts only), when
    row_lex_broken holds; stops at the first full coloring."""
    if edges is None:
        edges = list(itertools.combinations(range(1, n + 1), 2))
    colors = {}
    nodes = 0

    def completes(u, v, color):
        size = sizes[color - 1]
        others = [w for w in range(1, n + 1) if w not in (u, v)]
        for rest in itertools.combinations(others, size - 2):
            W = sorted((u, v) + rest)
            if all(colors.get(e) == color for e in itertools.combinations(W, 2)):
                return True
        return False

    def dfs(idx):
        nonlocal nodes
        if idx == len(edges):
            return True
        e = edges[idx]
        for color in range(1, len(sizes) + 1):
            nodes += 1
            colors[e] = color
            if not completes(*e, color) and not (row_lex and row_lex_broken(n, colors)):
                if dfs(idx + 1):
                    return True
            del colors[e]
        return False

    return (dict(colors) if dfs(0) else None), nodes


def forward_checked_search(n, k, edges, sizes):
    """The arrowing search with forward checking, on any k-graph, with
    every test recomputed from the partial coloring at each node.

    Edges go in lexicographic order and colors ascending.  Color c is
    forbidden at edge e when some target c-clique holds e and all its
    other edges already have color c.  A node is a non-forbidden color
    tried at an edge; it is abandoned when some later edge has every color
    forbidden.  Returns (the first full coloring reached, as {edge: color},
    or None when the tree is exhausted; the number of nodes)."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    ell = len(sizes)
    # per color and edge: the other edges of each target clique through it
    others = [{e: [] for e in edges} for _ in sizes]
    for color, t in enumerate(sizes, start=1):
        for W in naive_cliques(n, k, edges, t):
            rsubs = list(itertools.combinations(W, k))
            for e in rsubs:
                others[color - 1][e].append([b for b in rsubs if b != e])
    colors = {}
    nodes = 0

    def forbidden(e, color):
        return any(
            all(colors.get(b) == color for b in rest) for rest in others[color - 1][e]
        )

    def dfs(idx):
        nonlocal nodes
        if idx == len(edges):
            return True
        e = edges[idx]
        for color in range(1, ell + 1):
            if forbidden(e, color):
                continue
            nodes += 1
            colors[e] = color
            if not any(
                all(forbidden(f, c) for c in range(1, ell + 1)) for f in edges[idx + 1:]
            ) and dfs(idx + 1):
                return True
            del colors[e]
        return False

    return (dict(colors) if dfs(0) else None), nodes


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
