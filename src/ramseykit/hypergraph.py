"""Uniform hypergraphs: exact densities, clique enumeration, colorings.

Vertices are 1-based dense integers 1..n; isolated vertices are
representable because n is stored explicitly.  Edges are k-subsets kept
as strictly ascending tuples, and the edge collection is kept sorted and
duplicate-free, so equal hypergraphs compare equal structurally.

All densities are exact `fractions.Fraction` values; no floating point
enters any density or cover computation.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Mapping

__all__ = [
    "InternalContradictionError",
    "UniformHypergraph",
    "EdgeColoring",
    "complete_hypergraph",
    "primal_r_graph",
    "max_r_density",
    "max_r_density_with_witness",
    "clique_density",
    "enumerate_cliques",
    "count_mono_clique_copies",
]

Edge = tuple[int, ...]

MAX_SUPPORT = 18  # largest support the max-density subset scan accepts


class InternalContradictionError(RuntimeError):
    """A result that provably holds failed its independent check.

    Cleaning failed to produce a linear, conformal hypergraph (deleting
    one edge per recorded configuration provably destroys every
    violation), or the arrowing search returned a witness that is not a
    good coloring.  Reaching this state means the implementation (not
    the input) is wrong; it must be surfaced, never patched silently.
    """


def _canonical_edge(edge: Iterable[int], k: int, n: int) -> Edge:
    vals = [int(v) for v in edge]
    e = tuple(sorted(vals))
    if len(e) != k:
        raise ValueError(f"edge {e} has {len(e)} vertices, expected {k}")
    for i, v in enumerate(e):
        if v < 1 or v > n:
            raise ValueError(f"vertex {v} out of range 1..{n} in edge {e}")
        if i and e[i - 1] == v:
            raise ValueError(f"repeated vertex {v} in edge {tuple(vals)}")
    return e


def _from_fields(cls, *values):
    """`cls(*values)` for a frozen dataclass, minus its `__post_init__`."""
    obj = object.__new__(cls)
    # not obj.__dict__[name] = value: that makes each instance carry its own dict
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class UniformHypergraph:
    """An immutable k-uniform hypergraph on the vertex set {1, ..., n}.

    The constructor canonicalizes: every edge is sorted ascending,
    duplicate edges collapse (set semantics), and arity/range violations
    raise ``ValueError``.  Instances are safe to share across threads.
    """

    n: int
    k: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"uniformity k must be >= 2, got {self.k}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        canon = {_canonical_edge(e, self.k, self.n) for e in self.edges}
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    # trusted: edges are ascending int k-tuples in 1..n, lex-ordered, distinct
    _from_canonical = classmethod(_from_fields)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Vertices of nonzero degree, ascending."""
        return tuple(sorted({v for e in self.edges for v in e}))

    def __repr__(self) -> str:  # compact; edge lists can be large
        return f"UniformHypergraph(n={self.n}, k={self.k}, edges=<{self.num_edges}>)"


def complete_hypergraph(num_vertices: int, k: int) -> UniformHypergraph:
    """The complete k-uniform hypergraph on {1, ..., num_vertices}."""
    UniformHypergraph(num_vertices, k)  # the constructor's checks of n and k
    edges = tuple(itertools.combinations(range(1, num_vertices + 1), k))
    return UniformHypergraph._from_canonical(num_vertices, k, edges)


@dataclass(frozen=True)
class EdgeColoring:
    """A total map from the edges of a host hypergraph to colors 1..num_colors."""

    host: UniformHypergraph
    num_colors: int
    assignment: Mapping[Edge, int] = field(hash=False)

    def __post_init__(self) -> None:
        if self.num_colors < 1:
            raise ValueError(f"need at least one color, got {self.num_colors}")
        canon: dict[Edge, int] = {}
        for edge, color in self.assignment.items():
            e = tuple(sorted(edge))
            if e not in self.host.edge_set:
                raise ValueError(f"{e} is colored but is not an edge of the host")
            if e in canon:
                raise ValueError(f"edge {e} is colored twice")
            c = int(color)
            if not 1 <= c <= self.num_colors:
                raise ValueError(f"color {c} for edge {e} outside 1..{self.num_colors}")
            canon[e] = c
        missing = self.host.edge_set - canon.keys()
        if missing:
            raise ValueError(f"edge {sorted(missing)[0]} has no color; coloring must be total")
        object.__setattr__(self, "assignment", canon)

    # trusted: num_colors >= 1; assignment maps exactly host.edges to ints 1..num_colors
    _from_canonical = classmethod(_from_fields)

    def color_of(self, edge: Iterable[int]) -> int:
        return self.assignment[tuple(sorted(edge))]

    def color_class(self, color: int) -> tuple[Edge, ...]:
        """Edges carrying the given color, lex ascending."""
        return tuple(e for e in self.host.edges if self.assignment[e] == color)

    def __repr__(self) -> str:
        return (
            f"EdgeColoring(host={self.host!r}, num_colors={self.num_colors}, "
            f"assignment=<{len(self.assignment)}>)"
        )


def primal_r_graph(H: UniformHypergraph, r: int) -> UniformHypergraph:
    """The r-graph on V(H) whose edges are all r-subsets of edges of H.

    Requires 2 <= r <= H.k.  Distinct H-edges may contribute the same
    r-subset; the result is deduplicated.
    """
    if not 2 <= r <= H.k:
        raise ValueError(f"need 2 <= r <= {H.k}, got r={r}")
    prim: set[Edge] = set()
    for A in H.edges:
        prim.update(itertools.combinations(A, r))
    return UniformHypergraph._from_canonical(H.n, r, tuple(sorted(prim)))


def max_r_density_with_witness(
    F: UniformHypergraph,
) -> tuple[Fraction, tuple[int, ...] | None]:
    """Maximum r-density of F together with a vertex subset attaining it.

    The density is 0 for edgeless F, 1/r for a single edge, and otherwise
    the maximum of (e(F[U]) - 1) / (|U| - r) over vertex subsets U with
    |U| > r and at least one induced edge.  Only subsets of the support
    are scanned: dropping an isolated vertex never decreases the ratio,
    and for a fixed vertex set the induced subgraph maximizes the edge
    count, so induced subgraphs suffice.

    The subset scan is exponential in the support size; a support above
    MAX_SUPPORT vertices is refused with a clear error.  The witness is
    None for the two degenerate cases, otherwise the first maximizing
    subset in scan order (deterministic).
    """
    r = F.k
    if F.num_edges == 0:
        return Fraction(0), None
    if F.num_edges == 1:
        return Fraction(1, r), None
    support = F.support
    if len(support) > MAX_SUPPORT:
        raise ValueError(
            f"support has {len(support)} vertices; subset scan capped at "
            f"MAX_SUPPORT={MAX_SUPPORT}"
        )
    edge_masks = []
    index = {v: i for i, v in enumerate(support)}
    for e in F.edges:
        edge_masks.append(sum(1 << index[v] for v in e))
    best: Fraction | None = None
    best_mask = 0
    for mask in range(1, 1 << len(support)):
        size = mask.bit_count()
        if size <= r:
            continue
        count = sum(1 for em in edge_masks if em & ~mask == 0)
        if count == 0:
            continue
        value = Fraction(count - 1, size - r)
        if best is None or value > best:
            best = value
            best_mask = mask
    assert best is not None  # F has >= 2 edges, so their union qualifies
    witness = tuple(v for v in support if (1 << index[v]) & best_mask)
    return best, witness


def max_r_density(F: UniformHypergraph) -> Fraction:
    """Maximum r-density m_r(F) as an exact fraction."""
    return max_r_density_with_witness(F)[0]


def clique_density(t: int, r: int) -> Fraction:
    """Maximum r-density of the complete r-graph on t vertices.

    Closed form (C(t,r) - 1) / (t - r) for t > r >= 2; agrees with
    max_r_density on the complete hypergraph.
    """
    if r < 2 or t <= r:
        raise ValueError(f"need t > r >= 2, got t={t}, r={r}")
    return Fraction(comb(t, r) - 1, t - r)


def enumerate_cliques(G: UniformHypergraph, t: int) -> list[tuple[int, ...]]:
    """All t-vertex sets W such that every r-subset of W is an edge of G.

    Results are ascending tuples in lexicographic order.  The search runs
    on one index, link[S] = {v : S + (v,) is an edge} for each (r-1)-set
    S, whose members all exceed max(S).  Call C a clique when all its
    r-subsets are edges (every (r-1)-set is one), and X(C) the v > max(C)
    for which C + (v,) is a clique, so X(P) = link[P] when |P| = r - 1.
    - Exact narrowing: for v < u in X(C), the r-subsets of C + (v, u)
      that lie in neither C + (v,) nor C + (u,) are the S + (v, u) for
      the (r-2)-subsets S of C.  So X(C + (v,)) is the part of X(C) past
      v that lies in link[S + (v,)] for every such S.  Every candidate
      left extends the clique, so at size t - 1 each one is appended.
    - Lex order: a t-clique's first r - 1 vertices P are its seed, the
      prefixes of the sorted edges (so `link`'s keys) come in lex order,
      and each seed grows by ascending candidates.
    - For r = 2, link[(u,)] is the set of neighbours above u, and adding
      v narrows by link[(v,)] alone (S is the empty tuple).
    At t = r the cliques are the edges.  For t > r, each prune below
    drops only branches that hold no t-clique, so the output is that of
    the plain growth; `need` = t - |C| - 1 >= 1 is the number of vertices
    that C + (v,) still lacks.
    - Seeds: a t-clique seeded by P has t - r + 1 vertices in link[P],
      so a seed with t - r or fewer candidates seeds none.
    - Missing link: if no edge starts with S + (v,), no u completes
      S + (v, u), so X(C + (v,)) is empty and C + (v,) grows no t-clique.
    - Too few left: each narrowing only removes candidates, and a t-clique
      through C + (v,) takes its other `need` vertices from X(C + (v,)),
      so once fewer than `need` remain, none can be found.
    - Last vertex: at need = 1 each u in X(C + (v,)) makes C + (v, u) a
      t-clique, which is what a call on C + (v,) would append.
    """
    r = G.k
    if t < r:
        raise ValueError(f"clique size t={t} below uniformity r={r}")
    if t == r:
        return list(G.edges)
    link: dict[Edge, set[int]] = defaultdict(set)
    for e in G.edges:
        link[e[:-1]].add(e[-1])
    results: list[Edge] = []
    for P, X in link.items():
        if len(X) > t - r:
            _grow(P, sorted(X), t, r, link, results)
    return results


def _grow(clique: Edge, cands: list[int], t: int, r: int,
          link: Mapping[Edge, set[int]], out: list[Edge]) -> None:
    # not a closure: a recursive closure is a reference cycle, which keeps
    # `link` and `out` alive until the cyclic collector runs
    need = t - len(clique) - 1
    subsets = list(itertools.combinations(clique, r - 2))
    for i, v in enumerate(cands):
        if len(cands) - i <= need:
            break
        rest = cands[i + 1 :]
        for S in subsets:
            adj = link.get(S + (v,))
            if adj is None:
                break
            rest = [u for u in rest if u in adj]
            if len(rest) < need:
                break
        else:
            grown = clique + (v,)
            if need == 1:
                out.extend([grown + (u,) for u in rest])
            else:
                _grow(grown, rest, t, r, link, out)


def count_mono_clique_copies(coloring: EdgeColoring, color: int, t: int) -> int:
    """Number of t-vertex sets whose r-subsets are all edges of the given color.

    Copies are unlabeled vertex subsets.
    """
    host = coloring.host
    if t < host.k:
        raise ValueError(f"clique size t={t} below uniformity {host.k}")
    if not 1 <= color <= coloring.num_colors:
        raise ValueError(f"color {color} outside 1..{coloring.num_colors}")
    mono = UniformHypergraph._from_canonical(host.n, host.k, coloring.color_class(color))
    return len(enumerate_cliques(mono, t))
