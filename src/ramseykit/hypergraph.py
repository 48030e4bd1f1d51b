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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Mapping

__all__ = [
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

    @classmethod
    def _from_canonical(cls, n: int, k: int, edges: tuple[Edge, ...]) -> "UniformHypergraph":
        # Internal fast path: caller guarantees edges are sorted ascending
        # tuples of ints, lex-ordered and duplicate-free.
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "k", k)
        object.__setattr__(obj, "edges", edges)
        return obj

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

    def restrict_edges(self, keep: Iterable[Edge]) -> "UniformHypergraph":
        """Sub-hypergraph on the same vertex set with the given edges."""
        keep_set = set(keep)
        bad = keep_set - self.edge_set
        if bad:
            raise ValueError(f"{sorted(bad)[0]} is not an edge of this hypergraph")
        return UniformHypergraph._from_canonical(
            self.n, self.k, tuple(e for e in self.edges if e in keep_set)
        )

    def __repr__(self) -> str:  # compact; edge lists can be large
        return f"UniformHypergraph(n={self.n}, k={self.k}, edges=<{self.num_edges}>)"


def complete_hypergraph(num_vertices: int, k: int) -> UniformHypergraph:
    """The complete k-uniform hypergraph on {1, ..., num_vertices}."""
    if k < 2:
        raise ValueError(f"uniformity k must be >= 2, got {k}")
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
            raise ValueError("need at least one color")
        canon: dict[Edge, int] = {}
        for edge, color in self.assignment.items():
            e = tuple(sorted(edge))
            if e not in self.host.edge_set:
                raise ValueError(f"{e} is colored but is not an edge of the host")
            c = int(color)
            if not 1 <= c <= self.num_colors:
                raise ValueError(f"color {c} for edge {e} outside 1..{self.num_colors}")
            canon[e] = c
        missing = self.host.edge_set - canon.keys()
        if missing:
            raise ValueError(f"edge {sorted(missing)[0]} has no color; coloring must be total")
        object.__setattr__(self, "assignment", canon)

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
    F: UniformHypergraph, *, max_support: int = 18
) -> tuple[Fraction, tuple[int, ...] | None]:
    """Maximum r-density of F together with a vertex subset attaining it.

    The density is 0 for edgeless F, 1/r for a single edge, and otherwise
    the maximum of (e(F[U]) - 1) / (|U| - r) over vertex subsets U with
    |U| > r and at least one induced edge.  Only subsets of the support
    are scanned: dropping an isolated vertex never decreases the ratio,
    and for a fixed vertex set the induced subgraph maximizes the edge
    count, so induced subgraphs suffice.

    The subset scan is exponential in the support size; `max_support`
    caps it with a clear error.  The witness is None for the two
    degenerate cases, otherwise the first maximizing subset in scan
    order (deterministic).
    """
    r = F.k
    if F.num_edges == 0:
        return Fraction(0), None
    if F.num_edges == 1:
        return Fraction(1, r), None
    support = F.support
    if len(support) > max_support:
        raise ValueError(
            f"support has {len(support)} vertices; subset scan capped at "
            f"{max_support} (raise max_support to override)"
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


def max_r_density(F: UniformHypergraph, *, max_support: int = 18) -> Fraction:
    """Maximum r-density m_r(F) as an exact fraction."""
    return max_r_density_with_witness(F, max_support=max_support)[0]


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

    Results are ascending tuples in lexicographic order.  The scan is
    restricted to vertices of nonzero degree (a clique vertex always lies
    in an edge when t >= r) and prunes with vertex-pair co-occurrence:
    any two clique vertices must share at least one edge.

    Each support vertex v seeds the search with its larger co-occurring
    vertices, sorted, which are exactly the later support vertices that
    the pruning would keep; seeding this way costs O(deg v log deg v)
    rather than a pass over the rest of the support, and visits v's
    cliques in the same lexicographic order.
    """
    r = G.k
    if t < r:
        raise ValueError(f"clique size t={t} below uniformity r={r}")
    support = G.support
    if len(support) < t:
        return []
    edge_set = G.edge_set
    copair: dict[int, set[int]] = {v: set() for v in support}
    for e in G.edges:
        for u, v in itertools.combinations(e, 2):
            copair[u].add(v)
            copair[v].add(u)

    results: list[tuple[int, ...]] = []
    partial: list[int] = []

    def extend(cands: list[int]) -> None:
        if len(partial) == t:
            results.append(tuple(partial))
            return
        need = t - len(partial)
        for i, v in enumerate(cands):
            if len(cands) - i < need:
                break
            if len(partial) >= r - 1:
                ok = all(
                    sub + (v,) in edge_set
                    for sub in itertools.combinations(partial, r - 1)
                )
                if not ok:
                    continue
            partial.append(v)
            adj = copair[v]
            extend([u for u in cands[i + 1 :] if u in adj])
            partial.pop()

    for v in support:
        partial.append(v)
        extend(sorted(u for u in copair[v] if u > v))
        partial.pop()
    return results


def count_mono_clique_copies(coloring: EdgeColoring, color: int, t: int) -> int:
    """Number of t-vertex sets whose r-subsets are all edges of the given color.

    Copies are unlabeled vertex subsets.
    """
    host = coloring.host
    if t < host.k:
        raise ValueError(f"clique size t={t} below uniformity {host.k}")
    if not 1 <= color <= coloring.num_colors:
        raise ValueError(f"color {color} outside 1..{coloring.num_colors}")
    mono = host.restrict_edges(coloring.color_class(color))
    return len(enumerate_cliques(mono, t))
