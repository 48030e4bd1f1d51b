"""Arrowing decisions on small instances, with exact certificates.

``G arrows (t_1, ..., t_l)`` means every l-edge-coloring of G contains,
for some i, a complete r-graph on t_i vertices monochromatic in color i.
The negation is certified by a good coloring: one with no such copy.

The decision engine is a depth-first search over edge-color assignments
in a fixed order (edges lexicographic, colors 1..l), pruning a branch
the moment an assignment completes a monochromatic target clique.  The
verdict "arrows" is a proof only when the tree was fully exhausted;
running out of budget raises, it never guesses.  Witnesses and node
counts are reproducible because the order is fixed.

Instances beyond the internal search can be exported as DIMACS CNF:
the formula is satisfiable exactly when a good coloring exists.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .hypergraph import (
    Edge,
    EdgeColoring,
    UniformHypergraph,
    complete_hypergraph,
    enumerate_cliques,
)

__all__ = [
    "TargetList",
    "ArrowResult",
    "ColoringCheck",
    "SearchBudgetExceeded",
    "NoGoodColoringError",
    "RamseyUndecidedError",
    "verify_good_coloring",
    "arrows_decision",
    "export_cnf",
    "ramsey_number",
    "base_coloring_search",
]


@dataclass(frozen=True)
class TargetList:
    """Clique sizes per color: color i must avoid a monochromatic
    complete r-graph on sizes[i-1] vertices."""

    r: int
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(int(t) for t in self.sizes))
        if self.r < 2:
            raise ValueError(f"uniformity r must be >= 2, got {self.r}")
        if not self.sizes:
            raise ValueError("need at least one target")
        for t in self.sizes:
            if t <= self.r:
                raise ValueError(f"every target size must exceed r={self.r}, got {t}")

    @property
    def num_colors(self) -> int:
        return len(self.sizes)


class SearchBudgetExceeded(RuntimeError):
    """The search hit its node or time budget before reaching a verdict."""

    def __init__(self, nodes_explored: int, elapsed: float):
        self.nodes_explored = nodes_explored
        self.elapsed = elapsed
        super().__init__(
            f"search budget exceeded after {nodes_explored} nodes "
            f"({elapsed:.2f}s); verdict undecided"
        )


class NoGoodColoringError(RuntimeError):
    """Every coloring of the requested complete host hits a target."""


class RamseyUndecidedError(RuntimeError):
    """No host within the vertex bound was proven to arrow the targets."""


@dataclass(frozen=True)
class ColoringCheck:
    """Result of a good-coloring verification; falsy when a violation exists."""

    ok: bool
    color: int | None = None
    vertices: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ArrowResult:
    verdict: str  # "arrows" | "not_arrows"
    witness: EdgeColoring | None
    nodes_explored: int
    elapsed: float
    exhausted: bool


def verify_good_coloring(
    G: UniformHypergraph, coloring: EdgeColoring, targets: TargetList
) -> ColoringCheck:
    """Check that no color class contains its target clique.

    On failure, reports the first violating (color, vertex set) pair:
    colors ascending, vertex sets in lexicographic order.
    """
    if coloring.host != G:
        raise ValueError("coloring does not color this hypergraph")
    if coloring.num_colors != targets.num_colors:
        raise ValueError(
            f"coloring has {coloring.num_colors} colors, targets expect "
            f"{targets.num_colors}"
        )
    if G.k != targets.r:
        raise ValueError(f"host uniformity {G.k} != target uniformity {targets.r}")
    for color, size in enumerate(targets.sizes, start=1):
        mono = G.restrict_edges(coloring.color_class(color))
        hits = enumerate_cliques(mono, size)
        if hits:
            return ColoringCheck(False, color, hits[0])
    return ColoringCheck(True)


def _search_graph_bitsets(G, targets, max_nodes, max_seconds, started):
    """DFS specialized to r = 2 with per-color adjacency bitmasks."""
    edges = G.edges
    m = len(edges)
    ell = targets.num_colors
    # per color: how many further vertices complete the target clique
    # once an edge is laid down (target size minus the edge endpoints)
    grow = [t - 2 for t in targets.sizes]
    adj = [[0] * (G.n + 1) for _ in range(ell)]

    def grows_clique(a: list[int], mask: int, size: int) -> bool:
        # is there a `size`-clique (in color a) inside `mask`?
        if size == 0:
            return True
        if size == 1:
            return mask != 0
        while mask:
            low = mask & -mask
            w = low.bit_length() - 1
            mask ^= low
            if mask.bit_count() + 1 < size:
                return False
            if grows_clique(a, mask & a[w], size - 1):
                return True
        return False

    if m == 0:
        return [], 0
    assignment = [0] * m
    tried = [0] * m
    nodes = 0
    j = 0
    while True:
        color = tried[j] + 1
        if color > ell:
            tried[j] = 0
            j -= 1
            if j < 0:
                return None, nodes  # exhausted
            u, v = edges[j]
            a = adj[assignment[j] - 1]
            a[u] &= ~(1 << v)
            a[v] &= ~(1 << u)
            assignment[j] = 0
            continue
        tried[j] = color
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SearchBudgetExceeded(nodes, time.perf_counter() - started)
        if max_seconds is not None and nodes & 4095 == 0:
            _check_time(nodes, max_seconds, started)
        u, v = edges[j]
        a = adj[color - 1]
        common = a[u] & a[v]
        size = grow[color - 1]
        if size == 1:
            completes = common != 0
        elif size == 2:
            completes = False
            while common:
                low = common & -common
                common ^= low
                if a[low.bit_length() - 1] & common:
                    completes = True
                    break
        else:
            completes = grows_clique(a, common, size)
        if completes:
            continue  # completing a monochromatic clique; try next color
        a[u] |= 1 << v
        a[v] |= 1 << u
        assignment[j] = color
        j += 1
        if j == m:
            return list(assignment), nodes


def _search_clique_counters(G, targets, max_nodes, max_seconds, started):
    """Generic DFS: per-color counters over precomputed target cliques."""
    edges = G.edges
    m = len(edges)
    r = G.k
    ell = targets.num_colors
    edge_index = {e: i for i, e in enumerate(edges)}
    cliques_of_size = {t: enumerate_cliques(G, t) for t in set(targets.sizes)}
    per_color = []
    for t in targets.sizes:
        cliques = cliques_of_size[t]
        through: list[list[int]] = [[] for _ in range(m)]
        for cid, W in enumerate(cliques):
            for B in itertools.combinations(W, r):
                through[edge_index[B]].append(cid)
        per_color.append((through, [0] * len(cliques), comb(t, r)))

    if m == 0:
        return [], 0
    assignment = [0] * m
    tried = [0] * m
    nodes = 0
    j = 0
    while True:
        color = tried[j] + 1
        if color > ell:
            tried[j] = 0
            j -= 1
            if j < 0:
                return None, nodes
            through, counts, _need = per_color[assignment[j] - 1]
            for cid in through[j]:
                counts[cid] -= 1
            assignment[j] = 0
            continue
        tried[j] = color
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SearchBudgetExceeded(nodes, time.perf_counter() - started)
        if max_seconds is not None and nodes & 4095 == 0:
            _check_time(nodes, max_seconds, started)
        through, counts, need = per_color[color - 1]
        lst = through[j]
        completed = -1
        for pos, cid in enumerate(lst):
            grown = counts[cid] + 1
            counts[cid] = grown
            if grown == need:
                completed = pos
                break
        if completed >= 0:
            for pos in range(completed + 1):
                counts[lst[pos]] -= 1
            continue
        assignment[j] = color
        j += 1
        if j == m:
            return list(assignment), nodes


def _check_time(nodes, max_seconds, started):
    if time.perf_counter() - started > max_seconds:
        raise SearchBudgetExceeded(nodes, time.perf_counter() - started)


def arrows_decision(
    G: UniformHypergraph,
    targets: TargetList,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
) -> ArrowResult:
    """Decide whether every coloring of G hits some target clique.

    Returns "not_arrows" with a verified witness coloring, or "arrows"
    with `exhausted=True` once the full assignment tree is pruned away.
    Exceeding the budget raises SearchBudgetExceeded; an undecided
    search never turns into a verdict.
    """
    if G.k != targets.r:
        raise ValueError(f"host uniformity {G.k} != target uniformity {targets.r}")
    started = time.perf_counter()
    if G.k == 2:
        assignment, nodes = _search_graph_bitsets(
            G, targets, max_nodes, max_seconds, started
        )
    else:
        assignment, nodes = _search_clique_counters(
            G, targets, max_nodes, max_seconds, started
        )
    elapsed = time.perf_counter() - started
    if assignment is None:
        return ArrowResult("arrows", None, nodes, elapsed, exhausted=True)
    witness = EdgeColoring(
        G, targets.num_colors, {e: c for e, c in zip(G.edges, assignment)}
    )
    return ArrowResult("not_arrows", witness, nodes, elapsed, exhausted=False)


def export_cnf(G: UniformHypergraph, targets: TargetList) -> str:
    """DIMACS CNF satisfiable exactly when G does NOT arrow the targets.

    Variable (edge e, color i) is true when e gets color i; clauses force
    at least one and at most one color per edge, and forbid every fully
    monochromatic target clique.  A comment block maps variables back to
    (edge, color) pairs.
    """
    if G.k != targets.r:
        raise ValueError(f"host uniformity {G.k} != target uniformity {targets.r}")
    ell = targets.num_colors
    if ell < 2:
        raise ValueError("CNF export needs at least 2 colors")
    edges = G.edges
    m = len(edges)
    edge_index = {e: i for i, e in enumerate(edges)}

    def var(eidx: int, color: int) -> int:
        return eidx * ell + color

    clauses: list[list[int]] = []
    for eidx in range(m):
        clauses.append([var(eidx, i) for i in range(1, ell + 1)])
    for eidx in range(m):
        for i, j in itertools.combinations(range(1, ell + 1), 2):
            clauses.append([-var(eidx, i), -var(eidx, j)])
    for color, size in enumerate(targets.sizes, start=1):
        for W in enumerate_cliques(G, size):
            clauses.append(
                [-var(edge_index[B], color) for B in itertools.combinations(W, G.k)]
            )
    lines = [
        f"c good-coloring instance: {m} edges, {ell} colors, "
        f"targets {list(targets.sizes)}, uniformity {G.k}"
    ]
    for eidx, e in enumerate(edges):
        for i in range(1, ell + 1):
            lines.append(f"c x{var(eidx, i)} = edge {' '.join(map(str, e))} color {i}")
    lines.append(f"p cnf {m * ell} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(map(str, clause)) + " 0")
    return "\n".join(lines) + "\n"


def ramsey_number(
    targets: TargetList,
    n_max: int,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
) -> int:
    """Least n <= n_max such that the complete r-graph on n vertices
    arrows the targets.

    Complete hosts suffice: any n-vertex r-graph is a sub-hypergraph of
    the complete one, and arrowing is inherited upward since a coloring
    of the larger host restricts to the smaller, so the minimum over all
    r-graphs equals the minimum over complete hosts.  Hosts smaller than
    the largest target trivially fail (color everything in that target's
    color).  Raises RamseyUndecidedError when n_max is too small, and
    lets SearchBudgetExceeded bubble up.
    """
    start = max(targets.sizes)
    for n in range(start, n_max + 1):
        result = arrows_decision(
            complete_hypergraph(n, targets.r),
            targets,
            max_nodes=max_nodes,
            max_seconds=max_seconds,
        )
        if result.verdict == "arrows":
            return n
    raise RamseyUndecidedError(
        f"no complete host on <= {n_max} vertices arrows targets "
        f"{list(targets.sizes)} (r={targets.r})"
    )


def base_coloring_search(
    s: int,
    targets: TargetList,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
) -> EdgeColoring:
    """A good coloring of the complete r-graph on [1..s], cached per
    (s, targets, budget).

    Exists exactly when s is below the targets' Ramsey number; otherwise
    raises NoGoodColoringError.  Neither that error nor an exhausted
    budget is cached, and the cache keeps the 16 most recent colorings.
    """
    if s < targets.r:
        raise ValueError(f"need s >= r = {targets.r}, got {s}")
    return _base_coloring(s, targets, max_nodes, max_seconds)


@lru_cache(maxsize=16)
def _base_coloring(
    s: int, targets: TargetList, max_nodes: int | None, max_seconds: float | None
) -> EdgeColoring:
    result = arrows_decision(
        complete_hypergraph(s, targets.r),
        targets,
        max_nodes=max_nodes,
        max_seconds=max_seconds,
    )
    if result.verdict == "arrows":
        raise NoGoodColoringError(
            f"every {targets.num_colors}-coloring of the complete "
            f"{targets.r}-graph on {s} vertices contains a target clique"
        )
    assert result.witness is not None
    return result.witness
