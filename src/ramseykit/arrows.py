"""Arrowing decisions on small instances, with exact certificates.

``G arrows (t_1, ..., t_l)`` means every l-edge-coloring of G contains,
for some i, a complete r-graph on t_i vertices monochromatic in color i.
The negation is certified by a good coloring: one with no such copy.

The decision engine is a depth-first search over edge-color assignments
in a fixed order (edges lexicographic, colors 1..l), pruning a branch
the moment an assignment completes a monochromatic target clique, and
for r >= 3 also the moment a later edge has no color left (forward
checking, below).  The verdict "arrows" is a proof only when the tree
was fully exhausted; running out of budget raises, it never guesses.
The verdict "not_arrows" carries a witness that `verify_good_coloring`
has checked.  Witnesses and node counts are reproducible because the
order is fixed.

One node loop serves every r and picks its per-color state by r.  For
r = 2 it keeps one adjacency bitmask per color and vertex and asks
`_grows_clique` whether the common neighbourhood of the new edge holds a
clique, of any missing size; for r >= 3 it keeps, per color, how many
edges of each precomputed target clique are laid down.  The choice of r
is an inline `if` in the color step, the forward step and the backtrack,
never a per-node callback: a callback skeleton exhausted the literal
K_9 (3,4) search in 27-31 s against 20-22 s, and sending r = 2 through
the clique counters took that search to 10^6 nodes from 0.74 s to
2.0 s.  Inline tests for missing sizes 1 and 2 saved ~8% of the in-process
R(3,4) search (6.3 ms against 6.8 ms), within a `ramsey` run's spread.

Forward checking (r >= 3).  Color c is forbidden at an unassigned edge e
when some target c-clique holds e and all its other edges have color c;
e is blocked when every color is forbidden at it.  The search keeps
forbid[e][c], the number of such c-cliques, and blocked[e], the number
of colors forbidden at e, and updates both in the forward step and the
backtrack.  Edges are colored in index order, so when a clique's count
in color c reaches one below its size while its last edge is still
unassigned, that last edge is the one it misses.  At edge j the search
skips every forbidden color, and it undoes an assignment that blocks a
later edge and tries the next color.  A node is a color tried at an
edge that is not forbidden there.

Soundness.  A forbidden color would complete a monochromatic target
clique, so the plain search rejects it as well.  A blocked edge has no
color that avoids completing one, so no good coloring extends the
partial coloring that blocks it.  Forward checking therefore cuts only
subtrees without a good coloring, and colors are still tried in
ascending order: the verdict and the first good coloring met are
unchanged, and only the node count drops (about ninefold on the
K_8^(3) (4,5) base search).

Row-lex symmetry breaking (complete r = 2 hosts).  A coloring of K_n
is a symmetric matrix A with A[i][j] the color of edge {i, j}; row i
restricted to the columns other than i and i+1 is written A[i]'.  The
rule keeps only colorings with A[i]' <=_lex A[i+1]' for every i < n:
the sb*_l constraint of Codish, Miller, Prosser and Stuckey,
"Constraints for symmetry breaking in graph representation",
Constraints 24 (2019), read with colors 1..l instead of 0/1.

Soundness.  Relabelling vertices maps good colorings to good colorings,
so it suffices that every coloring has a relabelling satisfying the
rule.  Take the relabelling whose upper triangle, read row by row
(the search's edge order), is lexicographically least, and suppose
A[i]' >_lex A[i+1]' with first difference at column c.  Swap i and i+1.
If c < i, rows 1..c-1 of the triangle are unchanged (they swap equal
entries), and the entry at (c, i) drops from A[c][i] to A[c][i+1]; if
c > i+1, rows 1..i-1 are unchanged for the same reason, row i keeps
A[i][i+1] and all entries before column c, and its entry at column c
drops from A[i][c] to A[i+1][c].  Either way the swap lowers the least
relabelling, a contradiction.  So a good coloring exists exactly when
one obeying the rule does, and both verdicts are unchanged.  The witness
is unchanged too: the literal search returns the least good coloring,
whose relabellings are all good and so no smaller; it is the least of
its class, obeys the rule, and is met first with the rule as well.

Pruning.  The comparison of rows i and i+1 reads columns in increasing
order and stops at the first unassigned entry.  In the search's edge
order the later of the two entries of column c is always row i+1's, at
edge (c, i+1) for c < i and (i+1, c) for c > i+1, and these edges come
in increasing c.  So each edge (u, v) can settle only two comparisons:
rows (u-1, u) at column v and rows (v-1, v) at column u (when
u < v-1); the pairs (u, u+1) and (v, v+1) still stop at an unassigned
entry.  The search keeps one bit per row pair, set while every compared
column was equal, and prunes a branch only when a pair that is still
tied gets a larger color in row i than in row i+1, i.e. only when the
rule is definitely broken.  Exhausting K_9 at (3,4) takes 29,196,464
nodes without the rule and 8,844 with it.

The argument relabels the host, so it holds exactly on complete hosts:
the search applies the rule to every complete r = 2 host, `arrow`'s
included, and to no other host.  For r >= 3 its analogue, the
colors of (1, ..., r-1, v) non-decreasing in v, did not change the node
count of the K_8^(3) (4,5) base search (measured before forward
checking), so the r >= 3 search breaks no symmetry.

The search and the DIMACS CNF export read one instance of (G, targets).
Edge j is G.edges[j] (0-based, lex order), and the search's decision
"edge j gets color c" is CNF variable j*L + c, for L colors.  The CNF
lists every at-least-one clause, then every at-most-one clause, then one
clause per target clique, colors ascending and cliques in lex order; it
is satisfiable exactly when a good coloring exists.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from math import comb

from .hypergraph import (
    Edge,
    EdgeColoring,
    InternalContradictionError,
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

    @property
    def exhausted(self) -> bool:
        """True when the verdict rests on a fully exhausted search tree."""
        return self.verdict == "arrows"


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
    assignment = coloring.assignment
    classes: list[list[Edge]] = [[] for _ in targets.sizes]
    for edge in G.edges:  # lex order, kept within each class
        classes[assignment[edge] - 1].append(edge)
    for color, (size, edges) in enumerate(zip(targets.sizes, classes), start=1):
        hits = enumerate_cliques(UniformHypergraph._from_canonical(G.n, G.k, tuple(edges)), size)
        if hits:
            return ColoringCheck(False, color, hits[0])
    return ColoringCheck(True)


class _Instance:
    """(G, targets) as the search and the CNF read them: `cliques[c-1]`
    lists color c's target cliques in lex order, each as the ids of its
    r-subsets (ascending); `row_pairs` (complete r = 2 hosts only, else
    None) gives per edge the row-lex comparisons it settles, as (bit
    1 << i of rows (i, i+1), id of row i's entry in that column).  A plain
    class: a dataclass would add about a millisecond to every import."""

    __slots__ = ("G", "targets", "cliques", "row_pairs")

    def __init__(self, G, targets, cliques, row_pairs):
        self.G, self.targets, self.cliques, self.row_pairs = G, targets, cliques, row_pairs


def _instance(G, targets) -> _Instance:
    if G.k != targets.r:
        raise ValueError(f"host uniformity {G.k} != target uniformity {targets.r}")
    index = {e: j for j, e in enumerate(G.edges)}
    of_size = {t: [[index[B] for B in itertools.combinations(W, G.k)]
                   for W in enumerate_cliques(G, t)] for t in set(targets.sizes)}
    row_pairs = None
    if G.k == 2 and len(index) == comb(G.n, 2):
        row_pairs = []
        for u, v in G.edges:
            pairs = []
            if u > 1:  # rows u-1, u at column v
                pairs.append((1 << (u - 1), index[(u - 1, v)]))
            if v > u + 1:  # rows v-1, v at column u
                pairs.append((1 << (v - 1), index[(u, v - 1)]))
            row_pairs.append(pairs)
    elif G.k == 2:  # the r = 2 bitsets span the support, renumbered in order
        label = {v: i for i, v in enumerate(G.support, start=1)}
        G = UniformHypergraph._from_canonical(
            len(label), 2, tuple((label[u], label[v]) for u, v in G.edges))
    return _Instance(G, targets, [of_size[t] for t in targets.sizes], row_pairs)


def _row_lex_step(pairs, tied, colors, color) -> int:
    """The `tied` bits once the current edge takes `color`, or -1 when a
    pair still tied gets a larger entry in row i than in row i+1."""
    for bit, k in pairs:
        if tied & bit:
            other = colors[k]  # row i's entry, already committed; `color` is row i+1's
            if other > color:
                return -1
            if other < color:
                tied ^= bit
    return tied


def _grows_clique(a: list[int], mask: int, size: int) -> bool:
    """Is there a `size`-clique (size >= 1) of the color with adjacency
    masks `a` inside the vertex mask `mask`?"""
    if size == 1:
        return mask != 0
    while mask:
        low = mask & -mask
        w = low.bit_length() - 1
        mask ^= low
        if mask.bit_count() + 1 < size:
            return False
        if _grows_clique(a, mask & a[w], size - 1):
            return True
    return False


def _search(inst, max_nodes, max_seconds, started):
    """The DFS over edge colors of an instance; (colors, nodes), colors
    None when the tree is exhausted.  `tried[i]` is edge i's current
    color: committed for i < j, the last one tried at j, 0 beyond.  The
    per-color state is picked by r: adjacency bitmasks (and row-lex when
    the instance has row pairs) when r = 2, counters over the target
    cliques with forward checking when r >= 3 (module docstring)."""
    G = inst.G
    edges = G.edges
    m = len(edges)
    ell = inst.targets.num_colors
    graph = G.k == 2
    if graph:
        # per color: how many further vertices complete the target clique
        # once an edge is laid down (target size minus the edge endpoints)
        grow = [t - 2 for t in inst.targets.sizes]
        adj = [[0] * (G.n + 1) for _ in range(ell)]
        row_pairs = inst.row_pairs
        row_lex = row_pairs is not None
        tied = (1 << G.n) - 2  # bit i: rows i, i+1 equal on every compared column
        tied_before = [0] * m
    else:
        per_color = []
        for cliques in inst.cliques:
            through: list[list[int]] = [[] for _ in range(m)]
            for cid, eids in enumerate(cliques):
                for eidx in eids:
                    through[eidx].append(cid)
            # counts[cid] reaches 0 when all but one edge of the clique have
            # the color; eids[-1] is the clique's last edge in search order
            counts = [1 - len(eids) for eids in cliques]
            per_color.append((through, counts, [eids[-1] for eids in cliques]))
        # forbid[e][c-1]: c-cliques whose only edge not colored c is the
        # unassigned edge e; blocked[e]: colors c with forbid[e][c-1] > 0
        forbid = [[0] * ell for _ in range(m)]
        blocked = [0] * m

    tried = [0] * m
    nodes = 0
    j = 0
    while j < m:
        color = tried[j] + 1
        if not graph:
            while color <= ell and forbid[j][color - 1]:
                color += 1  # this color would complete a target clique
        if color > ell:
            tried[j] = 0
            j -= 1
            if j < 0:
                return None, nodes  # exhausted
            if graph:
                u, v = edges[j]
                a = adj[tried[j] - 1]
                a[u] &= ~(1 << v)
                a[v] &= ~(1 << u)
                if row_lex:
                    tied = tied_before[j]
            else:
                _unlay(per_color, forbid, blocked, j, tried[j])
            continue
        tried[j] = color
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SearchBudgetExceeded(nodes, time.perf_counter() - started)
        if max_seconds is not None and nodes & 4095 == 0:
            elapsed = time.perf_counter() - started
            if elapsed > max_seconds:
                raise SearchBudgetExceeded(nodes, elapsed)
        if graph:
            u, v = edges[j]
            a = adj[color - 1]
            if _grows_clique(a, a[u] & a[v], grow[color - 1]):
                continue  # completing a monochromatic clique; try next color
            if row_lex:
                after = _row_lex_step(row_pairs[j], tied, tried, color)
                if after < 0:
                    continue  # rows out of lex order; try next color
                tied_before[j] = tied
                tied = after
            a[u] |= 1 << v
            a[v] |= 1 << u
        else:
            ci = color - 1
            through, counts, last = per_color[ci]
            wiped = False
            for cid in through[j]:
                grown = counts[cid] + 1
                counts[cid] = grown
                if not grown:
                    e = last[cid]
                    # e == j: another edge of the clique has another color
                    if e > j:
                        row = forbid[e]
                        if not row[ci]:
                            blocked[e] += 1
                            if blocked[e] == ell:
                                wiped = True
                        row[ci] += 1
            if wiped:
                _unlay(per_color, forbid, blocked, j, color)
                continue  # a later edge has every color forbidden; try next color
        j += 1
    return tried, nodes


def _unlay(per_color, forbid, blocked, j, color) -> None:
    """Undo the r >= 3 search's counter updates for edge j in `color`."""
    ci = color - 1
    through, counts, last = per_color[ci]
    for cid in through[j]:
        grown = counts[cid]
        e = last[cid]
        if not grown and e > j:
            row = forbid[e]
            row[ci] -= 1
            if not row[ci]:
                blocked[e] -= 1
        counts[cid] = grown - 1


def arrows_decision(
    G: UniformHypergraph,
    targets: TargetList,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
) -> ArrowResult:
    """Decide whether every coloring of G hits some target clique.

    Returns "not_arrows" with a witness coloring that passed
    `verify_good_coloring` (a failing one raises
    InternalContradictionError), or "arrows" once the full assignment
    tree is pruned away.  Exceeding the budget raises
    SearchBudgetExceeded; an undecided search never turns into a verdict.
    A negative or NaN budget raises ValueError; 0 is a valid budget and
    inf means no limit.

    On every complete r = 2 host the search skips colorings whose rows
    are out of lex order (module docstring): verdict and witness are
    those of the literal search, only the node count drops.
    """
    inst = _instance(G, targets)
    for name, budget in (("max_nodes", max_nodes), ("max_seconds", max_seconds)):
        if budget is not None and not budget >= 0:
            raise ValueError(f"{name} must be >= 0, got {budget}")
    colors, nodes = _search(inst, max_nodes, max_seconds, time.perf_counter())
    if colors is None:
        return ArrowResult("arrows", None, nodes)
    witness = EdgeColoring(G, targets.num_colors, dict(zip(G.edges, colors)))
    check = verify_good_coloring(G, witness, targets)
    if not check:
        raise InternalContradictionError(
            f"search witness has a monochromatic clique {check.vertices} in "
            f"color {check.color}; the arrowing search must be wrong"
        )
    return ArrowResult("not_arrows", witness, nodes)


def export_cnf(G: UniformHypergraph, targets: TargetList) -> str:
    """DIMACS CNF satisfiable exactly when G does NOT arrow the targets.

    Variables and clause order are the module docstring's: one color per
    edge, and no fully monochromatic target clique.  A comment block maps
    variables back to (edge, color) pairs.
    """
    inst = _instance(G, targets)
    ell = targets.num_colors
    if ell < 2:
        raise ValueError("CNF export needs at least 2 colors")
    edges = G.edges
    m = len(edges)

    def var(eidx: int, color: int) -> int:
        return eidx * ell + color

    clauses: list[list[int]] = []
    for eidx in range(m):
        clauses.append([var(eidx, i) for i in range(1, ell + 1)])
    for eidx in range(m):
        for i, j in itertools.combinations(range(1, ell + 1), 2):
            clauses.append([-var(eidx, i), -var(eidx, j)])
    for color, cliques in enumerate(inst.cliques, start=1):
        for eids in cliques:
            clauses.append([-var(eidx, color) for eidx in eids])
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
    color).  Each host is complete, so its search breaks symmetry
    (row-lex), which keeps every verdict.  Raises RamseyUndecidedError
    when n_max is too small, and lets SearchBudgetExceeded bubble up; the
    node and time budgets apply to each host separately.
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
    """A good coloring of the complete r-graph on [1..s].

    Exists exactly when s is below the targets' Ramsey number; otherwise
    raises NoGoodColoringError.  The search breaks symmetry (row-lex),
    which changes its node count but not the coloring it returns.
    """
    if s < targets.r:
        raise ValueError(f"need s >= r = {targets.r}, got {s}")
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
