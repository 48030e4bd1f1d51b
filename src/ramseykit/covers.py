"""r-covers of a finite set: enumeration, the weight functional, bounds.

A family of sets is an r-cover of W if every r-subset of W lies inside
some member.  A cover is trivial if it has a single member, and minimal
if no proper subfamily still covers.  The central exact quantities are

* ``phi``: the weight (|E| - 1) / m + sum(|A| - r) over members, where m
  is the maximum r-density of the complete r-graph on t vertices;
* ``check_cover_inequality``: the statement
  (|E| - 1) * (r - 1/m) - sum(|A|) <= -t
  for minimal non-trivial covers of a t-set, algebraically equivalent to
  phi >= t - r;
* ``expected_cover_bound``: the expected number E[X_W] of minimal
  non-trivial r-covers of a fixed t-set W by edges of a binomial random
  s-graph, as its exact value
  sum over trace covers E of prod_A C(n - t, s - |A|) * p^|E|
  and as the bound with C(n, s - |A|) in place of C(n - t, s - |A|),
  reported next to the reference value p * n^(s-t).

Everything here is pure and exact (``fractions.Fraction``); enumeration
order is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable

from .hypergraph import clique_density

__all__ = [
    "CoverFamily",
    "CoverBoundReport",
    "is_r_cover",
    "enumerate_minimal_nontrivial_covers",
    "phi",
    "cover_inequality_lhs",
    "check_cover_inequality",
    "reduction_sequence",
    "expected_cover_bound",
]

VertexSet = tuple[int, ...]


def _canon_set(vertices: Iterable[int]) -> VertexSet:
    return tuple(sorted({int(v) for v in vertices}))


def _check_srt(s: int, r: int, t: int) -> None:
    if not (s >= t > r >= 2):
        raise ValueError(f"need s >= t > r >= 2, got s={s}, t={t}, r={r}")


@dataclass(frozen=True)
class CoverFamily:
    """A target set W, a cover arity r, and a family of member sets.

    Members are canonicalized (sorted, deduplicated).  Nothing here
    asserts that the members actually cover W; use ``is_r_cover``.
    """

    target: VertexSet
    r: int
    members: tuple[VertexSet, ...]

    def __post_init__(self) -> None:
        if self.r < 2:
            raise ValueError(f"cover arity r must be >= 2, got {self.r}")
        object.__setattr__(self, "target", _canon_set(self.target))
        canon = sorted({_canon_set(m) for m in self.members})
        for m in canon:
            if len(m) < self.r:
                raise ValueError(
                    f"member {m} has fewer than r={self.r} vertices"
                )
        object.__setattr__(self, "members", tuple(canon))

    @classmethod
    def _from_canonical(cls, target: VertexSet, r: int, members: tuple[VertexSet, ...]) -> "CoverFamily":
        # Internal fast path: caller guarantees r >= 2, a sorted distinct
        # target, and members that are sorted, distinct, each a sorted
        # tuple of at least r distinct ints.
        obj = object.__new__(cls)
        object.__setattr__(obj, "target", target)
        object.__setattr__(obj, "r", r)
        object.__setattr__(obj, "members", members)
        return obj

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_nontrivial(self) -> bool:
        return len(self.members) >= 2


def is_r_cover(W: Iterable[int], members: Iterable[Iterable[int]], r: int) -> bool:
    """True iff every r-subset of W is contained in some member.

    Containment is tested against full members, so members may reach
    outside W.  Requires |W| >= r.
    """
    target = _canon_set(W)
    if len(target) < r:
        raise ValueError(f"target has {len(target)} vertices, need at least r={r}")
    member_sets = [set(m) for m in members]
    for B in itertools.combinations(target, r):
        bs = set(B)
        if not any(bs <= m for m in member_sets):
            return False
    return True


def enumerate_minimal_nontrivial_covers(
    W: Iterable[int], candidates: Iterable[Iterable[int]], r: int
) -> list[CoverFamily]:
    """All inclusion-minimal subfamilies of `candidates`, of size >= 2,
    covering every r-subset of W.

    Candidates are deduplicated; candidates meeting W in fewer than r
    vertices can never serve a minimal cover and are dropped, as are
    candidates containing all of W (any family containing one is
    reducible to the trivial cover, hence non-minimal).

    Everything after canonicalization runs on integer masks.  Vertex i
    of W (ascending) is bit i, and the r-subsets of W, in combination
    order, are bits too: a candidate's r-subset mask holds the r-subsets
    whose vertex masks lie inside its own, so it is empty exactly when
    the candidate meets W in fewer than r vertices.  The module-level
    `_search` branches on the last uncovered r-subset and only adds
    candidates covering it; options already branched on at a node are
    excluded below it, so every family is produced exactly once.  A
    covering family is minimal iff each member covers an r-subset no
    other member covers, so one pass over its masks decides it.  Output
    is deterministic: members sorted within each family, families sorted.
    """
    target = _canon_set(W)
    if len(target) < r:
        raise ValueError(f"target has {len(target)} vertices, need at least r={r}")
    bit = {v: 1 << i for i, v in enumerate(target)}
    whole = (1 << len(target)) - 1
    subsets = [sum(c) for c in itertools.combinations(bit.values(), r)]
    covering = [0] * len(subsets)  # per r-subset: mask of kept candidates over it
    kept: list[VertexSet] = []
    masks: list[int] = []
    for cand in sorted({_canon_set(c) for c in candidates}):
        vmask = 0
        for v in cand:
            vmask |= bit.get(v, 0)
        if vmask == whole:
            continue
        mask = 0
        for j, sub in enumerate(subsets):
            if vmask & sub == sub:
                mask |= 1 << j
                covering[j] |= 1 << len(kept)
        if mask:
            kept.append(cand)
            masks.append(mask)
    found: list[list[int]] = []
    _search(masks, covering, (1 << len(subsets)) - 1, 0, 0, (1 << len(kept)) - 1, found)
    return [
        CoverFamily._from_canonical(target, r, tuple(kept[i] for i in family))
        for family in sorted(found)
    ]


def _search(masks: list[int], covering: list[int], full: int, chosen: int,
            covered: int, allowed: int, found: list[list[int]]) -> None:
    # not a closure: a recursive closure is a reference cycle, which keeps
    # its whole frame alive until the cyclic collector runs
    if covered == full:
        family = [i for i in range(chosen.bit_length()) if chosen >> i & 1]
        once = twice = 0
        for i in family:
            twice |= once & masks[i]
            once |= masks[i]
        if len(family) >= 2 and all(masks[i] & ~twice for i in family):
            found.append(family)
        return
    # options: allowed candidates covering the last uncovered r-subset
    options = allowed & covering[(full & ~covered).bit_length() - 1]
    while options:
        low = options & -options
        options ^= low
        allowed ^= low  # excluded below this node once branched on
        _search(masks, covering, full, chosen | low, covered | masks[low.bit_length() - 1],
                allowed, found)


def phi(family: CoverFamily, t: int) -> Fraction:
    """Exact cover weight (|E| - 1) / m + sum over members of (|A| - r),
    with m the maximum r-density of the complete r-graph on t vertices."""
    r = family.r
    if t <= r:
        raise ValueError(f"need t > r, got t={t}, r={r}")
    if not family.members:
        raise ValueError("family must be non-empty")
    m = clique_density(t, r)
    return Fraction(family.size - 1, 1) / m + sum(len(A) - r for A in family.members)


def cover_inequality_lhs(family: CoverFamily, t: int) -> Fraction:
    """(|E| - 1) * (r - 1/m) - sum(|A|), exact; it equals -phi - r."""
    return -phi(family, t) - family.r


def check_cover_inequality(family: CoverFamily, t: int) -> bool:
    """Whether (|E| - 1) * (r - 1/m) - sum(|A|) <= -t holds, exactly.

    Precondition (enforced): the family is a minimal non-trivial r-cover
    of its t-element target set.  Non-covers raise instead of being
    evaluated silently.
    """
    r = family.r
    if t <= r:
        raise ValueError(f"need t > r, got t={t}, r={r}")
    if len(family.target) != t:
        raise ValueError(f"target has {len(family.target)} vertices, expected t={t}")
    if not family.is_nontrivial:
        raise ValueError("family is trivial (fewer than 2 members)")
    if not is_r_cover(family.target, family.members, r):
        raise ValueError("family is not an r-cover of its target")
    for skip in family.members:
        rest = [A for A in family.members if A != skip]
        if is_r_cover(family.target, rest, r):
            raise ValueError(f"family is not minimal: member {skip} is redundant")
    return cover_inequality_lhs(family, t) <= -t


def reduction_sequence(
    family: CoverFamily, t: int
) -> list[tuple[CoverFamily, Fraction]]:
    """Expand members into their r-subsets one at a time, tracking phi.

    Step i replaces the i-th original member A_i (ascending order) with
    all r-subsets of A_i; the returned list holds every intermediate
    family paired with its weight, starting from the input.  When the
    input covers W by subsets of W, the final family is exactly the set
    of all r-subsets of W and the final weight is t - r.
    """
    r = family.r
    current = set(family.members)
    out = [(family, phi(family, t))]
    for A in family.members:
        current.discard(A)
        current.update(itertools.combinations(A, r))
        step = CoverFamily(family.target, r, tuple(sorted(current)))
        out.append((step, phi(step, t)))
    return out


@dataclass(frozen=True)
class CoverBoundReport:
    """Exact evaluation of the trace-cover expectation and its bound.

    ``bound_terms`` pairs each minimal non-trivial r-cover of [t] by
    proper subsets (sizes r..min(t-1, s)) with its contribution
    prod_A C(n, s - |A|) * p^|E|; ``total`` is their sum, ``exact`` is
    E[X_W] itself (the same sum with C(n - t, s - |A|)), and
    ``reference`` is p * n^(s - t).
    """

    bound_terms: tuple[tuple[CoverFamily, Fraction], ...]
    total: Fraction
    exact: Fraction
    reference: Fraction

    @property
    def trace_count(self) -> int:
        return len(self.bound_terms)

    @property
    def ratio(self) -> Fraction:
        if self.reference == 0:
            return Fraction(0)
        return self.total / self.reference


def expected_cover_bound(
    n: int, s: int, r: int, t: int, p: Fraction | float | int
) -> CoverBoundReport:
    """Expected number E[X_W] of minimal non-trivial r-covers of a fixed
    t-set W by edges of a binomial random s-graph: exact, and bounded.

    An edge's trace on W is B & W.  A set of edges is a minimal
    non-trivial cover of W exactly when its traces are pairwise
    distinct, each a proper subset of W with at least r vertices, and
    together a minimal non-trivial cover of W: a repeated trace or a
    trace containing W makes the family reducible, and a trace below r
    vertices covers nothing.  Exactly C(n - t, s - |A|) s-sets have
    trace A, and distinct edges are present independently, so
    E[X_W] = sum over trace covers E of p^|E| * prod_A C(n - t, s - |A|).
    The bound counts C(n, s - |A|) extensions per trace, so each of its
    terms is at least the exact one.  Trace sizes are capped at
    min(t - 1, s), since more than s vertices cannot fit in one edge.
    """
    _check_srt(s, r, t)
    if n < s:
        raise ValueError(f"need n >= s, got n={n}, s={s}")
    pfrac = Fraction(p)
    if not 0 <= pfrac <= 1:
        raise ValueError(f"probability must be in [0, 1], got {pfrac}")
    target = tuple(range(1, t + 1))
    hi = min(t - 1, s)
    candidates = [
        A
        for size in range(r, hi + 1)
        for A in itertools.combinations(target, size)
    ]
    traces = enumerate_minimal_nontrivial_covers(target, candidates, r)
    terms = []
    total = exact = Fraction(0)
    for family in traces:
        term = hit = pfrac ** family.size
        for A in family.members:
            term *= comb(n, s - len(A))
            hit *= comb(n - t, s - len(A))
        terms.append((family, term))
        total += term
        exact += hit
    reference = pfrac * Fraction(n) ** (s - t)
    return CoverBoundReport(
        bound_terms=tuple(terms), total=total, exact=exact, reference=reference,
    )
