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
* ``expected_cover_bound``: the exact evaluation of
  sum over trace covers E of prod_A C(n, s - |A|) * p^|E|,
  an upper bound for the expected number of minimal non-trivial r-covers
  of a fixed t-set by edges of a binomial random s-graph, reported next
  to the reference value p * n^(s-t).

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
    "check_cover_inequality",
    "reduction_sequence",
    "expected_cover_bound",
]

VertexSet = tuple[int, ...]


def _canon_set(vertices: Iterable[int]) -> VertexSet:
    return tuple(sorted({int(v) for v in vertices}))


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

    The search branches on the lexicographically first uncovered
    r-subset and only adds candidates covering it; options already
    branched on at a node are excluded below it, so every family is
    produced exactly once.  A final remove-one check enforces
    minimality.  Output is deterministic: members sorted within each
    family, families sorted.
    """
    target = _canon_set(W)
    if len(target) < r:
        raise ValueError(f"target has {len(target)} vertices, need at least r={r}")
    target_set = set(target)
    cands = sorted({_canon_set(c) for c in candidates})
    kept: list[VertexSet] = []
    masks: list[int] = []
    rsubs = list(itertools.combinations(target, r))
    sub_index = {B: i for i, B in enumerate(rsubs)}
    for cand in cands:
        cset = set(cand)
        inter = cset & target_set
        if len(inter) < r or target_set <= cset:
            continue
        mask = 0
        for B in itertools.combinations(sorted(inter), r):
            mask |= 1 << sub_index[B]
        kept.append(cand)
        masks.append(mask)
    full = (1 << len(rsubs)) - 1
    if full == 0:
        return []

    found: list[tuple[VertexSet, ...]] = []

    def minimal(chosen: list[int]) -> bool:
        for skip in range(len(chosen)):
            rest = 0
            for j, idx in enumerate(chosen):
                if j != skip:
                    rest |= masks[idx]
            if rest == full:
                return False
        return True

    def search(chosen: list[int], covered: int, allowed: list[int]) -> None:
        if covered == full:
            if len(chosen) >= 2 and minimal(chosen):
                found.append(tuple(kept[i] for i in sorted(chosen)))
            return
        branch_bit = (~covered & full).bit_length() - 1
        # options: allowed candidates covering the first uncovered r-subset
        options = [i for i in allowed if masks[i] >> branch_bit & 1]
        for pos, idx in enumerate(options):
            remaining = [i for i in allowed if i not in options[: pos + 1]]
            chosen.append(idx)
            search(chosen, covered | masks[idx], remaining)
            chosen.pop()

    search([], 0, list(range(len(kept))))
    families = sorted(set(found))
    return [CoverFamily(target, r, members) for members in families]


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
    """(|E| - 1) * (r - 1/m) - sum(|A|), exact."""
    r = family.r
    m = clique_density(t, r)
    return (family.size - 1) * (r - Fraction(1, 1) / m) - sum(len(A) for A in family.members)


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
    """Exact evaluation of the trace-cover expectation bound.

    ``bound_terms`` pairs each minimal non-trivial r-cover of [t] by
    proper subsets (sizes r..min(t-1, s)) with its contribution
    prod_A C(n, s - |A|) * p^|E|; ``total`` is their sum and
    ``reference`` is p * n^(s - t).
    """

    n: int
    s: int
    r: int
    t: int
    p: Fraction
    bound_terms: tuple[tuple[CoverFamily, Fraction], ...]
    total: Fraction
    reference: Fraction

    @property
    def trace_count(self) -> int:
        return len(self.bound_terms)

    @property
    def ratio(self) -> Fraction:
        if self.reference == 0:
            return Fraction(0)
        return self.total / self.reference

    def to_json_dict(self) -> dict:
        return {
            "kind": "cover_bound",
            "n": self.n,
            "s": self.s,
            "r": self.r,
            "t": self.t,
            "p": str(self.p),
            "trace_count": self.trace_count,
            "bound": str(self.total),
            "reference": str(self.reference),
            "ratio": str(self.ratio),
        }


def expected_cover_bound(
    n: int, s: int, r: int, t: int, p: Fraction | float | int
) -> CoverBoundReport:
    """Exact upper bound for the expected number of minimal non-trivial
    r-covers of a fixed t-set by edges of a binomial random s-graph.

    Every cover by s-edges traces to a minimal non-trivial cover of [t]
    by proper subsets of [t]; a trace member A extends to at most
    C(n, s - |A|) edges, and a cover of size k occurs with probability
    p^k.  Member sizes are capped at min(t - 1, s): below r a member is
    useless, t or above collapses to the trivial cover, and more than s
    vertices cannot fit in one edge.
    """
    if not (s >= t > r >= 2):
        raise ValueError(f"need s >= t > r >= 2, got s={s}, t={t}, r={r}")
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
    total = Fraction(0)
    for family in traces:
        term = pfrac ** family.size
        for A in family.members:
            term *= comb(n, s - len(A))
        terms.append((family, term))
        total += term
    reference = pfrac * Fraction(n) ** (s - t)
    return CoverBoundReport(
        n=n, s=s, r=r, t=t, p=pfrac,
        bound_terms=tuple(terms), total=total, reference=reference,
    )
