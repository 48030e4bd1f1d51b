"""Random s-graph sampling, violation cleaning, and coloring lifts.

The pipeline: sample a binomial random s-graph H(n, s, p), locate the two
kinds of bad configurations

* overlap pairs: edge pairs meeting in >= r vertices (breaking
  r-linearity),
* cover violations: minimal non-trivial r-covers of t-sets by edges
  (breaking (r, t)-conformality),

delete one edge per configuration, and re-verify the survivor.  A clean
r-linear hypergraph admits a well-defined lift of any edge coloring of
the complete r-graph on [1..s] to its primal r-graph.

Randomness: every sampling call takes an explicit 64-bit seed and uses
numpy's PCG64 stream seeded through ``SeedSequence(seed)``.  Trial i of a
multi-trial run uses the derived seed ``trial_seed(master_seed, i)``
(SHA-256 based, platform independent).  Identical seeds give identical
hypergraphs; reports contain no wall-clock data, so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from statistics import fmean
from typing import Sequence

import numpy as np

from .covers import CoverFamily, enumerate_minimal_nontrivial_covers
from .hypergraph import (
    Edge,
    EdgeColoring,
    UniformHypergraph,
    enumerate_cliques,
    primal_r_graph,
)

__all__ = [
    "NotLinearError",
    "InternalContradictionError",
    "CleanReport",
    "TrialRecord",
    "TrialStats",
    "CoverCountEstimate",
    "parse_probability",
    "trial_seed",
    "sample_hypergraph",
    "linearity_violations",
    "conformality_violations",
    "is_r_linear",
    "is_conformal",
    "clean",
    "lift_coloring",
    "run_trials",
    "estimate_cover_count",
]

_MAX_SEED = 2**64 - 1

# Below this many candidate edges the sampler evaluates one Bernoulli
# trial per candidate; above it, it draws the edge count from the exact
# binomial law and picks that many distinct edges uniformly.  Both
# realize the same product-Bernoulli distribution.
DEFAULT_DENSE_LIMIT = 1 << 20
MAX_EDGES = 2_000_000


class NotLinearError(ValueError):
    """An operation required an r-linear hypergraph; carries one violating pair."""

    def __init__(self, r: int, pair: tuple[Edge, Edge]):
        self.r = r
        self.pair = pair
        super().__init__(
            f"hypergraph is not {r}-linear: edges {pair[0]} and {pair[1]} "
            f"share >= {r} vertices"
        )


class InternalContradictionError(RuntimeError):
    """Cleaning failed to produce a linear, conformal hypergraph.

    Deleting one edge per recorded configuration provably destroys every
    violation, so reaching this state means the implementation (not the
    input) is wrong; it must be surfaced, never patched silently.
    """


def parse_probability(value: str | float | Fraction | int, n: int | None = None) -> Fraction:
    """Parse a probability given as a decimal, a rational ``a/b``, or a
    power ``n^x`` with rational x (evaluated at the supplied n).

    The result is an exact fraction.  For ``n^x`` with non-integer x the
    value is generally irrational; it is replaced by a 60-significant-
    digit decimal rounded UP, so every quantity that grows with p (the
    exact expectation bounds evaluated downstream) stays a true upper
    bound.
    """
    if isinstance(value, (Fraction, int)):
        p = Fraction(value)
    elif isinstance(value, float):
        p = Fraction(value)
    else:
        text = value.strip()
        m = re.fullmatch(r"n\^\(?(-?\d+(?:\.\d+)?(?:/\d+)?)\)?", text)
        if m:
            if n is None:
                raise ValueError(f"probability {text!r} needs a concrete n")
            exponent = Fraction(m.group(1))
            p = _rational_power_up(n, exponent)
        else:
            try:
                p = Fraction(text)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"cannot parse probability {value!r}") from None
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return p


def _int_nth_root(x: int, b: int) -> int:
    """floor(x ** (1/b)) for non-negative integers, by Newton iteration."""
    if x < 0 or b < 1:
        raise ValueError("need x >= 0 and b >= 1")
    if x == 0:
        return 0
    root = 1 << (-(-x.bit_length() // b))
    while True:
        nxt = ((b - 1) * root + x // root ** (b - 1)) // b
        if nxt >= root:
            break
        root = nxt
    while root ** b > x:
        root -= 1
    while (root + 1) ** b <= x:
        root += 1
    return root


def _rational_power_up(base: int, exponent: Fraction, digits: int = 60) -> Fraction:
    """base ** exponent as a fraction; exact for integer exponents, else
    rounded up at `digits` significant decimal digits."""
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    a, b = exponent.numerator, exponent.denominator
    power = Fraction(base) ** a
    if b == 1:
        return power
    scale = 10 ** digits
    target = power.numerator * scale ** b // power.denominator
    root = _int_nth_root(target, b)
    return Fraction(root + 1, scale)


def trial_seed(master_seed: int, index: int) -> int:
    """Derived 64-bit seed for trial `index`; SHA-256 of (master, index)."""
    digest = hashlib.sha256(f"ramseykit:{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _check_seed(seed: int) -> int:
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed}")
    return seed


@lru_cache(maxsize=8)
def _comb_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    # table[j][m] = C(m, j); one table per (n, k) keeps unranking cheap
    return tuple(tuple(comb(m, j) for m in range(n + 1)) for j in range(k + 1))


def _unrank_subset(rank: int, n: int, k: int) -> Edge:
    """The rank-th k-subset of 1..n in lexicographic order (0-based rank).

    Counted from the last subset, q = C(n, k) - 1 - rank has the unique
    combinatorial-number-system form q = C(c_k, k) + ... + C(c_1, 1)
    with n > c_k > ... > c_1 >= 0, and the subset is {n - c_j}
    (Knuth, TAOCP 7.2.1.3).  Each c_j is the largest c with
    C(c, j) <= q, found by bisecting column j of the cached table, so
    one subset costs O(k log n) instead of a walk over 1..n.  The rank
    -> subset map is the same lexicographic bijection as that walk.
    """
    table = _comb_table(n, k)
    q = table[k][n] - 1 - rank
    out = []
    c = n
    for j in range(k, 0, -1):
        c = bisect_right(table[j], q, 0, c) - 1
        q -= table[j][c]
        out.append(n - c)
    return tuple(out)


def sample_hypergraph(
    n: int,
    s: int,
    p: float | Fraction,
    seed: int,
    *,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> UniformHypergraph:
    """Binomial random s-graph on [1..n]: every s-subset is an edge
    independently with probability p.

    Identical (n, s, p, seed) give identical output.  With at most
    `dense_limit` candidate subsets each candidate gets one Bernoulli
    draw; otherwise the edge count is drawn from the exact binomial law
    and that many distinct subsets are chosen uniformly (rejection on
    subset ranks), which realizes the same distribution.  Realized edge
    counts beyond MAX_EDGES are refused.
    """
    if n < s or s < 2:
        raise ValueError(f"need n >= s >= 2, got n={n}, s={s}")
    pf = float(p)
    if not 0.0 <= pf <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    _check_seed(seed)
    total = comb(n, s)
    if pf == 0.0 or total == 0:
        return UniformHypergraph._from_canonical(n, s, ())
    if total >= 2**63:
        raise ValueError(
            f"C({n},{s}) = {total} candidate edges exceeds the supported "
            "sampling scale (needs to fit a signed 64-bit integer)"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if total <= dense_limit:
        mask = rng.random(total) < pf
        count = int(mask.sum())
        if count > MAX_EDGES:
            raise ValueError(f"sampled {count} edges, above max_edges={MAX_EDGES}")
        edges = tuple(
            itertools.compress(itertools.combinations(range(1, n + 1), s), mask)
        )
        return UniformHypergraph._from_canonical(n, s, edges)
    count = int(rng.binomial(total, pf))
    if count > MAX_EDGES:
        raise ValueError(f"sampled {count} edges, above max_edges={MAX_EDGES}")
    chosen: set[int] = set()
    need = count
    while need > 0:
        batch = rng.integers(0, total, size=need + 8)
        for x in batch:
            xi = int(x)
            if xi not in chosen:
                chosen.add(xi)
                need -= 1
                if need == 0:
                    break
    edges = tuple(sorted(_unrank_subset(rank, n, s) for rank in chosen))
    return UniformHypergraph._from_canonical(n, s, edges)


def linearity_violations(H: UniformHypergraph, r: int) -> list[tuple[Edge, Edge]]:
    """All unordered edge pairs sharing >= r vertices, lex ascending.

    Pairs are found by bucketing edges on their r-subsets, so sparse
    inputs avoid a quadratic scan.  Empty iff H is r-linear.
    """
    if not 2 <= r <= H.k:
        raise ValueError(f"need 2 <= r <= {H.k}, got r={r}")
    buckets: dict[Edge, list[Edge]] = defaultdict(list)
    pairs: set[tuple[Edge, Edge]] = set()
    for A in H.edges:  # lex order, so earlier bucket entries are lex-smaller
        for B in itertools.combinations(A, r):
            for prev in buckets[B]:
                pairs.add((prev, A))
            buckets[B].append(A)
    return sorted(pairs)


def is_r_linear(H: UniformHypergraph, r: int) -> bool:
    return not linearity_violations(H, r)


def conformality_violations(
    H: UniformHypergraph, r: int, t: int
) -> list[tuple[tuple[int, ...], CoverFamily]]:
    """All (W, cover) pairs witnessing failures of (r, t)-conformality.

    Candidate sets W are exactly the t-cliques of the primal r-graph: any
    W whose r-subsets are covered by edges spans such a clique.  For
    every candidate not contained in a single edge, each minimal
    non-trivial r-cover of W by edges of H is reported.  Empty iff H is
    (r, t)-conformal.

    A vertex -> incident-edges index, built once per call, keeps the work
    per candidate proportional to the edges at its vertices: an edge
    containing W contains W[0], and an edge meeting W in r >= 2 vertices
    is incident to one of them.  The cover enumeration sorts and
    deduplicates its candidates, so their order here does not matter and
    the output matches a scan over all of H's edges.
    """
    if not (H.k >= t > r >= 2):
        raise ValueError(f"need s >= t > r >= 2, got s={H.k}, t={t}, r={r}")
    primal = primal_r_graph(H, r)
    out: list[tuple[tuple[int, ...], CoverFamily]] = []
    edge_sets = [set(A) for A in H.edges]
    incident: dict[int, list[int]] = defaultdict(list)
    for i, A in enumerate(H.edges):
        for v in A:
            incident[v].append(i)
    for W in enumerate_cliques(primal, t):
        wset = set(W)
        if any(wset <= edge_sets[i] for i in incident[W[0]]):
            continue
        near = {i for v in W for i in incident[v]}
        relevant = [H.edges[i] for i in near if len(edge_sets[i] & wset) >= r]
        for fam in enumerate_minimal_nontrivial_covers(W, relevant, r):
            out.append((W, fam))
    return out


def is_conformal(H: UniformHypergraph, r: int, t: int) -> bool:
    return not conformality_violations(H, r, t)


@dataclass(frozen=True)
class CleanReport:
    """Outcome of one cleaning pass.

    The violating configurations are the ones found on the ORIGINAL
    hypergraph; `deleted` is the union of one edge per configuration
    (the lex-smallest choice), and `result` is re-verified r-linear and
    (r, t)-conformal before the report is returned.
    """

    r: int
    t: int
    input_edges: int
    linearity_violations: tuple[tuple[Edge, Edge], ...]
    cover_violations: tuple[tuple[tuple[int, ...], CoverFamily], ...]
    deleted: tuple[Edge, ...]
    result: UniformHypergraph

    @property
    def num_linearity_violations(self) -> int:
        return len(self.linearity_violations)

    @property
    def num_cover_violations(self) -> int:
        return len(self.cover_violations)

    @property
    def deleted_fraction(self) -> Fraction:
        if self.input_edges == 0:
            return Fraction(0)
        return Fraction(len(self.deleted), self.input_edges)

    def to_json_dict(self, result_file: str | None = None) -> dict:
        return {
            "kind": "construct",
            "n": self.result.n,
            "s": self.result.k,
            "r": self.r,
            "t": self.t,
            "input_edges": self.input_edges,
            "num_linearity_violations": self.num_linearity_violations,
            "num_cover_violations": self.num_cover_violations,
            "linearity_violations": [
                [list(a), list(b)] for a, b in self.linearity_violations
            ],
            "cover_violations": [
                {"target": list(w), "members": [list(m) for m in fam.members]}
                for w, fam in self.cover_violations
            ],
            "deleted": [list(e) for e in self.deleted],
            "result_edges": self.result.num_edges,
            "deleted_fraction": str(self.deleted_fraction),
            "result_file": result_file,
        }


def clean(H: UniformHypergraph, r: int, t: int) -> CleanReport:
    """Delete one edge per bad configuration of H and re-verify.

    From every overlap pair the lex-smaller edge is deleted; from every
    minimal non-trivial cover the lex-smallest member.  An edge hit by
    several configurations is deleted once.  Configurations are computed
    once, on the input; if the survivor still had a violation the
    deletion argument itself would be broken, so that state raises
    InternalContradictionError instead of being repaired quietly.
    """
    lin = tuple(linearity_violations(H, r))
    cov = tuple(conformality_violations(H, r, t))
    doomed: set[Edge] = set()
    for a, b in lin:
        doomed.add(min(a, b))
    for _, fam in cov:
        doomed.add(min(fam.members))
    result = UniformHypergraph._from_canonical(
        H.n, H.k, tuple(e for e in H.edges if e not in doomed)
    )
    if not is_r_linear(result, r) or not is_conformal(result, r, t):
        left = linearity_violations(result, r)
        if left:
            a, b = left[0]
            culprit = f"edges {a} and {b} share >= {r} vertices"
        else:
            W, fam = conformality_violations(result, r, t)[0]
            culprit = f"{W} is covered by {', '.join(map(str, fam.members))}"
        raise InternalContradictionError(
            f"cleaning left a violation: deleted {len(doomed)} of "
            f"{H.num_edges} edges for {len(lin)} overlap pairs and "
            f"{len(cov)} cover violations, yet the survivor is not "
            f"{r}-linear and ({r},{t})-conformal: {culprit}"
        )
    return CleanReport(
        r=r,
        t=t,
        input_edges=H.num_edges,
        linearity_violations=lin,
        cover_violations=cov,
        deleted=tuple(sorted(doomed)),
        result=result,
    )


def lift_coloring(
    H0: UniformHypergraph, r: int, base: EdgeColoring
) -> EdgeColoring:
    """Transport a coloring of the complete r-graph on [1..s] to the
    primal r-graph of an r-linear s-graph H0.

    For each edge A of H0, the ascending enumeration of A defines the
    order isomorphism onto [1..s]; every r-subset of A inherits the base
    color of its image.  r-linearity makes every primal edge lie in
    exactly one H0-edge, so each edge is colored exactly once.
    """
    s = H0.k
    viol = linearity_violations(H0, r)
    if viol:
        raise NotLinearError(r, viol[0])
    if base.host.n != s or base.host.k != r or base.host.num_edges != comb(s, r):
        raise ValueError(
            f"base coloring must color the complete {r}-graph on [1..{s}], "
            f"got n={base.host.n}, k={base.host.k}, edges={base.host.num_edges}"
        )
    assignment: dict[Edge, int] = {}
    for A in H0.edges:
        position = {v: i + 1 for i, v in enumerate(A)}
        for B in itertools.combinations(A, r):
            image = tuple(position[v] for v in B)
            assignment[B] = base.color_of(image)
    return EdgeColoring(primal_r_graph(H0, r), base.num_colors, assignment)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    seed: int
    edges_sampled: int
    cover_violations: int
    linearity_violations: int
    deleted: int
    edges_clean: int


@dataclass(frozen=True)
class TrialStats:
    """Aggregated outcomes of repeated sample-and-clean trials.

    Every aggregate is recomputable from `records`; the CSV column order
    is fixed (seed, e_H, X, Y, deleted, e_H0) with X the cover-violation
    count and Y the overlap-pair count.
    """

    n: int
    s: int
    r: int
    t: int
    p: Fraction
    trials: int
    master_seed: int
    records: tuple[TrialRecord, ...]

    @property
    def mean_edges(self) -> float:
        return fmean(rec.edges_sampled for rec in self.records)

    @property
    def mean_cover_violations(self) -> float:
        return fmean(rec.cover_violations for rec in self.records)

    @property
    def mean_linearity_violations(self) -> float:
        return fmean(rec.linearity_violations for rec in self.records)

    @property
    def mean_deleted(self) -> float:
        return fmean(rec.deleted for rec in self.records)

    @property
    def mean_deleted_fraction(self) -> float:
        return fmean(
            rec.deleted / rec.edges_sampled if rec.edges_sampled else 0.0
            for rec in self.records
        )

    @property
    def violation_edge_ratio(self) -> float:
        """(mean X + mean Y) / mean e(H); 0 when no edges were sampled."""
        if self.mean_edges == 0:
            return 0.0
        return (self.mean_cover_violations + self.mean_linearity_violations) / self.mean_edges

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["seed", "e_H", "X", "Y", "deleted", "e_H0"])
        for rec in self.records:
            writer.writerow(
                [
                    rec.seed,
                    rec.edges_sampled,
                    rec.cover_violations,
                    rec.linearity_violations,
                    rec.deleted,
                    rec.edges_clean,
                ]
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "kind": "experiment",
            "n": self.n,
            "s": self.s,
            "r": self.r,
            "t": self.t,
            "p": str(self.p),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "mean_edges": self.mean_edges,
            "mean_cover_violations": self.mean_cover_violations,
            "mean_linearity_violations": self.mean_linearity_violations,
            "mean_deleted": self.mean_deleted,
            "mean_deleted_fraction": self.mean_deleted_fraction,
            "violation_edge_ratio": self.violation_edge_ratio,
        }


def _trial_hypergraphs(
    n: int, s: int, p: float | Fraction, trials: int, master_seed: int
):
    """Yield (seed, H) for trials 0..trials-1, where trial i samples
    H(n, s, p) on the derived seed ``trial_seed(master_seed, i)``."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    _check_seed(master_seed)
    for i in range(trials):
        seed = trial_seed(master_seed, i)
        yield seed, sample_hypergraph(n, s, p, seed)


def run_trials(
    n: int,
    s: int,
    r: int,
    t: int,
    p: float | Fraction,
    trials: int,
    master_seed: int,
) -> TrialStats:
    """Sample, count violations, and clean, `trials` times.

    Trial i runs on the derived seed ``trial_seed(master_seed, i)``, so
    trials are independent streams and the whole run is reproducible
    from the master seed alone.
    """
    records = []
    for i, (seed, H) in enumerate(_trial_hypergraphs(n, s, p, trials, master_seed)):
        report = clean(H, r, t)
        records.append(
            TrialRecord(
                index=i,
                seed=seed,
                edges_sampled=H.num_edges,
                cover_violations=report.num_cover_violations,
                linearity_violations=report.num_linearity_violations,
                deleted=len(report.deleted),
                edges_clean=report.result.num_edges,
            )
        )
    return TrialStats(
        n=n, s=s, r=r, t=t, p=Fraction(p), trials=trials,
        master_seed=master_seed, records=tuple(records),
    )


@dataclass(frozen=True)
class CoverCountEstimate:
    """Monte Carlo estimate of the expected number of minimal
    non-trivial r-covers of a fixed t-set by edges of H(n, s, p)."""

    target: tuple[int, ...]
    trials: int
    mean: float
    std_error: float


def estimate_cover_count(
    n: int,
    s: int,
    r: int,
    t: int,
    p: float | Fraction,
    trials: int,
    master_seed: int,
    target: Sequence[int] | None = None,
) -> CoverCountEstimate:
    """Estimate E(X_W) for W = `target` (default [1..t]) by sampling."""
    if not (s >= t > r >= 2):
        raise ValueError(f"need s >= t > r >= 2, got s={s}, t={t}, r={r}")
    W = tuple(range(1, t + 1)) if target is None else tuple(sorted(target))
    if len(W) != t:
        raise ValueError(f"target must have t={t} vertices, got {len(W)}")
    wset = set(W)
    counts = []
    for _, H in _trial_hypergraphs(n, s, p, trials, master_seed):
        relevant = [A for A in H.edges if len(wset.intersection(A)) >= r]
        if len(relevant) >= 2:
            counts.append(len(enumerate_minimal_nontrivial_covers(W, relevant, r)))
        else:
            counts.append(0)
    mean = fmean(counts)
    if trials > 1:
        var = sum((c - mean) ** 2 for c in counts) / (trials - 1)
        std_error = (var / trials) ** 0.5
    else:
        std_error = float("inf")
    return CoverCountEstimate(target=W, trials=trials, mean=mean, std_error=std_error)
