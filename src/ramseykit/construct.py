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
numpy's PCG64 stream seeded through ``SeedSequence(seed)``.  numpy is
loaded only when `sample_hypergraph` draws, so a process that never
samples (``ramsey``, ``arrow``, ``density``) does not import it.  Trial
i of a multi-trial run uses the derived seed ``trial_seed(master_seed,
i)`` (SHA-256 based, platform independent).  Identical seeds give
identical hypergraphs; reports contain no wall-clock data, so reruns are
byte-identical.  `run_trials` runs blocks of trials in forked children,
one block per usable CPU, and computes itself whatever a child does not
report in full, so its records do not depend on the number of CPUs.
"""

from __future__ import annotations

import hashlib
import itertools
import marshal
import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log2
from statistics import fmean

from .covers import CoverFamily, _check_srt, enumerate_minimal_nontrivial_covers
from .hypergraph import (
    Edge,
    EdgeColoring,
    InternalContradictionError,
    UniformHypergraph,
    enumerate_cliques,
    primal_r_graph,
)

__all__ = [
    "NotLinearError",
    "CleanReport",
    "TrialRecord",
    "TrialStats",
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
]

_MAX_SEED = 2**64 - 1

# Below this many candidate edges the sampler evaluates one Bernoulli
# trial per candidate; above it, it draws the edge count from the exact
# binomial law and picks that many distinct edges uniformly.  Both
# realize the same product-Bernoulli distribution.
DEFAULT_DENSE_LIMIT = 1 << 20
MAX_EDGES = 2_000_000

# Largest denominator of x in ``n^x``; the root's integers grow by ~200 bits per
# unit.  The slowest power in [10^-60, 1] took 0.03 s at 1000 and 0.08 s at 2000
# (2-vCPU x86-64, Python 3.11).
MAX_EXPONENT_DENOMINATOR = 1000


class NotLinearError(ValueError):
    """An operation required an r-linear hypergraph; carries one violating pair."""

    def __init__(self, r: int, pair: tuple[Edge, Edge]):
        self.r = r
        self.pair = pair
        super().__init__(
            f"hypergraph is not {r}-linear: edges {pair[0]} and {pair[1]} "
            f"share >= {r} vertices"
        )


def parse_probability(value: str, n: int | None = None) -> Fraction:
    """Parse a probability given as a decimal, a rational ``a/b``, or a
    power ``n^x`` (evaluated at the supplied n), x a decimal or a rational
    with denominator <= MAX_EXPONENT_DENOMINATOR, bare or in parentheses.

    The result is an exact fraction.  For ``n^x`` with non-integer x the
    value is generally irrational; it is rounded UP to a multiple of
    10^-60, so every quantity that grows with p (the exact expectation
    bounds evaluated downstream) stays a true upper bound.  Such a power
    below 10^-60 is refused, not rounded up to 10^-60.
    """
    text = value.strip()
    # (?(1)\)) closes a parenthesis exactly when one was opened
    m = re.fullmatch(r"n\^(\()?(-?\d+(?:\.\d+|/\d+)?)(?(1)\))", text)
    try:
        p = Fraction(m.group(2) if m else text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse probability {value!r}") from None
    if m:
        if n is None:
            raise ValueError(f"probability {text!r} needs a concrete n")
        if p.denominator > (cap := MAX_EXPONENT_DENOMINATOR):
            raise ValueError(f"exponent {p} of {text!r} has a denominator above {cap}; "
                             f"round it or write it as a/b with b <= {cap}")
        p = _rational_power_up(n, p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return p


def _int_nth_root(x: int, b: int) -> int:
    """floor(x ** (1/b)) for non-negative integers, by Newton iteration.

    Exact with no correction step.  Let k = floor(x^(1/b)).  A step sends
    y > 0 to floor(((b-1)*y + x/y^(b-1)) / b) (the inner floor changes
    nothing), and by AM-GM that mean is >= x^(1/b), so the iterates after a
    float estimate of the root are all >= k, and start near k.  While y > k,
    y^b > x makes the step < y.  So the iterates fall strictly to k, where
    the next one is >= k and the loop stops.
    """
    if x < 0 or b < 1:
        raise ValueError(f"need x >= 0 and b >= 1, got x={x}, b={b}")
    if x == 0:
        return 0
    e = log2(x) / b  # the root is about 2^e; the shift keeps the float small
    shift = max(int(e) - 52, 0)
    root = (int(2.0 ** (e - shift)) + 1) << shift
    root = ((b - 1) * root + x // root ** (b - 1)) // b
    while True:
        nxt = ((b - 1) * root + x // root ** (b - 1)) // b
        if nxt >= root:
            return root
        root = nxt


def _rational_power_up(base: int, exponent: Fraction) -> Fraction:
    """base ** exponent as a fraction; exact for integer exponents, else
    rounded up to a multiple of 10^-60."""
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    a, b = exponent.numerator, exponent.denominator
    power = Fraction(base) ** a
    if b == 1:
        return power
    scale = 10 ** 60
    target = power.numerator * scale ** b // power.denominator
    root = _int_nth_root(target, b)
    if root == 0:
        raise ValueError(f"{base}^({exponent}) is below 10^-60, the "
                         "resolution of non-integer powers")
    return Fraction(root + 1, scale)


def trial_seed(master_seed: int, index: int) -> int:
    """Derived 64-bit seed for trial `index`; SHA-256 of (master, index)."""
    digest = hashlib.sha256(f"ramseykit:{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _check_seed(seed: int) -> int:
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit non-negative integer, got {seed}")
    return seed


def _comb_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    # table[j][m] = C(m, j) for 0 <= j <= k, 0 <= m <= n; row j comes from
    # row j - 1 by the hockey-stick identity C(m, j) = sum_{i<m} C(i, j-1)
    rows = [(1,) * (n + 1)]
    for _ in range(k):
        rows.append(tuple(itertools.accumulate(rows[-1][:-1], initial=0)))
    return tuple(rows)


def _unrank_subset(rank: int, table: tuple[tuple[int, ...], ...]) -> Edge:
    """The rank-th k-subset of 1..n in lexicographic order (0-based rank),
    where ``table = _comb_table(n, k)``.

    Counted from the last subset, q = C(n, k) - 1 - rank has the unique
    combinatorial-number-system form q = C(c_k, k) + ... + C(c_1, 1)
    with n > c_k > ... > c_1 >= 0, and the subset is {n - c_j}
    (Knuth, TAOCP 7.2.1.3).  Each c_j is the largest c with
    C(c, j) <= q, found by bisecting row j of the table, so one subset
    costs O(k log n) instead of a walk over 1..n.  The rank -> subset
    map is the same lexicographic bijection as that walk.
    """
    k = len(table) - 1
    n = len(table[0]) - 1
    q = table[k][n] - 1 - rank
    out = []
    c = n
    for j in range(k, 0, -1):
        c = bisect_right(table[j], q, 0, c) - 1
        q -= table[j][c]
        out.append(n - c)
    return tuple(out)


def sample_hypergraph(n: int, s: int, p: float | Fraction, seed: int) -> UniformHypergraph:
    """Binomial random s-graph on [1..n]: every s-subset is an edge
    independently with probability p.

    Identical (n, s, p, seed) give identical output.  With at most
    DEFAULT_DENSE_LIMIT candidate subsets each candidate gets one Bernoulli
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
    import numpy as np  # here, not at module level: see the module docstring

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if total <= DEFAULT_DENSE_LIMIT:
        mask = rng.random(total) < pf
        count = int(mask.sum())
        if count > MAX_EDGES:
            raise ValueError(f"sampled {count} edges, above MAX_EDGES={MAX_EDGES}")
        edges = tuple(
            itertools.compress(itertools.combinations(range(1, n + 1), s), mask)
        )
        return UniformHypergraph._from_canonical(n, s, edges)
    count = int(rng.binomial(total, pf))
    if count > MAX_EDGES:
        raise ValueError(f"sampled {count} edges, above MAX_EDGES={MAX_EDGES}")
    chosen: set[int] = set()
    while len(chosen) < count:  # redraw repeated ranks, 8 spare draws per batch
        for rank in rng.integers(0, total, size=count - len(chosen) + 8).tolist():
            chosen.add(rank)
            if len(chosen) == count:
                break
    table = _comb_table(n, s)
    edges = tuple(sorted(_unrank_subset(rank, table) for rank in chosen))
    return UniformHypergraph._from_canonical(n, s, edges)


def _r_subset_holders(
    H: UniformHypergraph, r: int
) -> tuple[dict[Edge, Edge], dict[Edge, list[Edge]]]:
    """owner[B] is the lex-first edge of H containing the r-subset B;
    others[B], present only for B in two or more edges, lists the later
    ones in lex order.  The keys of owner are the primal r-graph's edges."""
    owner: dict[Edge, Edge] = {}
    others: dict[Edge, list[Edge]] = {}
    for A in H.edges:  # lex order
        for B in itertools.combinations(A, r):
            if owner.setdefault(B, A) is not A:
                others.setdefault(B, []).append(A)
    return owner, others


def linearity_violations(H: UniformHypergraph, r: int) -> list[tuple[Edge, Edge]]:
    """All unordered edge pairs sharing >= r vertices, lex ascending.

    Two edges share >= r vertices iff some r-subset lies in both, so the
    pairs are those among the holders of each r-subset held twice or
    more; sparse inputs avoid a quadratic scan.  Empty iff H is r-linear.
    """
    if not 2 <= r <= H.k:
        raise ValueError(f"need 2 <= r <= {H.k}, got r={r}")
    owner, others = _r_subset_holders(H, r)
    pairs: set[tuple[Edge, Edge]] = set()
    for B, later in others.items():
        pairs.update(itertools.combinations([owner[B], *later], 2))
    return sorted(pairs)


def is_r_linear(H: UniformHypergraph, r: int) -> bool:
    return not linearity_violations(H, r)


def _hinged_part(H: UniformHypergraph, G: UniformHypergraph) -> UniformHypergraph:
    """The subgraph of G, H's primal r-graph, on its hinged r-sets: those
    with no lonely (r-1)-subset, one that lies in just one edge of H.
    G itself when no (r-1)-subset is lonely, which is exactly when every
    r-set is hinged: a lonely subset of an edge A, grown by a vertex of
    A, is an unhinged r-set of G."""
    r = G.k
    seen: set[Edge] = set()
    shared: set[Edge] = set()
    for A in H.edges:
        for S in itertools.combinations(A, r - 1):
            (shared if S in seen else seen).add(S)
    lonely = seen - shared
    if not lonely:
        return G
    hinged = tuple(B for B in G.edges if lonely.isdisjoint(itertools.combinations(B, r - 1)))
    return UniformHypergraph._from_canonical(G.n, r, hinged)


def conformality_violations(H: UniformHypergraph, r: int, t: int) -> list[CoverFamily]:
    """All covers witnessing failures of (r, t)-conformality; each
    family's `target` is the t-set W it covers.

    Candidate sets W are the t-cliques of the primal r-graph that lie in
    no single edge: any W whose r-subsets are covered by edges spans such
    a clique.  For each, every minimal non-trivial r-cover of W by edges
    of H is reported, candidates in lex order.  Empty iff H is
    (r, t)-conformal.

    Only the hinged part of the primal graph is searched.  An r-set B is
    hinged when each of its (r-1)-subsets lies in two or more edges of H
    (at r = 2: both endpoints have degree >= 2).  Lemma: if W is a
    t-clique (t > r) and each r-subset of W has a holder that does not
    contain W, then every r-subset B of W is hinged.  Proof: fix u in B
    and a holder A of B with W not inside A, and pick w in W - A.  The
    r-set B - u + w lies in W, so some edge A' holds it; A' contains w
    and A does not, so A' != A, and both contain B - u.  No holder
    contains a W that lies in no edge, so every candidate is a t-clique
    of the hinged subgraph, and every t-clique of that subgraph is one of
    the primal graph.  `enumerate_cliques` lists them in lex order, and
    the in-edge test drops the rest, so the candidates, and the output,
    are exactly those of a scan over the whole primal graph.  The
    hypothesis holds as well for a W inside an edge that has a minimal
    non-trivial cover (no member of one contains W), so the restriction
    stays exact if such W are scanned too.  Cost: one pass over the
    (r-1)-subsets of H's edges and one over the primal r-sets.  In
    return the listing skips most t-cliques that lie inside one edge,
    since a near-linear H keeps few hinged r-sets (50 of 26,972 on a
    3-graph of 482 8-sets, whose full scan lists 33,740 such cliques).

    One r-subset index, built at the first candidate (never, when there
    is none), answers both questions a candidate W asks: `owner[B]`, the
    lex-first edge holding the r-subset B, and `others[B]`, the later
    holders of each B held twice or more.
    An edge containing W contains W[:r], so W lies in a single edge iff
    it lies in one of the holders of W[:r].  An edge meets W in >= r
    vertices iff it holds some r-subset of W, so the relevant edges are
    the holders of W's r-subsets.  The cover enumeration sorts and
    deduplicates its candidates, so their order here does not matter and
    the output matches a scan over all of H's edges.
    """
    _check_srt(H.k, r, t)
    owner = None
    out: list[CoverFamily] = []
    for W in enumerate_cliques(_hinged_part(H, primal_r_graph(H, r)), t):
        if owner is None:
            owner, others = _r_subset_holders(H, r)
        wset = set(W)
        head = W[:r]
        if wset.issubset(owner[head]) or any(map(wset.issubset, others.get(head, ()))):
            continue
        relevant = set()
        for B in itertools.combinations(W, r):
            relevant.add(owner[B])
            relevant.update(others.get(B, ()))
        out.extend(enumerate_minimal_nontrivial_covers(W, relevant, r))
    return out


def is_conformal(H: UniformHypergraph, r: int, t: int) -> bool:
    return not conformality_violations(H, r, t)


@dataclass(frozen=True)
class CleanReport:
    """Outcome of one cleaning pass.

    The violating configurations (overlap pairs, and cover families whose
    `target` is the covered t-set) are the ones found on the ORIGINAL
    hypergraph; `deleted` is the union of one edge per configuration
    (the lex-smallest choice), and `result` is re-verified r-linear and
    (r, t)-conformal before the report is returned.  The input, r and t
    stay with the caller; the report holds only what `clean` found.
    """

    linearity_violations: tuple[tuple[Edge, Edge], ...]
    cover_violations: tuple[CoverFamily, ...]
    deleted: tuple[Edge, ...]
    result: UniformHypergraph

    @property
    def num_linearity_violations(self) -> int:
        return len(self.linearity_violations)

    @property
    def num_cover_violations(self) -> int:
        return len(self.cover_violations)


def clean(H: UniformHypergraph, r: int, t: int) -> CleanReport:
    """Delete one edge per bad configuration of H and re-verify.

    From every overlap pair the lex-smaller edge is deleted; from every
    minimal non-trivial cover the lex-smallest member.  An edge hit by
    several configurations is deleted once.  Configurations are computed
    once, on the input; if the survivor still had a violation the
    deletion argument itself would be broken, so that state raises
    InternalContradictionError instead of being repaired quietly.  The
    re-verify runs the same scan, restricted to the hinged part of the
    survivor's primal graph (see `conformality_violations`); the lemma
    there makes that restriction exact, so the check stays complete.
    """
    lin = tuple(linearity_violations(H, r))
    cov = tuple(conformality_violations(H, r, t))
    doomed = {min(a, b) for a, b in lin} | {min(fam.members) for fam in cov}
    result = UniformHypergraph._from_canonical(
        H.n, H.k, tuple(e for e in H.edges if e not in doomed)
    )
    if not is_r_linear(result, r) or not is_conformal(result, r, t):
        left = linearity_violations(result, r)
        if left:
            a, b = left[0]
            culprit = f"edges {a} and {b} share >= {r} vertices"
        else:
            fam = conformality_violations(result, r, t)[0]
            culprit = f"{fam.target} is covered by {', '.join(map(str, fam.members))}"
        raise InternalContradictionError(
            f"cleaning left a violation: deleted {len(doomed)} of "
            f"{H.num_edges} edges for {len(lin)} overlap pairs and "
            f"{len(cov)} cover violations, yet the survivor is not "
            f"{r}-linear and ({r},{t})-conformal: {culprit}"
        )
    return CleanReport(
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
    color of its image, read off by position in combination order.
    H0 is r-linear (no r-subset lies in two edges) exactly when the
    assignment has e(H0) * C(s, r) keys; they are then the primal
    r-graph's edges, each colored once.  Otherwise NotLinearError names
    the lex-first overlapping pair.

    The result is built without the validating constructor, because the
    count check already proves what it would check.  The host is the
    sorted key set, so the coloring is total on it, and every key, a
    combinations() tuple of an ascending edge, is already canonical.
    With the key count equal to e(H0) * C(s, r), no key was assigned
    twice.  Every color is one of base's, so it lies in 1..L.
    `verify_good_coloring` remains the certificate for the result.
    """
    s = H0.k
    if r > s or base.host.n != s or base.host.k != r or base.host.num_edges != comb(s, r):
        raise ValueError(
            f"base coloring must color the complete {r}-graph on [1..{s}], "
            f"got n={base.host.n}, k={base.host.k}, edges={base.host.num_edges}"
        )
    # the base host is complete on [1..s], so its lex-ordered edges are
    # combinations(range(1, s + 1), r): the images of combinations(A, r)
    colors = [base.assignment[B] for B in base.host.edges]
    assignment: dict[Edge, int] = {}
    for A in H0.edges:
        assignment.update(zip(itertools.combinations(A, r), colors))
    if len(assignment) != H0.num_edges * len(colors):
        raise NotLinearError(r, linearity_violations(H0, r)[0])
    host = UniformHypergraph._from_canonical(H0.n, r, tuple(sorted(assignment)))
    return EdgeColoring._from_canonical(host, base.num_colors, assignment)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's counts; its fields, in order, are the `experiment
    --csv` columns seed, e_H, X, Y, deleted, e_H0, with X the
    cover-violation count and Y the overlap-pair count."""

    seed: int
    edges_sampled: int
    cover_violations: int
    linearity_violations: int
    deleted: int
    edges_clean: int


@dataclass(frozen=True)
class TrialStats:
    """Aggregated outcomes of repeated sample-and-clean trials.

    Every aggregate is recomputable from `records`.
    """

    records: tuple[TrialRecord, ...]

    @property
    def trials(self) -> int:
        return len(self.records)

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


def _usable_cpus() -> int:
    """How many CPUs this process may run on (`taskset` narrows them)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _trial_rows(n, s, r, t, p, seeds: list[int]) -> list[tuple[int, ...]]:
    """Each trial's `TrialRecord` fields, as plain ints that marshal can send."""
    rows = []
    for seed in seeds:
        H = sample_hypergraph(n, s, p, seed)
        report = clean(H, r, t)
        rows.append((seed, H.num_edges, report.num_cover_violations,
                     report.num_linearity_violations, len(report.deleted), report.result.num_edges))
    return rows


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
    from the master seed alone.  Contiguous blocks of trials, one per
    usable CPU, run in children forked before any sampling, except the
    first, which the caller runs; what a child does not report in full
    the caller computes itself, in index order, so errors and records are
    exactly those of a one-CPU run.  Every child is reaped before this
    returns or raises (killed first if the caller raises).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    _check_seed(master_seed)
    seeds = [trial_seed(master_seed, i) for i in range(trials)]
    blocks = min(_usable_cpus(), trials)
    cuts = [trials * b // blocks for b in range(blocks + 1)]
    jobs = [(None, None, seeds[: cuts[1]])]  # (child pid, its pipe, the block's seeds)
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the pipe stays empty
                pid = None
            if pid == 0:  # the child reports its whole block or nothing, never returns
                try:
                    os.write(write_end, marshal.dumps(_trial_rows(n, s, r, t, p, seeds[lo:hi])))
                finally:
                    os._exit(0)
            os.close(write_end)
            jobs.append((pid, open(read_end, "rb"), seeds[lo:hi]))
        rows = []
        for _pid, pipe, block in jobs:
            try:
                got = marshal.loads(pipe.read()) if pipe else []
            except (EOFError, ValueError, TypeError):  # a short or empty report
                got = []
            rows += got if len(got) == len(block) else _trial_rows(n, s, r, t, p, block)
    except BaseException:
        import signal  # not loaded at interpreter start, so only on this path
        for pid, _pipe, _block in jobs:
            if pid:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe, _block in jobs[1:]:
            pipe.close()
            if pid:
                os.waitpid(pid, 0)
    return TrialStats(tuple(TrialRecord(*row) for row in rows))
