"""Acceptance suite: one criterion per test, one PASS line per criterion.

Run under pytest (``pytest tests/test_acceptance.py -v -s``) or directly
(``python tests/test_acceptance.py``) for the plain pass/fail listing.
Every randomized criterion uses fixed seeds, so reruns are byte-identical.
"""

import contextlib
import io
import itertools
import math
import random
import time
from fractions import Fraction

from ramseykit import (
    EdgeColoring,
    TargetList,
    UniformHypergraph,
    arrows_decision,
    check_cover_inequality,
    clean,
    clique_density,
    complete_hypergraph,
    cover_inequality_lhs,
    count_mono_clique_copies,
    enumerate_cliques,
    enumerate_minimal_nontrivial_covers,
    estimate_cover_count,
    expected_cover_bound,
    export_cnf,
    lift_coloring,
    max_r_density,
    parse_probability,
    primal_r_graph,
    ramsey_number,
    reduction_sequence,
    run_trials,
    sample_hypergraph,
    trial_seed,
    verify_good_coloring,
)
from ramseykit.cli import main as cli_main

from oracles import (
    brute_force_density,
    count_good_colorings_graph,
    dpll_satisfiable,
    naive_linearity_pairs,
    parse_dimacs,
)

MASTER_SEED = 20260809


def _report(criterion: str, message: str) -> None:
    print(f"{criterion} PASS: {message}")


def test_a1_density_oracle():
    started = time.perf_counter()
    rng = random.Random(MASTER_SEED)
    checked = 0
    for _ in range(100):
        r = rng.choice((2, 3))
        n = rng.randint(r + 1, 8)
        candidates = list(itertools.combinations(range(1, n + 1), r))
        edges = [e for e in candidates if rng.random() < 0.45]
        F = UniformHypergraph(n, r, edges)
        assert max_r_density(F) == brute_force_density(n, r, edges)
        checked += 1
    for r in range(2, 6):
        for t in range(r + 1, 7):
            assert clique_density(t, r) == max_r_density(complete_hypergraph(t, r))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"A1 took {elapsed:.1f}s, budget 10s"
    _report("A1", f"{checked} random graphs match the all-subsets oracle and "
                  f"clique densities agree for 2 <= r < t <= 6 ({elapsed:.1f}s)")


def test_a2_small_ramsey_numbers():
    started = time.perf_counter()
    value = ramsey_number(TargetList(2, (3, 3)), 8)
    first = time.perf_counter() - started
    assert value == 6
    assert first < 1.0, f"two-triangle Ramsey number took {first:.2f}s, budget 1s"
    # cross-check by full enumeration: witnesses at 5, none at 6
    assert count_good_colorings_graph(5, 3, 3) > 0
    assert count_good_colorings_graph(6, 3, 3) == 0

    started = time.perf_counter()
    value = ramsey_number(TargetList(2, (3, 4)), 9)
    second = time.perf_counter() - started
    assert value == 9
    assert second < 60.0, f"(3,4) Ramsey number took {second:.1f}s, budget 60s"
    _report("A2", f"R(3,3)=6 in {first:.2f}s (enumeration-checked), "
                  f"R(3,4)=9 in {second:.1f}s")


def test_a3_cover_inequality_exhaustive():
    started = time.perf_counter()
    # family counts frozen from the powerset oracle
    expected_counts = {(2, 3): 1, (2, 4): 15, (3, 4): 1, (3, 5): 31, (4, 5): 1}
    total = 0
    for (r, t), count in expected_counts.items():
        W = tuple(range(1, t + 1))
        candidates = [
            A for size in range(r, t)
            for A in itertools.combinations(W, size)
        ]
        families = enumerate_minimal_nontrivial_covers(W, candidates, r)
        assert len(families) == count, (r, t)
        for fam in families:
            assert check_cover_inequality(fam, t), (r, t, fam.members)
            seq = reduction_sequence(fam, t)
            weights = [w for _, w in seq]
            assert all(b <= a for a, b in zip(weights, weights[1:])), fam.members
            assert weights[-1] == t - r, fam.members
            total += 1
        if (r, t) == (2, 3):
            assert cover_inequality_lhs(families[0], 3) == -3  # equality case
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"A3 took {elapsed:.1f}s, budget 120s"
    _report("A3", f"{total} minimal non-trivial covers over five (r,t) pairs "
                  f"satisfy the inequality; triangle tight; weights descend to "
                  f"t-r ({elapsed:.1f}s)")


def test_a4_expectation_bound_desk_scale():
    p = parse_probability("n^-2.75", 200)
    report = expected_cover_bound(200, 4, 2, 3, p)
    ratio = report.ratio
    assert ratio < Fraction(1, 10), f"exact ratio {float(ratio)} not below 0.1"

    estimate = estimate_cover_count(200, 4, 2, 3, float(p), 10_000, MASTER_SEED)
    # one-sided: the sample mean must not exceed the exact bound at 3 SE
    assert estimate.mean <= float(report.total) + 3 * estimate.std_error
    _report("A4", f"exact bound/reference = {float(ratio):.4f} < 0.1; "
                  f"Monte Carlo mean {estimate.mean:.2e} (10^4 trials) sits "
                  f"below the exact bound {float(report.total):.2e}")


def _pentagon_base():
    host = complete_hypergraph(5, 2)
    red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    return EdgeColoring(host, 2, {e: 1 if e in red else 2 for e in host.edges})


def test_a5_pipeline_with_certificates():
    started = time.perf_counter()
    n, s, r, t = 2000, 5, 2, 3
    p = parse_probability("n^-4", n)
    targets = TargetList(2, (3, 3))
    base = _pentagon_base()
    fractions = []
    for i in range(20):
        H = sample_hypergraph(n, s, float(p), trial_seed(MASTER_SEED, i))
        report = clean(H, r, t)
        H0 = report.result

        # (a) independent re-checks: all-pairs overlap scan; every primal
        # t-clique inside a single surviving edge (no cover machinery)
        assert naive_linearity_pairs(H0.edges, r) == []
        primal = primal_r_graph(H0, r)
        for W in enumerate_cliques(primal, t):
            assert any(set(W) <= set(A) for A in H0.edges), W

        fractions.append(
            len(report.deleted) / H.num_edges if H.num_edges else 0.0
        )

        # (c) lift the pentagon coloring and certify by brute force
        lifted = lift_coloring(H0, r, base)
        assert verify_good_coloring(primal, lifted, targets)
        color_of = lifted.assignment
        edge_set = primal.edge_set
        for a, b, c in itertools.combinations(primal.support, 3):
            e1, e2, e3 = (a, b), (a, c), (b, c)
            if e1 in edge_set and e2 in edge_set and e3 in edge_set:
                assert not (color_of[e1] == color_of[e2] == color_of[e3]), (a, b, c)
        assert count_mono_clique_copies(lifted, 1, 3) == 0
        assert count_mono_clique_copies(lifted, 2, 3) == 0

    mean_fraction = sum(fractions) / len(fractions)
    assert mean_fraction <= 0.05, f"mean deleted fraction {mean_fraction}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"A5 took {elapsed:.1f}s, budget 60s"
    _report("A5", f"20 seeds: survivors re-verified linear+conformal, mean "
                  f"deleted fraction {mean_fraction:.4f} <= 0.05, lifted "
                  f"pentagon certified triangle-free per color ({elapsed:.1f}s)")


def test_a6_decision_matches_enumeration():
    # The asymptotic arrowing statements (primal graphs of cleaned random
    # hypergraphs arrowing a clique/forbidden-graph pair at large n) are
    # NOT reproduced here; the desk-scale substitute is exact agreement
    # of the search with full enumeration, plus CNF faithfulness.
    for n in range(2, 7):
        G = complete_hypergraph(n, 2)
        for t1, t2 in itertools.product((3, 4), repeat=2):
            targets = TargetList(2, (t1, t2))
            verdict = arrows_decision(G, targets).verdict
            good_count = count_good_colorings_graph(n, t1, t2)
            assert (verdict == "not_arrows") == (good_count > 0), (n, t1, t2)
            sat = dpll_satisfiable(*parse_dimacs(export_cnf(G, targets)))
            assert sat == (verdict == "not_arrows"), (n, t1, t2)
    _report("A6", "substitute for the asymptotic claims: search equals full "
                  "enumeration and CNF satisfiability on all complete graphs "
                  "n <= 6 with target pairs from {3,4}^2")


def test_a7_overlap_pair_expectation():
    n, s, r = 100, 4, 2
    p = Fraction(1, 10**6)
    trials = 1000
    ys = []
    for i in range(trials):
        H = sample_hypergraph(n, s, float(p), trial_seed(MASTER_SEED + 7, i))
        ys.append(len(naive_linearity_pairs(H.edges, r)))
    mean = sum(ys) / trials
    variance = sum((y - mean) ** 2 for y in ys) / (trials - 1)
    stderr = math.sqrt(variance / trials)
    bound = float(
        Fraction(math.comb(n, s) * math.comb(s, r) * math.comb(n, s - r)) * p * p
    )
    assert mean <= bound + 3 * stderr, (mean, bound, stderr)
    _report("A7", f"mean overlap pairs {mean:.4f} over 10^3 samples within "
                  f"bound {bound:.4f} + 3 SE ({3 * stderr:.4f})")


def test_a8_determinism(tmp_path):
    n, s, r, t = 2000, 5, 2, 3
    p = parse_probability("n^-4", n)
    first = run_trials(n, s, r, t, float(p), 20, MASTER_SEED)
    second = run_trials(n, s, r, t, float(p), 20, MASTER_SEED)
    assert first.to_csv() == second.to_csv()
    assert first.to_json_dict() == second.to_json_dict()

    argv = [
        "construct", "--n", "2000", "--s", "5", "--r", "2", "--t", "3",
        "--p", "n^-4", "--seed", str(MASTER_SEED), "--out", str(tmp_path / "run"),
        "--format", "json",
    ]

    def run_once():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(argv) == 0
        return (
            buf.getvalue(),
            (tmp_path / "run.json").read_bytes(),
            (tmp_path / "run.uhg").read_bytes(),
        )

    assert run_once() == run_once()
    _report("A8", "trial statistics and CLI reports are byte-identical "
                  "across reruns with identical seeds")


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    failures = 0
    for name, fn in sorted(
        (k, v) for k, v in globals().items() if k.startswith("test_a")
    ):
        try:
            if name == "test_a8_determinism":
                with tempfile.TemporaryDirectory() as tmp:
                    fn(Path(tmp))
            else:
                fn()
        except AssertionError as exc:
            failures += 1
            label = name.split("_")[1].upper()
            print(f"{label} FAIL: {exc}")
    sys.exit(1 if failures else 0)
