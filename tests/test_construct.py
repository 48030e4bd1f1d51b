import itertools
import math
import os
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import (
    EdgeColoring,
    InternalContradictionError,
    NotLinearError,
    UniformHypergraph,
    clean,
    complete_hypergraph,
    conformality_violations,
    enumerate_cliques,
    expected_cover_bound,
    is_conformal,
    is_r_linear,
    lift_coloring,
    linearity_violations,
    parse_probability,
    primal_r_graph,
    run_trials,
    sample_hypergraph,
    trial_seed,
)
from ramseykit import arrows, construct
from ramseykit.construct import _comb_table, _int_nth_root, _rational_power_up, _unrank_subset

from oracles import naive_conformality, naive_linearity_pairs, walk_unrank_subset


@st.composite
def hypergraphs(draw, min_k=3, max_k=4, max_n=10):
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(k, max_n))
    candidates = list(itertools.combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(candidates), max_size=14))
    return UniformHypergraph(n, k, edges)


class TestParseProbability:
    def test_decimal_is_exact(self):
        assert parse_probability("0.1") == Fraction(1, 10)

    def test_rational(self):
        assert parse_probability("3/8") == Fraction(3, 8)

    def test_integer_power(self):
        assert parse_probability("n^-4", 2000) == Fraction(1, 2000**4)
        # exact even far below the 10^-60 resolution of non-integer powers
        assert parse_probability("n^-35", 100) == Fraction(1, 100**35)

    def test_fractional_power_rounds_up(self):
        p = parse_probability("n^-2.75", 200)
        # true value is 200 ** -2.75; the parsed value must sit just above
        assert float(p) == pytest.approx(200**-2.75, rel=1e-12)
        assert p**4 >= Fraction(1, 200**11)

    def test_parenthesized_rational_exponent(self):
        assert parse_probability("n^(-11/4)", 200) == parse_probability("n^-2.75", 200)

    def test_fractional_power_is_a_multiple_of_the_resolution(self):
        # 100^-29.5 = 10^-59 exactly; the result is the next multiple of
        # 10^-60 above it, not a 60-significant-digit value
        assert parse_probability("n^-29.5", 100) == Fraction(11, 10**60)

    def test_fractional_power_below_resolution_rejected(self):
        # 100^-31.5 = 10^-63 would round up to 10^-60 = 100^-30
        with pytest.raises(ValueError, match=r"100\^\(-63/2\) is below 10\^-60"):
            parse_probability("n^-31.5", 100)

    @pytest.mark.parametrize("n", [10**9, 10**18])
    def test_tiny_power_refused_before_it_is_formed(self, n, monkeypatch):
        # floor(log2 n) >= 29 and 29 * 199.999 >= 200, so n^-199.999 <= 2^-200
        # is refused before n^199999, with its millions of digits, is formed
        def no_root(*_args):
            raise AssertionError("a root of the power was taken")

        monkeypatch.setattr("ramseykit.construct._int_nth_root", no_root)
        with pytest.raises(ValueError, match=rf"{n}\^\(-199999/1000\) is below 10\^-60, the "
                           "resolution of non-integer powers"):
            parse_probability("n^-199.999", n)

    def test_tiny_power_precheck_is_the_stated_inequality(self, monkeypatch):
        # at n = 2, -a * floor(log2 n) >= 200b reads x <= -200: 2^-200.5 is
        # refused with no root taken, 2^-199.5 (also below 10^-60) by its root
        roots = []
        monkeypatch.setattr("ramseykit.construct._int_nth_root",
                            lambda x, b: roots.append(b) or _int_nth_root(x, b))
        for x, taken in (("n^-200.5", []), ("n^-199.5", [2])):
            with pytest.raises(ValueError, match="is below 10\\^-60"):
                parse_probability(x, 2)
            assert roots == taken

    def test_range_checks(self):
        with pytest.raises(ValueError):
            parse_probability("1.5")
        with pytest.raises(ValueError):
            parse_probability("-0.1")
        with pytest.raises(ValueError):
            parse_probability("n^-2", None)
        with pytest.raises(ValueError):
            parse_probability("bogus")

    @pytest.mark.parametrize("x, n", [
        ("n^-3.2", 200), ("n^-2.75", 200), ("n^-2.6", 60),  # golden
        ("n^-3.7", 10_000), ("n^-3.2", 1000), ("n^-5.3", 500),  # benchmark
        ("n^-3.141", 10_000), ("n^(-2999/997)", 10**9),
    ])
    def test_fractional_power_is_one_step_above_the_floor_root(self, x, n):
        # p = (k + 1) / 10^60 with k = floor(10^60 * n^x): an integer
        # check, so any exact root gives these values byte for byte
        exponent = Fraction(x[2:].strip("()"))
        a, b = -exponent.numerator, exponent.denominator
        k = parse_probability(x, n) * 10**60 - 1
        assert k.denominator == 1
        assert k**b * n**a <= 10 ** (60 * b) < (k + 1) ** b * n**a

    def test_three_decimal_power_keeps_its_value(self):
        # recorded from the Newton root that started at 2^ceil(L/b)
        assert parse_probability("n^-3.141", 10_000) == Fraction(
            272897778280804083053772431267575859147047878508, 10**60
        )

    @pytest.mark.parametrize("text", ["n^-1/0", "n^(1/0)", "n^(-3", "n^-3)", "n^-1.5/2"])
    def test_malformed_power_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse probability {text!r}")):
            parse_probability(text, 100)

    def test_exponent_denominator_bounded(self):
        assert parse_probability("n^(-2999/997)", 10**4) > 0
        with pytest.raises(ValueError, match=r"-31417/10000 of 'n\^-3\.1417' has a "
                           r"denominator above 1000; round it or write it as a/b with b <= 1000"):
            parse_probability("n^-3.1417", 10**4)

    @given(x=st.integers(0, 10**12), b=st.integers(1, 6))
    def test_int_nth_root(self, x, b):
        root = _int_nth_root(x, b)
        assert root**b <= x < (root + 1) ** b

    def test_int_nth_root_next_to_perfect_powers(self):
        # n^-3.7 takes a 10th root of a ~10^600 integer; Newton's iterates
        # must land on floor(x^(1/b)) with no correction step
        for b in range(1, 13):
            for k in (1, 2, 3, 10, 2**64 + 1, 3**100, 10**60 - 1, 10**60):
                for x in (k**b - 1, k**b, k**b + 1):
                    root = _int_nth_root(x, b)
                    assert root**b <= x < (root + 1) ** b, (x, b)

    @pytest.mark.parametrize("b", [2, 997, 1000])
    def test_int_nth_root_of_wide_integers(self, b):
        for x in (3 ** (200 * b), 3 ** (200 * b) - 1, 10 ** (60 * b) // 7**b + 1):
            root = _int_nth_root(x, b)
            assert root**b <= x < (root + 1) ** b, b

    def test_root_and_power_reject_out_of_range(self):
        with pytest.raises(ValueError, match="got x=-1, b=2"):
            _int_nth_root(-1, 2)
        with pytest.raises(ValueError, match="base must be >= 1, got 0"):
            _rational_power_up(0, Fraction(-7, 2))


class TestSampler:
    def test_p_zero(self):
        H = sample_hypergraph(20, 4, 0.0, 7)
        assert H.num_edges == 0
        assert H.n == 20 and H.k == 4

    def test_p_one(self):
        H = sample_hypergraph(7, 3, 1.0, 7)
        assert H == complete_hypergraph(7, 3)

    def test_determinism(self):
        a = sample_hypergraph(30, 3, 0.1, 12345)
        b = sample_hypergraph(30, 3, 0.1, 12345)
        assert a == b
        c = sample_hypergraph(30, 3, 0.1, 12346)
        assert a != c  # overwhelmingly likely, and fixed by the seeds

    def test_sparse_dense_same_distribution_shape(self, monkeypatch):
        # force the sparse path on a small instance; edges stay valid
        monkeypatch.setattr(construct, "DEFAULT_DENSE_LIMIT", 1)
        H = sample_hypergraph(12, 3, 0.25, 99)
        assert all(len(e) == 3 for e in H.edges)
        assert H.n == 12

    def test_unrank_subset_bijection(self):
        n, k = 9, 3
        table = _comb_table(n, k)
        subsets = [_unrank_subset(i, table) for i in range(math.comb(n, k))]
        assert subsets == list(itertools.combinations(range(1, n + 1), k))

    def test_unrank_subset_matches_walk_exhaustively(self):
        for n in range(2, 13):
            for k in range(2, n + 1):
                table = _comb_table(n, k)
                for rank in range(math.comb(n, k)):
                    assert _unrank_subset(rank, table) == walk_unrank_subset(rank, n, k)

    @pytest.mark.parametrize("n, k", [(10000, 5), (500, 8)])
    def test_unrank_subset_matches_walk_at_scale(self, n, k):
        total = math.comb(n, k)
        rng = np.random.Generator(np.random.PCG64(2024))
        ranks = [0, total - 1] + [int(x) for x in rng.integers(0, total, size=2000)]
        table = _comb_table(n, k)
        for rank in ranks:
            assert _unrank_subset(rank, table) == walk_unrank_subset(rank, n, k)

    @pytest.mark.parametrize("n, s, p", [(12, 3, 0.5), (40, 5, 0.01)])
    def test_refuses_more_than_max_edges(self, monkeypatch, n, s, p):
        # C(12,3) = 220 takes the Bernoulli path, C(40,5) = 658008 the
        # rank path once the dense limit is lowered below it
        monkeypatch.setattr(construct, "DEFAULT_DENSE_LIMIT", 1000)
        monkeypatch.setattr(construct, "MAX_EDGES", 5)
        with pytest.raises(ValueError, match=r"above MAX_EDGES=5"):
            sample_hypergraph(n, s, p, 0)

    def test_mean_edge_count_within_three_stderr(self):
        # binomial mean 0.1 * C(30,3) = 406, sd = sqrt(N p (1-p))
        n, s, p, trials = 30, 3, 0.1, 10_000
        total_candidates = math.comb(n, s)
        counts = [
            sample_hypergraph(n, s, p, seed).num_edges for seed in range(trials)
        ]
        mean = sum(counts) / trials
        expected = p * total_candidates
        stderr = math.sqrt(total_candidates * p * (1 - p)) / math.sqrt(trials)
        assert abs(mean - expected) <= 3 * stderr

    def test_validates(self):
        with pytest.raises(ValueError):
            sample_hypergraph(3, 4, 0.5, 1)
        with pytest.raises(ValueError):
            sample_hypergraph(10, 3, 1.5, 1)
        with pytest.raises(ValueError):
            sample_hypergraph(10, 3, 0.5, -1)
        with pytest.raises(ValueError, match=r"C\(100000,17\) = \d+ candidate edges exceeds"):
            sample_hypergraph(10**5, 17, Fraction(1, 10**60), 0)


class TestLinearityViolations:
    def test_overlapping_quadruples(self):
        H = UniformHypergraph(6, 4, [(1, 2, 3, 4), (3, 4, 5, 6)])
        assert linearity_violations(H, 2) == [((1, 2, 3, 4), (3, 4, 5, 6))]
        assert linearity_violations(H, 3) == []
        assert is_r_linear(H, 3)

    def test_single_vertex_overlaps_allowed(self):
        H = UniformHypergraph(7, 3, [(1, 2, 3), (3, 4, 5), (5, 6, 7)])
        assert linearity_violations(H, 2) == []

    def test_pair_reported_once(self):
        # the two edges share three vertices, hence three common pairs
        H = UniformHypergraph(5, 4, [(1, 2, 3, 4), (1, 2, 3, 5)])
        assert len(linearity_violations(H, 2)) == 1

    @given(H=hypergraphs(max_n=12))
    @settings(max_examples=60)
    def test_matches_naive_scan(self, H):
        for r in range(2, H.k + 1):
            assert linearity_violations(H, r) == naive_linearity_pairs(H.edges, r)

    def test_rejects_r_below_2(self):
        with pytest.raises(ValueError, match="need 2 <= r <= 3, got r=1"):
            linearity_violations(UniformHypergraph(5, 3, [(1, 2, 3)]), 1)


def assert_matches_naive_scan(H, r, t):
    # targets in lex order, then each target's families sorted
    naive = naive_conformality(H.n, H.edges, r, t)
    want = [(W, fam) for W in sorted(naive) for fam in sorted(tuple(sorted(f)) for f in naive[W])]
    got = [(fam.target, fam.members) for fam in conformality_violations(H, r, t)]
    assert got == want


class TestConformalityViolations:
    def test_single_edge_conformal(self):
        H = UniformHypergraph(6, 4, [(1, 2, 3, 4)])
        assert conformality_violations(H, 2, 3) == []

    def test_triangle_of_triples(self):
        H = UniformHypergraph(6, 3, [(1, 2, 4), (2, 3, 5), (1, 3, 6)])
        viols = conformality_violations(H, 2, 3)
        assert len(viols) == 1
        fam = viols[0]
        assert fam.target == (1, 2, 3)
        assert fam.members == ((1, 2, 4), (1, 3, 6), (2, 3, 5))

    def test_disjoint_quadruples(self):
        H = UniformHypergraph(7, 4, [(1, 2, 3, 4), (4, 5, 6, 7)])
        assert conformality_violations(H, 2, 3) == []
        assert is_conformal(H, 2, 3)

    def test_later_holder_of_the_leading_pair(self):
        # W = (1, 2, 4) lies only in (1, 2, 4, 5), the second edge holding
        # (1, 2); the first, (1, 2, 3, 6), does not contain it
        H = UniformHypergraph(10, 4, [(1, 2, 3, 6), (1, 2, 4, 5), (1, 4, 7, 8), (2, 4, 9, 10)])
        assert conformality_violations(H, 2, 3) == []
        assert naive_conformality(H.n, H.edges, 2, 3) == {}

    @given(H=hypergraphs(max_n=9), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_scan(self, H, data):
        pairs = [(r, t) for r in range(2, H.k) for t in range(r + 1, H.k + 1)]
        r, t = data.draw(st.sampled_from(pairs))
        assert_matches_naive_scan(H, r, t)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sparse_inputs_match_naive_scan(self, data):
        # sparse inputs leave most r-sets unhinged, so the scan searches
        # only a small part of the primal graph
        r = data.draw(st.sampled_from((2, 3)))
        t = data.draw(st.sampled_from((r + 1, r + 2)))
        k = data.draw(st.integers(t, t + 1))
        n = data.draw(st.integers(k, 16))
        edges = data.draw(st.lists(st.sets(st.integers(1, n), min_size=k, max_size=k), max_size=6))
        assert_matches_naive_scan(UniformHypergraph(n, k, edges), r, t)

    def test_pairs_that_meet_all_share_an_edge(self):
        # W = (1, 2, 3, 4) lies in no edge and any three edges cover it,
        # yet every two of its pairs that meet lie in a common edge: a
        # filter on pairs meeting in one vertex with no common holder
        # would drop W, so the scan tests each pair's vertices instead
        H = UniformHypergraph(8, 4, [(1, 2, 3, 5), (1, 2, 4, 6), (1, 3, 4, 7), (2, 3, 4, 8)])
        W = (1, 2, 3, 4)
        pairs = list(itertools.combinations(W, 2))
        assert all(any(set(a) | set(b) <= set(A) for A in H.edges)
                   for a, b in itertools.combinations(pairs, 2) if set(a) & set(b))
        got = conformality_violations(H, 2, 4)
        assert [fam.target for fam in got] == [W] * 4
        assert {fam.members for fam in got} == set(itertools.combinations(H.edges, 3))
        assert_matches_naive_scan(H, 2, 4)

    @pytest.mark.xfail(strict=True, reason="cleaning defect: t-sets inside one edge are skipped")
    def test_mean_count_matches_exact_expectation(self):
        # Lemma 4.2 counts the covers of every t-set, so over all C(n, t)
        # of them the expected number of violations is C(n, t) * E[X_W];
        # the scan skips every W inside a single edge and reads low
        n, s, r, t, p = 10, 4, 2, 3, Fraction(1, 20)
        seeds = [trial_seed(20260809, i) for i in range(200)]
        xs = [len(conformality_violations(sample_hypergraph(n, s, p, seed), r, t)) for seed in seeds]
        mean = sum(xs) / len(xs)
        stderr = math.sqrt(sum((x - mean) ** 2 for x in xs) / (len(xs) - 1) / len(xs))
        exact = math.comb(n, t) * expected_cover_bound(n, s, r, t, p).exact
        assert abs(mean - exact) <= 4 * stderr, (mean, float(exact), stderr)


class TestClean:
    def test_already_clean(self):
        H = UniformHypergraph(7, 4, [(1, 2, 3, 4)])
        report = clean(H, 2, 3)
        assert report.deleted == ()
        assert report.result == H

    def test_cover_violation_deletes_lex_smallest_member(self):
        H = UniformHypergraph(6, 3, [(1, 2, 4), (2, 3, 5), (1, 3, 6)])
        report = clean(H, 2, 3)
        assert report.deleted == ((1, 2, 4),)
        assert is_r_linear(report.result, 2)
        assert is_conformal(report.result, 2, 3)

    def test_overlap_deletes_lex_smaller_edge(self):
        H = UniformHypergraph(6, 4, [(1, 2, 3, 4), (3, 4, 5, 6)])
        report = clean(H, 2, 3)
        assert report.deleted == ((1, 2, 3, 4),)
        assert report.result.edges == ((3, 4, 5, 6),)

    def test_counts_and_sizes(self):
        H = UniformHypergraph(6, 3, [(1, 2, 4), (2, 3, 5), (1, 3, 6)])
        report = clean(H, 2, 3)
        assert H.num_edges == 3
        assert report.num_cover_violations == 1
        assert report.num_linearity_violations == 0
        assert report.result.num_edges == H.num_edges - len(report.deleted)
        assert len(report.deleted) <= (
            report.num_cover_violations + report.num_linearity_violations
        )

    @given(H=hypergraphs(min_k=3, max_k=3, max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_deletion_soundness_and_conformality_certificate(self, H):
        report = clean(H, 2, 3)
        deleted = set(report.deleted)
        for a, b in report.linearity_violations:
            assert deleted & {a, b}
        for fam in report.cover_violations:
            assert deleted & set(fam.members)
        # independent certificate: every primal triangle of the survivor
        # lies inside one surviving edge (no cover machinery involved)
        result = report.result
        primal = primal_r_graph(result, 2)
        for W in enumerate_cliques(primal, 3):
            assert any(set(W) <= set(A) for A in result.edges)

    def test_contradiction_names_the_remaining_cover(self):
        """The known cleaning defect: the overlap pair step deletes
        (5, 15, 20, 29), and three surviving edges still cover
        W = (15, 20, 29), which the cover scan skipped because W lay
        inside that edge.  The error must name W and its cover.  Once
        the cleaning step is fixed this input cleans, and this test
        becomes a success test."""
        H = sample_hypergraph(30, 4, 1 / 800, 1)
        with pytest.raises(InternalContradictionError) as err:
            clean(H, 2, 3)
        assert str(err.value).endswith(
            "(15, 20, 29) is covered by (13, 15, 17, 29), (15, 20, 26, 30), "
            "(16, 20, 24, 29)"
        )

    def test_contradiction_names_a_remaining_overlap_pair(self, monkeypatch):
        """An overlap pair the input scan missed survives cleaning; the
        re-verify must catch it and name both edges."""
        H = UniformHypergraph(5, 3, [(1, 2, 3), (1, 2, 4)])
        scan = construct.linearity_violations
        monkeypatch.setattr(construct, "linearity_violations",
                            lambda G, r: [] if G is H else scan(G, r))
        with pytest.raises(InternalContradictionError) as err:
            clean(H, 2, 3)
        assert str(err.value).endswith(
            "edges (1, 2, 3) and (1, 2, 4) share >= 2 vertices"
        )

    def test_scan_reaches_the_timed_layers(self, monkeypatch):
        """perfbench/launch.py times these calls by their public names in
        `construct`; its per-layer metrics need each to run, called
        directly from conformality_violations, when clean meets a cross
        triangle."""
        callers: dict[str, list[str]] = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                callers.setdefault(name, []).append(sys._getframe(1).f_code.co_name)
                return fn(*args, **kwargs)
            return wrapper

        names = ("primal_r_graph", "enumerate_cliques", "enumerate_minimal_nontrivial_covers")
        for name in names:
            monkeypatch.setattr(construct, name, counted(name, getattr(construct, name)))
        clean(UniformHypergraph(6, 3, [(1, 2, 4), (2, 3, 5), (1, 3, 6)]), 2, 3)
        assert {name: set(callers.get(name, ())) for name in names} == {
            name: {"conformality_violations"} for name in names
        }

    def test_reverify_and_witness_check_reach_the_timed_kernel(self, monkeypatch):
        """perfbench/launch.py times calls through module attributes:
        `construct.clean.reverify_s` is the is_conformal span under clean,
        and `hypergraph.enumerate_cliques.in_verify_s` the clique spans
        under verify_good_coloring.  Both need the kernel reached through
        `construct.enumerate_cliques` and `arrows.enumerate_cliques`."""
        chains: dict[str, list[tuple[str, ...]]] = {"construct": [], "arrows": []}

        def spied(module):
            fn = module.enumerate_cliques

            def wrapper(*args, **kwargs):
                frame, names = sys._getframe(1), []
                while frame is not None:
                    names.append(frame.f_code.co_name)
                    frame = frame.f_back
                chains[module.__name__.rsplit(".", 1)[1]].append(tuple(names))
                return fn(*args, **kwargs)
            return wrapper

        for module in (construct, arrows):
            monkeypatch.setattr(module, "enumerate_cliques", spied(module))
        clean(UniformHypergraph(6, 3, [(1, 2, 4), (2, 3, 5), (1, 3, 6)]), 2, 3)
        host = complete_hypergraph(5, 2)
        red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
        coloring = EdgeColoring(host, 2, {e: 1 if e in red else 2 for e in host.edges})
        assert arrows.verify_good_coloring(host, coloring, arrows.TargetList(2, (3, 3)))
        reverify = [names for names in chains["construct"] if "is_conformal" in names]
        assert reverify and all(
            names[names.index("is_conformal") + 1] == "clean" for names in reverify
        )
        assert chains["arrows"] and all(
            names[0] == "verify_good_coloring" for names in chains["arrows"]
        )


class TestLift:
    def test_identity_on_aligned_edge(self):
        H0 = UniformHypergraph(5, 5, [(1, 2, 3, 4, 5)])
        base_host = complete_hypergraph(5, 2)
        red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
        base = EdgeColoring(base_host, 2, {e: 1 if e in red else 2 for e in base_host.edges})
        lifted = lift_coloring(H0, 2, base)
        assert lifted.host == primal_r_graph(H0, 2)
        assert lifted.assignment == base.assignment

    def test_order_isomorphism_on_shifted_edge(self):
        H0 = UniformHypergraph(10, 5, [(2, 4, 6, 8, 10)])
        base_host = complete_hypergraph(5, 2)
        red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
        base = EdgeColoring(base_host, 2, {e: 1 if e in red else 2 for e in base_host.edges})
        lifted = lift_coloring(H0, 2, base)
        expected_red = {(2, 4), (4, 6), (6, 8), (8, 10), (2, 10)}
        assert set(lifted.color_class(1)) == expected_red

    def test_disjoint_edges_get_isomorphic_copies(self):
        H0 = UniformHypergraph(8, 4, [(1, 2, 3, 4), (5, 6, 7, 8)])
        base_host = complete_hypergraph(4, 2)
        base = EdgeColoring(
            base_host, 2,
            {(1, 2): 1, (1, 3): 2, (1, 4): 2, (2, 3): 2, (2, 4): 2, (3, 4): 1},
        )
        lifted = lift_coloring(H0, 2, base)
        assert lifted.color_of((1, 2)) == lifted.color_of((5, 6)) == 1
        assert lifted.color_of((3, 4)) == lifted.color_of((7, 8)) == 1
        assert lifted.color_of((1, 3)) == lifted.color_of((5, 7)) == 2

    def test_rejects_nonlinear_host(self):
        H0 = UniformHypergraph(6, 4, [(1, 2, 3, 4), (3, 4, 5, 6)])
        base_host = complete_hypergraph(4, 2)
        base = EdgeColoring(base_host, 1, {e: 1 for e in base_host.edges})
        with pytest.raises(NotLinearError) as err:
            lift_coloring(H0, 2, base)
        assert err.value.pair == ((1, 2, 3, 4), (3, 4, 5, 6))

    def test_rejects_wrong_base_host(self):
        H0 = UniformHypergraph(5, 5, [(1, 2, 3, 4, 5)])
        small = complete_hypergraph(4, 2)
        base = EdgeColoring(small, 1, {e: 1 for e in small.edges})
        with pytest.raises(ValueError):
            lift_coloring(H0, 2, base)
        # r > s: the complete 3-graph on [1..2] is edgeless, so only the
        # r > s check refuses it
        H0 = UniformHypergraph(4, 2, [(1, 2), (3, 4)])
        empty = complete_hypergraph(2, 3)
        with pytest.raises(ValueError, match="complete 3-graph"):
            lift_coloring(H0, 3, EdgeColoring(empty, 1, {}))

    @given(H=hypergraphs(min_k=3, max_k=3, max_n=9))
    @settings(max_examples=40)
    def test_lift_succeeds_iff_linear(self, H):
        base_host = complete_hypergraph(3, 2)
        base = EdgeColoring(base_host, 2, {(1, 2): 1, (1, 3): 2, (2, 3): 1})
        violations = linearity_violations(H, 2)
        if violations:
            with pytest.raises(NotLinearError):
                lift_coloring(H, 2, base)
        else:
            lifted = lift_coloring(H, 2, base)
            assert set(lifted.assignment) == set(primal_r_graph(H, 2).edges)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_three_uniform_lift_matches_order_isomorphism(self, data):
        n = data.draw(st.integers(5, 12))
        drawn = data.draw(st.lists(
            st.sampled_from(list(itertools.combinations(range(1, n + 1), 5))),
            max_size=8,
        ))
        edges = []  # greedily keep a 3-linear subfamily
        for A in drawn:
            if all(len(set(A) & set(B)) < 3 for B in edges):
                edges.append(A)
        H0 = UniformHypergraph(n, 5, edges)
        base_host = complete_hypergraph(5, 3)
        colors = data.draw(st.lists(
            st.integers(1, 2), min_size=base_host.num_edges,
            max_size=base_host.num_edges,
        ))
        base = EdgeColoring(base_host, 2, dict(zip(base_host.edges, colors)))
        lifted = lift_coloring(H0, 3, base)
        assert lifted.host == primal_r_graph(H0, 3)
        for A in H0.edges:
            phi = {v: i for i, v in enumerate(A, start=1)}  # A -> [1..5], order kept
            for B in itertools.combinations(A, 3):
                assert lifted.color_of(B) == base.color_of(phi[v] for v in B)

    @given(r=st.sampled_from([2, 3]), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_trusted_lift_passes_the_validating_constructor(self, r, data):
        """lift_coloring skips EdgeColoring's checks; a coloring rebuilt
        through them from the same parts must come out equal."""
        s = data.draw(st.integers(r, 6))
        n = data.draw(st.integers(s, 12))
        drawn = data.draw(st.lists(
            st.sampled_from(list(itertools.combinations(range(1, n + 1), s))), max_size=8,
        ))
        edges, overlapping = [], None  # a greedy r-linear subfamily, and a pair breaking it
        for A in drawn:
            if all(len(set(A) & set(B)) < r for B in edges):
                edges.append(A)
            elif overlapping is None and A not in edges:
                overlapping = A
        H0 = UniformHypergraph(n, s, edges)
        base_host = complete_hypergraph(s, r)
        num_colors = data.draw(st.integers(1, 3))
        colors = data.draw(st.lists(
            st.integers(1, num_colors), min_size=base_host.num_edges,
            max_size=base_host.num_edges,
        ))
        base = EdgeColoring(base_host, num_colors, dict(zip(base_host.edges, colors)))
        lifted = lift_coloring(H0, r, base)
        assert lifted.host == primal_r_graph(H0, r)
        assert lifted == EdgeColoring(lifted.host, base.num_colors, dict(lifted.assignment))
        if overlapping is not None:
            with pytest.raises(NotLinearError):
                lift_coloring(UniformHypergraph(n, s, edges + [overlapping]), r, base)


class TestRunTrials:
    def test_zero_probability_all_zero(self):
        stats = run_trials(50, 4, 2, 3, 0.0, 1, 11)
        rec = stats.records[0]
        assert (rec.edges_sampled, rec.cover_violations, rec.linearity_violations,
                rec.deleted, rec.edges_clean) == (0, 0, 0, 0, 0)
        assert stats.violation_edge_ratio == 0.0

    def test_ratio_recomputable_from_records(self):
        stats = run_trials(40, 3, 2, 3, 0.02, 10, 5)
        x = sum(r.cover_violations for r in stats.records) / stats.trials
        y = sum(r.linearity_violations for r in stats.records) / stats.trials
        e = sum(r.edges_sampled for r in stats.records) / stats.trials
        assert stats.violation_edge_ratio == pytest.approx((x + y) / e)

    def test_trial_seeds_derived_from_master(self):
        stats = run_trials(40, 3, 2, 3, 0.02, 3, 5)
        assert [r.seed for r in stats.records] == [trial_seed(5, i) for i in range(3)]

    def test_csv_and_json_byte_identical_across_runs(self):
        a = run_trials(40, 3, 2, 3, 0.02, 5, 123)
        b = run_trials(40, 3, 2, 3, 0.02, 5, 123)
        assert a == b

    def test_validates(self):
        with pytest.raises(ValueError):
            run_trials(40, 3, 2, 3, 0.02, 0, 1)

    def test_rejects_negative_master_seed(self):
        with pytest.raises(ValueError):
            run_trials(50, 4, 2, 3, 0.0, 2, -1)


TRIAL_ARGS = (40, 3, 2, 3, 0.02)  # ~200 edges per trial, with both kinds of violation


def serial_trials(monkeypatch, trials, master_seed=5):
    monkeypatch.setattr(construct, "_usable_cpus", lambda: 1)
    return run_trials(*TRIAL_ARGS, trials, master_seed)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_on_trial(monkeypatch, index, master_seed=5):
    """Make `clean` raise in the trial whose seed is trial_seed(master_seed, index)."""
    drawn = []
    real_sample, real_clean = construct.sample_hypergraph, construct.clean

    def sample(n, s, p, seed):
        drawn.append(seed)
        return real_sample(n, s, p, seed)

    def clean(H, r, t):
        if drawn[-1] == trial_seed(master_seed, index):
            raise InternalContradictionError(f"trial {index} fails on seed {drawn[-1]}")
        return real_clean(H, r, t)

    monkeypatch.setattr(construct, "sample_hypergraph", sample)
    monkeypatch.setattr(construct, "clean", clean)


class TestRunTrialsInBlocks:
    """`run_trials` forks one child per block after the first; every
    result must equal the one-block run whatever the children do."""

    @pytest.mark.parametrize("trials", [1, 2, 3, 5])
    @pytest.mark.parametrize("blocks", [2, 3, 4])
    def test_blocks_give_the_serial_records(self, monkeypatch, blocks, trials):
        expected = serial_trials(monkeypatch, trials)
        caller, real_rows, computed_here = os.getpid(), construct._trial_rows, []

        def rows(*args):
            if os.getpid() == caller:
                computed_here.append(len(args[-1]))
            return real_rows(*args)

        monkeypatch.setattr(construct, "_trial_rows", rows)
        monkeypatch.setattr(construct, "_usable_cpus", lambda: blocks)
        assert run_trials(*TRIAL_ARGS, trials, 5) == expected
        # the caller ran only the first block: every child reported in full
        assert computed_here == [trials // min(blocks, trials)]
        assert_no_child_left()

    @pytest.mark.parametrize("index", [0, 2, 4])  # the caller's block, then children's
    @pytest.mark.parametrize("blocks", [2, 3])
    def test_a_raising_trial_raises_as_the_serial_run_does(self, monkeypatch, blocks, index):
        fail_on_trial(monkeypatch, index)
        with pytest.raises(InternalContradictionError) as serial:
            serial_trials(monkeypatch, 5)
        monkeypatch.setattr(construct, "_usable_cpus", lambda: blocks)
        with pytest.raises(InternalContradictionError) as forked:
            run_trials(*TRIAL_ARGS, 5, 5)
        assert str(forked.value) == str(serial.value)
        assert_no_child_left()

    def test_the_caller_recomputes_a_block_whose_child_died(self, monkeypatch):
        expected = serial_trials(monkeypatch, 5)
        caller, real_clean = os.getpid(), construct.clean

        def clean(H, r, t):
            if os.getpid() != caller:
                os._exit(1)  # dies before reporting anything
            return real_clean(H, r, t)

        monkeypatch.setattr(construct, "clean", clean)
        monkeypatch.setattr(construct, "_usable_cpus", lambda: 3)
        assert run_trials(*TRIAL_ARGS, 5, 5) == expected
        assert_no_child_left()

    def test_the_caller_runs_a_block_no_child_could_start(self, monkeypatch):
        expected = serial_trials(monkeypatch, 5)

        def fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(construct, "_usable_cpus", lambda: 2)
        assert run_trials(*TRIAL_ARGS, 5, 5) == expected
        assert_no_child_left()


class TestTrialSeed:
    def test_stable_values(self):
        # frozen: derivation must never change silently
        assert trial_seed(0, 0) == trial_seed(0, 0)
        assert trial_seed(0, 0) != trial_seed(0, 1)
        assert trial_seed(0, 0) != trial_seed(1, 0)
        assert 0 <= trial_seed(12345, 678) < 2**64
