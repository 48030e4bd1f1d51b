import hashlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import (
    EdgeColoring,
    InternalContradictionError,
    NoGoodColoringError,
    RamseyUndecidedError,
    SearchBudgetExceeded,
    TargetList,
    UniformHypergraph,
    arrows,
    arrows_decision,
    base_coloring_search,
    complete_hypergraph,
    export_cnf,
    ramsey_number,
    verify_good_coloring,
)

from oracles import (
    count_good_colorings_graph,
    dpll_satisfiable,
    forward_checked_search,
    lex_first_good_coloring,
    naive_cliques,
    parse_dimacs,
    row_lex_ordered,
    row_lex_relabelling,
    search_nodes,
)


def pentagon_coloring():
    host = complete_hypergraph(5, 2)
    red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    return EdgeColoring(host, 2, {e: 1 if e in red else 2 for e in host.edges})


class TestTargetList:
    def test_rejects_sizes_at_or_below_r(self):
        with pytest.raises(ValueError):
            TargetList(2, (3, 2))
        with pytest.raises(ValueError):
            TargetList(3, (3,))
        with pytest.raises(ValueError):
            TargetList(2, ())
        with pytest.raises(ValueError, match="r must be >= 2, got 1"):
            TargetList(1, (3,))

    def test_order_preserved(self):
        tl = TargetList(2, (4, 3))
        assert tl.sizes == (4, 3)
        assert tl.num_colors == 2


class TestVerifyGoodColoring:
    def test_pentagon_is_good(self):
        host = complete_hypergraph(5, 2)
        assert verify_good_coloring(host, pentagon_coloring(), TargetList(2, (3, 3)))

    def test_mono_triangle_reported_first(self):
        host = complete_hypergraph(3, 2)
        c = EdgeColoring(host, 2, {e: 1 for e in host.edges})
        check = verify_good_coloring(host, c, TargetList(2, (3, 3)))
        assert not check
        assert (check.color, check.vertices) == (1, (1, 2, 3))

    def test_first_violation_is_deterministic(self):
        host = complete_hypergraph(4, 2)
        c = EdgeColoring(host, 2, {e: 2 for e in host.edges})
        check = verify_good_coloring(host, c, TargetList(2, (3, 3)))
        assert (check.color, check.vertices) == (2, (1, 2, 3))

    def test_rejects_foreign_coloring(self):
        host = complete_hypergraph(5, 2)
        other = complete_hypergraph(4, 2)
        c = EdgeColoring(other, 2, {e: 1 for e in other.edges})
        with pytest.raises(ValueError):
            verify_good_coloring(host, c, TargetList(2, (3, 3)))

    def test_rejects_color_count_or_uniformity_mismatch(self):
        host = complete_hypergraph(5, 2)
        with pytest.raises(ValueError, match="coloring has 2 colors, targets expect 3"):
            verify_good_coloring(host, pentagon_coloring(), TargetList(2, (3, 3, 3)))
        with pytest.raises(ValueError, match="host uniformity 2 != target uniformity 3"):
            verify_good_coloring(host, pentagon_coloring(), TargetList(3, (4, 4)))


class TestGrowsClique:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(2, 9))
        pairs = list(itertools.combinations(range(n), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        a = [0] * n
        for u, v in edges:
            a[u] |= 1 << v
            a[v] |= 1 << u
        mask = data.draw(st.integers(0, (1 << n) - 1))
        size = data.draw(st.integers(1, 4))
        inside = [w for w in range(n) if mask >> w & 1]
        expected = any(
            all(a[u] >> v & 1 for u, v in itertools.combinations(W, 2))
            for W in itertools.combinations(inside, size)
        )
        assert arrows._grows_clique(a, mask, size) == expected


class TestArrowsDecision:
    def test_k6_arrows_33(self):
        res = arrows_decision(complete_hypergraph(6, 2), TargetList(2, (3, 3)))
        assert res.verdict == "arrows"
        assert res.exhausted
        assert res.witness is None
        # cross-check: no good coloring among all 2^15
        assert count_good_colorings_graph(6, 3, 3) == 0

    def test_k5_not_arrows_33(self):
        G = complete_hypergraph(5, 2)
        res = arrows_decision(G, TargetList(2, (3, 3)))
        assert res.verdict == "not_arrows"
        assert not res.exhausted
        assert verify_good_coloring(G, res.witness, TargetList(2, (3, 3)))
        assert count_good_colorings_graph(5, 3, 3) > 0

    def test_single_color_triangle(self):
        res = arrows_decision(complete_hypergraph(4, 2), TargetList(2, (3,)))
        assert res.verdict == "arrows"

    def test_empty_graph_never_arrows(self):
        G = UniformHypergraph(5, 2, [])
        res = arrows_decision(G, TargetList(2, (3, 3)))
        assert res.verdict == "not_arrows"
        assert res.witness.assignment == {}
        for G, targets in ((UniformHypergraph(0, 2, []), TargetList(2, (3, 3))),
                           (UniformHypergraph(6, 3, []), TargetList(3, (4, 4)))):
            res = arrows_decision(G, targets)
            assert (res.verdict, res.nodes_explored) == ("not_arrows", 0)
            assert res.witness.assignment == {}

    def test_search_bitsets_span_the_support_not_n(self):
        # a triangle on the top labels of n = 10^6 searches as K_3 does;
        # bitsets sized by n took 16 MiB here
        targets = TargetList(2, (3, 3))
        small = arrows_decision(complete_hypergraph(3, 2), targets)
        n = 10**6
        G = UniformHypergraph(n, 2, [(n - 2, n - 1), (n - 2, n), (n - 1, n)])
        tracemalloc.start()
        try:
            big = arrows_decision(G, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert (big.verdict, big.nodes_explored) == (small.verdict, small.nodes_explored)
        assert big.witness.host == G
        assert list(big.witness.assignment.values()) == list(small.witness.assignment.values())

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_spread_labels_keep_the_literal_search(self, data):
        # a host on [40] is never complete, so it runs the literal search;
        # spreading the labels keeps the edge order, so the node count and
        # the witness colors are the oracle's on the packed labels
        n = data.draw(st.integers(3, 7))
        candidates = list(itertools.combinations(range(1, n + 1), 2))
        edges = sorted(data.draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True)))
        labels = sorted(data.draw(st.sets(st.integers(1, 40), min_size=n, max_size=n)))
        spread = [(labels[u - 1], labels[v - 1]) for u, v in edges]
        sizes = data.draw(st.sampled_from([(3, 3), (3, 4), (4, 4)]))
        result = arrows_decision(UniformHypergraph(40, 2, spread), TargetList(2, sizes))
        literal, nodes = search_nodes(n, sizes, False, edges)
        assert result.nodes_explored == nodes
        witness = _assignment(result)
        assert (None if witness is None else list(witness.values())) == (
            None if literal is None else [literal[e] for e in edges])

    def test_budget_exceeded_raises(self):
        with pytest.raises(SearchBudgetExceeded) as err:
            arrows_decision(
                complete_hypergraph(6, 2), TargetList(2, (3, 3)), max_nodes=10
            )
        assert err.value.nodes_explored == 11

    def test_time_budget_is_read_every_4096_nodes(self):
        # K_13 (3,5) needs millions of nodes to its witness, so a zero time
        # budget stops the search at its first clock reading
        with pytest.raises(SearchBudgetExceeded) as err:
            arrows_decision(complete_hypergraph(13, 2), TargetList(2, (3, 5)), max_seconds=0)
        assert err.value.nodes_explored == 4096

    @pytest.mark.parametrize("name, value", [("max_nodes", -5), ("max_seconds", -1.0)])
    @pytest.mark.parametrize("G", [complete_hypergraph(6, 2), UniformHypergraph(5, 2, [])])
    def test_negative_budget_rejected(self, name, value, G):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got {value}"):
            arrows_decision(G, TargetList(2, (3, 3)), **{name: value})

    def test_nan_time_budget_rejected_and_inf_means_no_limit(self):
        # NaN compares false both ways, so a NaN budget would never stop
        G, targets = complete_hypergraph(6, 2), TargetList(2, (3, 3))
        with pytest.raises(ValueError, match="max_seconds must be >= 0, got nan"):
            arrows_decision(G, targets, max_seconds=float("nan"))
        assert arrows_decision(G, targets, max_seconds=float("inf")).verdict == "arrows"

    def test_zero_budget_is_valid(self):
        empty = UniformHypergraph(5, 2, [])
        for budget in ({"max_nodes": 0}, {"max_seconds": 0}):
            res = arrows_decision(empty, TargetList(2, (3, 3)), **budget)
            assert res.verdict == "not_arrows"
        with pytest.raises(SearchBudgetExceeded):
            arrows_decision(complete_hypergraph(3, 2), TargetList(2, (3, 3)), max_nodes=0)

    def test_asymmetric_targets_use_color_order(self):
        # K_4 with targets (3, 5): coloring everything in color 2 is good
        res = arrows_decision(complete_hypergraph(4, 2), TargetList(2, (3, 5)))
        assert res.verdict == "not_arrows"

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            arrows_decision(complete_hypergraph(4, 3), TargetList(2, (3, 3)))

    def test_three_uniform_small_instances(self):
        # single color: the complete 3-graph on 4 vertices is its own target
        res = arrows_decision(complete_hypergraph(4, 3), TargetList(3, (4,)))
        assert res.verdict == "arrows"
        minus_one = UniformHypergraph(
            4, 3, [e for e in complete_hypergraph(4, 3).edges if e != (1, 2, 3)]
        )
        res = arrows_decision(minus_one, TargetList(3, (4,)))
        assert res.verdict == "not_arrows"

    def test_three_uniform_two_colors_matches_oracle(self):
        G = complete_hypergraph(5, 3)
        targets = TargetList(3, (4, 4))
        res = arrows_decision(G, targets)
        oracle = lex_first_good_coloring(5, 3, G.edges, (4, 4))
        assert (res.verdict == "not_arrows") == (oracle is not None)
        if res.witness is not None:
            assert verify_good_coloring(G, res.witness, targets)

    @pytest.mark.parametrize(
        "n, nodes", [(4, 4), (5, 14), (6, 77), (7, 2_367)]
    )
    def test_three_uniform_node_counts_pinned(self, n, nodes):
        # node counts are reproducible: the r >= 3 search order is fixed
        res = arrows_decision(complete_hypergraph(n, 3), TargetList(3, (4, 4)))
        assert res.nodes_explored == nodes

    def test_witness_r3_base_search_pinned(self):
        # the K_8^(3) (4,5) base coloring that `witness_r3` lifts; `.col`
        # files are left out of every golden digest, so it is pinned here
        res = arrows_decision(complete_hypergraph(8, 3), TargetList(3, (4, 5)))
        assert res.verdict == "not_arrows"
        assert res.nodes_explored == 33_989
        text = repr(sorted(res.witness.assignment.items())).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "f86df675ae9ac764b3609b428335e5061c437a00b87710c83874771d39a4fb8e"
        )

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_subgraph_monotonicity(self, data):
        # if G arrows, any supergraph on the same vertices arrows too
        n = data.draw(st.integers(6, 7))
        all_edges = list(itertools.combinations(range(1, n + 1), 2))
        removed = data.draw(st.lists(st.sampled_from(all_edges), max_size=4))
        grown = data.draw(st.lists(st.sampled_from(removed), max_size=4)) if removed else []
        small = UniformHypergraph(n, 2, [e for e in all_edges if e not in set(removed)])
        big_edges = set(small.edges) | set(grown)
        big = UniformHypergraph(n, 2, big_edges)
        targets = TargetList(2, (3, 3))
        if arrows_decision(small, targets).verdict == "arrows":
            assert arrows_decision(big, targets).verdict == "arrows"


def _no_cliques(*_args):
    raise AssertionError("enumerate_cliques was called")


def _counter_instance(G, targets):
    """The instance of an r = 2 host without endpoints, which sends the
    search down its counter branch with forward checking."""
    return arrows._Instance(G.num_edges, targets.sizes, arrows._target_cliques(G, targets),
                            None, None)


def _counters_agree_with_the_bitsets(G, sizes):
    """On an r = 2 host, the counter branch with forward checking gives the
    bitset branch's verdict and witness, in no more nodes than the literal
    search, which neither breaks symmetry nor checks forward."""
    targets = TargetList(2, sizes)
    inst = arrows._instance(G, targets)
    colors, nodes = arrows._search(_counter_instance(G, targets), None, None, 0.0)
    assert colors == arrows._search(inst, None, None, 0.0)[0]
    literal, literal_nodes = search_nodes(len(G.support), sizes, False, inst.ends)
    assert colors == (None if literal is None else [literal[e] for e in inst.ends])
    assert nodes <= literal_nodes


# the r = 2 hosts of TestArrowsDecision; K_13 (3,5), which only checks the
# time budget, needs millions of nodes without row-lex and is left out
_R2_HOSTS = [
    (complete_hypergraph(n, 2), sizes)
    for n, sizes in ((3, (3, 3)), (4, (3, 3)), (5, (3, 3)), (6, (3, 3)), (4, (3,)), (4, (3, 5)))
] + [
    (UniformHypergraph(5, 2, []), (3, 3)),
    (UniformHypergraph(0, 2, []), (3, 3)),
    (UniformHypergraph(10**6, 2, [(10**6 - 2, 10**6 - 1), (10**6 - 2, 10**6), (10**6 - 1, 10**6)]),
     (3, 3)),
    (UniformHypergraph(6, 2, [e for e in complete_hypergraph(6, 2).edges if e != (2, 5)]),
     (3, 3)),
    (UniformHypergraph(7, 2, [e for e in complete_hypergraph(7, 2).edges if 1 not in e]),
     (3, 3)),
]


class TestInstance:
    def test_r2_instances_list_no_clique(self, monkeypatch):
        from ramseykit import clean, lift_coloring, sample_hypergraph

        targets = TargetList(2, (3, 3))
        H0 = clean(sample_hypergraph(300, 5, 3e-10, seed=17), 2, 3).result
        witness_host = lift_coloring(H0, 2, base_coloring_search(5, targets)).host
        monkeypatch.setattr(arrows, "enumerate_cliques", _no_cliques)
        K9 = complete_hypergraph(9, 2)
        inst = arrows._instance(K9, targets)
        assert (inst.m, inst.ends, inst.cliques) == (36, list(K9.edges), None)
        assert inst.row_pairs is not None
        inst = arrows._instance(witness_host, targets)
        label = {v: i for i, v in enumerate(witness_host.support, start=1)}
        assert inst.ends == [(label[u], label[v]) for u, v in witness_host.edges]
        assert (inst.m, inst.cliques, inst.row_pairs) == (witness_host.num_edges, None, None)
        assert len(label) < witness_host.n  # the host is spread out and incomplete

    def test_arrows_verdict_lists_no_clique(self, monkeypatch):
        # verify_good_coloring lists cliques for every witness, so only an
        # "arrows" verdict runs without the clique kernel
        monkeypatch.setattr(arrows, "enumerate_cliques", _no_cliques)
        res = arrows_decision(complete_hypergraph(6, 2), TargetList(2, (3, 3)))
        assert res.verdict == "arrows"

    def test_r3_instances_list_target_cliques_by_edge_id(self):
        G, targets = complete_hypergraph(5, 3), TargetList(3, (4, 5))
        inst = arrows._instance(G, targets)
        assert (inst.m, inst.ends, inst.row_pairs) == (10, None, None)
        index = {e: j for j, e in enumerate(G.edges)}
        assert inst.cliques == [
            [[index[B] for B in itertools.combinations(W, 3)] for W in naive_cliques(5, 3, G.edges, t)]
            for t in (4, 5)
        ]

    @pytest.mark.parametrize("G, sizes", _R2_HOSTS, ids=[
        "k3", "k4", "k5", "k6_arrows", "k4_one_color", "k4_35", "edgeless", "no_vertices",
        "top_labels_of_a_million", "k6_minus_an_edge", "k6_on_2_to_7"])
    def test_r2_hosts_without_endpoints_run_the_counters(self, G, sizes):
        _counters_agree_with_the_bitsets(G, sizes)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_r2_hosts_without_endpoints_run_the_counters(self, data):
        # random hosts on up to 7 spread labels, as in
        # test_spread_labels_keep_the_literal_search
        n = data.draw(st.integers(3, 7))
        candidates = list(itertools.combinations(range(1, n + 1), 2))
        edges = sorted(data.draw(st.lists(st.sampled_from(candidates), min_size=1, unique=True)))
        labels = sorted(data.draw(st.sets(st.integers(1, 40), min_size=n, max_size=n)))
        G = UniformHypergraph(40, 2, [(labels[u - 1], labels[v - 1]) for u, v in edges])
        sizes = data.draw(st.sampled_from([(3, 3), (3, 4), (4, 4)]))
        _counters_agree_with_the_bitsets(G, sizes)


def _assignment(result):
    """The witness of an ArrowResult as an edge -> color dict, or None."""
    return None if result.witness is None else result.witness.assignment


def _agrees_with_oracles(G, sizes, *, lex_first):
    """Verdict, witness and node count of the r >= 3 search equal the
    brute-force forward-checked search's; with `lex_first`, the witness is
    also the first good coloring in plain product order."""
    result = arrows_decision(G, TargetList(G.k, sizes))
    coloring, nodes = forward_checked_search(G.n, G.k, G.edges, sizes)
    assert result.verdict == ("arrows" if coloring is None else "not_arrows")
    assert _assignment(result) == coloring
    assert result.nodes_explored == nodes
    if lex_first:
        assert coloring == lex_first_good_coloring(G.n, G.k, G.edges, sizes)


class TestForwardChecking:
    @pytest.mark.parametrize("n, sizes", [
        (4, (4, 4)), (5, (4, 4)), (6, (4, 4)), (7, (4, 4)),
        (6, (4, 5)), (7, (4, 5)), (4, (4,)), (5, (4,)),
    ])
    def test_complete_hosts_match_the_oracles(self, n, sizes):
        # product order reaches K_7's first good coloring only after ~10^8
        # colorings, so there the forward-checked oracle stands alone
        _agrees_with_oracles(complete_hypergraph(n, 3), sizes, lex_first=n <= 6)

    def test_k6_minus_an_edge_matches_the_oracles(self):
        # each of these hosts makes the (4,4) search backtrack
        edges = complete_hypergraph(6, 3).edges
        for removed in edges:
            host = UniformHypergraph(6, 3, [e for e in edges if e != removed])
            _agrees_with_oracles(host, (4, 4), lex_first=True)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_hosts_match_the_oracles(self, data):
        k = data.draw(st.sampled_from([3, 4]))
        n = data.draw(st.integers(k + 1, 6))
        ell = data.draw(st.integers(2, 3))
        edges = complete_hypergraph(n, k).edges
        removed = data.draw(st.sets(st.sampled_from(edges), min_size=1, max_size=4))
        sizes = tuple(data.draw(st.lists(st.integers(k + 1, n), min_size=ell, max_size=ell)))
        host = UniformHypergraph(n, k, [e for e in edges if e not in removed])
        _agrees_with_oracles(host, sizes, lex_first=True)


def _is_good(n, colors, sizes):
    """Oracle check: no color class of the K_n coloring holds its target."""
    return not any(
        naive_cliques(n, 2, [e for e, c in colors.items() if c == color], size)
        for color, size in enumerate(sizes, start=1)
    )


# complete hosts on which the rule is checked against the literal search
_ROW_LEX_CASES = [
    (sizes, n)
    for sizes, n_max in (((3, 3), 8), ((3, 4), 8), ((4, 4), 8), ((3, 5), 8), ((3, 3, 3), 7))
    for n in range(0, n_max + 1)
]


class TestRowLexSymmetryBreaking:
    @pytest.mark.parametrize("sizes", [(3, 3), (3, 4)])
    def test_every_good_coloring_has_a_row_lex_relabelling(self, sizes):
        # the soundness lemma, by brute force over every 2-coloring of K_n
        for n in range(2, 6):
            edges = list(itertools.combinations(range(1, n + 1), 2))
            good = 0
            for colors in itertools.product((1, 2), repeat=len(edges)):
                coloring = dict(zip(edges, colors))
                if _is_good(n, coloring, sizes):
                    good += 1
                    assert row_lex_relabelling(n, coloring) is not None, coloring
            assert good > 0

    def test_predicate_compares_adjacent_rows(self):
        # K_3: rows 1 and 2 are compared at column 3 only, rows 2 and 3
        # at column 1 only
        ordered = {(1, 2): 1, (1, 3): 1, (2, 3): 2}
        broken = {(1, 2): 1, (1, 3): 2, (2, 3): 1}  # rows 1, 2 read 2 > 1
        assert row_lex_ordered(3, ordered)
        assert not row_lex_ordered(3, broken)
        assert row_lex_relabelling(3, broken) is not None

    @pytest.mark.parametrize("sizes,n", _ROW_LEX_CASES)
    def test_verdict_matches_literal_search(self, sizes, n):
        result = arrows_decision(complete_hypergraph(n, 2), TargetList(2, sizes))
        literal, literal_nodes = search_nodes(n, sizes, False)
        assert result.verdict == ("arrows" if literal is None else "not_arrows")
        # the literal search's first witness is the least of its class
        assert _assignment(result) == literal
        assert result.nodes_explored <= literal_nodes

    @pytest.mark.parametrize("sizes", [(3, 3), (3, 4), (4, 4), (3, 3, 3)])
    def test_node_counts_match_the_full_row_check(self, sizes):
        # checking only the two row pairs an edge can settle, with one
        # tied bit per pair, prunes exactly the branches that a check of
        # every row pair over the partial coloring prunes
        targets = TargetList(2, sizes)
        for n in range(2, 9 if len(sizes) == 2 else 8):
            result = arrows_decision(complete_hypergraph(n, 2), targets)
            assert (_assignment(result), result.nodes_explored) == search_nodes(
                n, sizes, True
            ), n

    @pytest.mark.parametrize("sizes,n", _ROW_LEX_CASES)
    def test_witness_is_good_and_row_lex(self, sizes, n):
        G = complete_hypergraph(n, 2)
        targets = TargetList(2, sizes)
        result = arrows_decision(G, targets)
        if result.verdict == "not_arrows":
            assert verify_good_coloring(G, result.witness, targets)
            assert row_lex_ordered(n, result.witness.assignment)
            assert _is_good(n, result.witness.assignment, sizes)

    @pytest.mark.parametrize("sizes", [(3, 3), (3, 4)])
    def test_verdict_matches_dpll(self, sizes):
        targets = TargetList(2, sizes)
        for n in range(2, 7):
            G = complete_hypergraph(n, 2)
            sat = dpll_satisfiable(*parse_dimacs(export_cnf(G, targets)))
            verdict = arrows_decision(G, targets).verdict
            assert (verdict == "not_arrows") == sat, n

    @pytest.mark.parametrize("sizes", [(3, 3), (3, 4)])
    def test_incomplete_hosts_run_the_literal_search(self, sizes):
        # the rule relabels the host, so it is off on every host that is
        # not complete: K_n plus an isolated vertex has K_n's edges in the
        # same order and visits exactly the literal search's nodes
        targets = TargetList(2, sizes)
        for n in range(3, 7):
            edges = complete_hypergraph(n, 2).edges
            padded = arrows_decision(UniformHypergraph(n + 1, 2, edges), targets)
            assert (_assignment(padded), padded.nodes_explored) == search_nodes(
                n, sizes, False
            ), n
            for removed in edges:
                kept = [e for e in edges if e != removed]
                result = arrows_decision(UniformHypergraph(n, 2, kept), targets)
                assert (_assignment(result), result.nodes_explored) == search_nodes(
                    n, sizes, False, kept
                ), (n, removed)

    def test_k9_34_exhausts_within_20000_nodes(self):
        # the literal search visits 29,196,464 nodes here
        result = arrows_decision(
            complete_hypergraph(9, 2), TargetList(2, (3, 4)), max_nodes=20_000
        )
        assert result.verdict == "arrows"

    def test_r34_within_the_s_auto_budget(self):
        # 200,000 nodes per host is `witness --s-auto`'s budget
        assert ramsey_number(TargetList(2, (3, 4)), 16, max_nodes=200_000) == 9


class TestWitnessVerification:
    def test_bad_search_witness_raises(self, monkeypatch):
        # a search that colors every edge 1 would hand back a red triangle
        monkeypatch.setattr(
            arrows, "_search",
            lambda inst, *_args: ([1] * inst.m, inst.m),
        )
        with pytest.raises(InternalContradictionError, match=r"\(1, 2, 3\) in color 1"):
            arrows_decision(complete_hypergraph(4, 2), TargetList(2, (3, 3)))

    def test_bad_three_uniform_witness_raises(self, monkeypatch):
        monkeypatch.setattr(
            arrows, "_search",
            lambda inst, *_args: ([2] * inst.m, inst.m),
        )
        with pytest.raises(InternalContradictionError, match="in color 2"):
            arrows_decision(complete_hypergraph(5, 3), TargetList(3, (4, 4)))


def _cnf_matches_the_oracles(G, sizes):
    """export_cnf on G has m*L variables, edge j (0-based, lex order) in
    color c being variable j*L + c; its clauses are every at-least-one,
    then every at-most-one, then one per (color, `naive_cliques` clique),
    colors ascending; and it is satisfiable exactly when the search finds
    a good coloring."""
    targets, ell, edges = TargetList(G.k, sizes), len(sizes), sorted(G.edges)
    num_vars, clauses = parse_dimacs(export_cnf(G, targets))
    var = {(e, c): j * ell + c for j, e in enumerate(edges) for c in range(1, ell + 1)}
    pairs = list(itertools.combinations(range(1, ell + 1), 2))
    expected = [[var[e, c] for c in range(1, ell + 1)] for e in edges]
    expected += [[-var[e, a], -var[e, b]] for e in edges for a, b in pairs]
    expected += [
        [-var[B, c] for B in itertools.combinations(W, G.k)]
        for c, t in enumerate(sizes, start=1)
        for W in naive_cliques(G.n, G.k, G.edges, t)
    ]
    assert num_vars == G.num_edges * ell
    assert clauses == expected
    verdict = arrows_decision(G, targets).verdict
    assert dpll_satisfiable(num_vars, clauses) == (verdict == "not_arrows")


def _drop(G, *removed):
    return UniformHypergraph(G.n, G.k, [e for e in G.edges if e not in removed])


class TestExportCnf:
    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("sizes", [(4, 4), (4, 5)])
    def test_three_uniform_complete_hosts(self, n, sizes):
        _cnf_matches_the_oracles(complete_hypergraph(n, 3), sizes)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_three_uniform_random_hosts(self, data):
        n = data.draw(st.integers(4, 6))
        edges = data.draw(st.lists(st.sampled_from(complete_hypergraph(n, 3).edges), unique=True))
        ell = data.draw(st.integers(2, 3))
        sizes = tuple(data.draw(st.lists(st.integers(4, n), min_size=ell, max_size=ell)))
        _cnf_matches_the_oracles(UniformHypergraph(n, 3, edges), sizes)

    @pytest.mark.parametrize("G, sizes", [
        (complete_hypergraph(5, 2), (3, 3)),
        (complete_hypergraph(8, 2), (3, 4)),
        (complete_hypergraph(6, 2), (3, 3, 3)),
        (_drop(complete_hypergraph(6, 2), (1, 2)), (3, 3)),
        (UniformHypergraph(7, 2, complete_hypergraph(6, 2).edges), (3, 3, 3)),
        (complete_hypergraph(6, 3), (4, 4)),
        (complete_hypergraph(7, 3), (4, 5)),
        (_drop(complete_hypergraph(6, 3), (1, 2, 3), (2, 4, 6)), (4, 4, 5)),
    ], ids=["k5_row_lex", "k8_row_lex", "k6_three_colors_row_lex", "k6_minus_an_edge",
            "k6_plus_a_vertex", "k6_r3", "k7_r3", "k6_r3_minus_two_edges"])
    def test_search_witness_is_a_model(self, G, sizes):
        """The search's decision "edge j gets color c" is CNF variable
        j*L + c: its witness, read that way, satisfies every clause."""
        targets, ell = TargetList(G.k, sizes), len(sizes)
        result = arrows_decision(G, targets)
        assert result.verdict == "not_arrows"
        colors = [result.witness.assignment[e] for e in G.edges]
        true = {j * ell + c for j, c in enumerate(colors)}
        num_vars, clauses = parse_dimacs(export_cnf(G, targets))
        assert num_vars == len(colors) * ell
        for clause in clauses:
            assert any((lit > 0) == (abs(lit) in true) for lit in clause), clause

    def test_k5_shape_and_satisfiability(self):
        text = export_cnf(complete_hypergraph(5, 2), TargetList(2, (3, 3)))
        num_vars, clauses = parse_dimacs(text)
        assert num_vars == 20
        assert len(clauses) == 40  # 10 at-least-one + 10 at-most-one + 2*10 cliques
        assert dpll_satisfiable(num_vars, clauses)

    def test_k6_unsatisfiable(self):
        text = export_cnf(complete_hypergraph(6, 2), TargetList(2, (3, 3)))
        assert not dpll_satisfiable(*parse_dimacs(text))

    def test_clique_free_graph_trivially_satisfiable(self):
        G = UniformHypergraph(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        text = export_cnf(G, TargetList(2, (3, 3)))
        num_vars, clauses = parse_dimacs(text)
        assert len(clauses) == 10  # per-edge clauses only
        assert dpll_satisfiable(num_vars, clauses)

    def test_comment_block_maps_variables(self):
        text = export_cnf(complete_hypergraph(3, 2), TargetList(2, (3, 3)))
        assert "c x1 = edge 1 2 color 1" in text
        assert "c x2 = edge 1 2 color 2" in text

    def test_single_color_rejected(self):
        with pytest.raises(ValueError):
            export_cnf(complete_hypergraph(4, 2), TargetList(2, (3,)))

    @pytest.mark.parametrize("G, r", [(complete_hypergraph(4, 2), 3), (complete_hypergraph(4, 3), 2)])
    def test_uniformity_mismatch_rejected(self, G, r):
        with pytest.raises(ValueError, match=f"host uniformity {G.k} != target uniformity {r}"):
            export_cnf(G, TargetList(r, (5, 5)))


class TestRamseyNumber:
    def test_two_triangles(self):
        assert ramsey_number(TargetList(2, (3, 3)), 8) == 6

    def test_single_target_is_its_own_size(self):
        for t in (3, 4, 5):
            assert ramsey_number(TargetList(2, (t,)), 8) == t

    def test_undecided_within_bound(self):
        with pytest.raises(RamseyUndecidedError):
            ramsey_number(TargetList(2, (3, 3)), 5)

    def test_budget_bubbles_up(self):
        with pytest.raises(SearchBudgetExceeded):
            ramsey_number(TargetList(2, (3, 3)), 8, max_nodes=10)


class TestPipelineShape:
    def test_certificate_exact_companion_only_reported(self):
        # the produced primal graph provably does NOT arrow the targets
        # (verified certificate); whether it DOES arrow the companion
        # pair is an asymptotic statement, so the small-n search outcome
        # is reported here and never asserted either way
        from ramseykit import (
            base_coloring_search, clean, lift_coloring, sample_hypergraph,
        )

        targets = TargetList(2, (3, 3))
        H = sample_hypergraph(300, 5, 3e-10, seed=17)
        H0 = clean(H, 2, 3).result
        base = base_coloring_search(5, targets)
        lifted = lift_coloring(H0, 2, base)
        G = lifted.host
        assert G.num_edges > 0
        assert verify_good_coloring(G, lifted, targets)

        companion = TargetList(2, (5, 3))
        try:
            result = arrows_decision(G, companion, max_nodes=200_000)
            finding = f"decided: {result.verdict}"
        except SearchBudgetExceeded as exc:
            finding = f"inconclusive after {exc.nodes_explored} nodes"
        print(f"companion arrowing question at n=300 (not asserted): {finding}")


class TestBaseColoringSearch:
    def test_pentagon_scale(self):
        base = base_coloring_search(5, TargetList(2, (3, 3)))
        host = complete_hypergraph(5, 2)
        assert verify_good_coloring(host, base, TargetList(2, (3, 3)))
        # a repeat call searches again and finds the same coloring
        assert base_coloring_search(5, TargetList(2, (3, 3))) == base

    def test_budget_overrun_raises_every_time(self):
        targets = TargetList(2, (3, 4))
        for _ in range(2):
            with pytest.raises(SearchBudgetExceeded):
                base_coloring_search(7, targets, max_nodes=5)
        base = base_coloring_search(7, targets)
        assert verify_good_coloring(complete_hypergraph(7, 2), base, targets)

    def test_none_exists_at_ramsey_number(self):
        with pytest.raises(NoGoodColoringError):
            base_coloring_search(6, TargetList(2, (3, 3)))

    def test_single_edge_host(self):
        base = base_coloring_search(2, TargetList(2, (3, 3)))
        assert base.host.num_edges == 1

    def test_below_uniformity_rejected(self):
        with pytest.raises(ValueError):
            base_coloring_search(2, TargetList(3, (4,)))
