import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import (
    EdgeColoring,
    NoGoodColoringError,
    RamseyUndecidedError,
    SearchBudgetExceeded,
    TargetList,
    UniformHypergraph,
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
    exhaustive_good_coloring_exists,
    parse_dimacs,
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

    def test_budget_exceeded_raises(self):
        with pytest.raises(SearchBudgetExceeded) as err:
            arrows_decision(
                complete_hypergraph(6, 2), TargetList(2, (3, 3)), max_nodes=10
            )
        assert err.value.nodes_explored == 11

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
        oracle = exhaustive_good_coloring_exists(5, 3, G.edges, (4, 4))
        assert (res.verdict == "not_arrows") == oracle
        if res.witness is not None:
            assert verify_good_coloring(G, res.witness, targets)

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


class TestExportCnf:
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
        # cached object is returned on repeat calls
        assert base_coloring_search(5, TargetList(2, (3, 3))) is base

    def test_budget_overrun_raises_every_time(self):
        targets = TargetList(2, (3, 4))
        for _ in range(2):  # a failed search is not cached
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
