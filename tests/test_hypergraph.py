import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramseykit import (
    EdgeColoring,
    UniformHypergraph,
    clique_density,
    complete_hypergraph,
    count_mono_clique_copies,
    enumerate_cliques,
    max_r_density,
    max_r_density_with_witness,
    primal_r_graph,
)

from oracles import brute_force_density, naive_cliques


@st.composite
def hypergraphs(draw, min_k=2, max_k=3, max_n=8):
    k = draw(st.integers(min_k, max_k))
    n = draw(st.integers(k, max_n))
    candidates = list(itertools.combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(candidates), max_size=len(candidates)))
    return UniformHypergraph(n, k, edges)


class TestUniformHypergraph:
    def test_canonicalization(self):
        H = UniformHypergraph(5, 3, [(3, 1, 2), (5, 4, 3), (1, 2, 3)])
        assert H.edges == ((1, 2, 3), (3, 4, 5))
        assert H.num_edges == 2
        assert H.support == (1, 2, 3, 4, 5)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            UniformHypergraph(4, 3, [(1, 1, 2)])
        with pytest.raises(ValueError):
            UniformHypergraph(4, 3, [(1, 2)])
        with pytest.raises(ValueError):
            UniformHypergraph(4, 3, [(1, 2, 5)])
        with pytest.raises(ValueError):
            UniformHypergraph(4, 1, [])
        with pytest.raises(ValueError, match="vertex count must be >= 0, got -1"):
            UniformHypergraph(-1, 2)
        with pytest.raises(ValueError, match="uniformity k must be >= 2, got 1"):
            complete_hypergraph(4, 1)

    def test_complete_hypergraph_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="vertex count must be >= 0, got -1"):
            complete_hypergraph(-1, 2)

    def test_isolated_vertices_representable(self):
        H = UniformHypergraph(10, 2, [(1, 2)])
        assert H.n == 10
        assert H.support == (1, 2)

    def test_reprs_stay_compact(self):
        H = UniformHypergraph(200, 2, [(i, j) for i in range(1, 101) for j in range(101, 201)])
        assert H.num_edges == 10**4
        assert repr(H) == "UniformHypergraph(n=200, k=2, edges=<10000>)"
        coloring = EdgeColoring(H, 2, dict.fromkeys(H.edges, 1))
        assert repr(coloring) == f"EdgeColoring(host={H!r}, num_colors=2, assignment=<10000>)"

    def test_equality_is_structural(self):
        a = UniformHypergraph(4, 2, [(1, 2), (3, 4)])
        b = UniformHypergraph(4, 2, [(3, 4), (2, 1)])
        assert a == b


class TestPrimal:
    def test_single_edge_spans_clique(self):
        H = UniformHypergraph(4, 4, [(1, 2, 3, 4)])
        G = primal_r_graph(H, 2)
        assert G == complete_hypergraph(4, 2)
        assert G.num_edges == 6

    def test_empty(self):
        H = UniformHypergraph(7, 4, [])
        assert primal_r_graph(H, 3).num_edges == 0

    def test_two_triangles(self):
        H = UniformHypergraph(5, 3, [(1, 2, 3), (3, 4, 5)])
        G = primal_r_graph(H, 2)
        assert G.edges == ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5))

    def test_bad_r(self):
        H = UniformHypergraph(5, 3, [(1, 2, 3)])
        with pytest.raises(ValueError):
            primal_r_graph(H, 4)
        with pytest.raises(ValueError):
            primal_r_graph(H, 1)

    @given(hypergraphs())
    def test_idempotence(self, H):
        assert primal_r_graph(H, H.k).edges == H.edges

    @given(hypergraphs(), st.data())
    def test_monotonicity(self, H, data):
        r = data.draw(st.integers(2, H.k))
        sub_edges = data.draw(st.lists(st.sampled_from(H.edges), max_size=H.num_edges)
                              ) if H.num_edges else []
        H0 = UniformHypergraph(H.n, H.k, sub_edges)
        inner = primal_r_graph(H0, r)
        outer = primal_r_graph(H, r)
        assert inner.edge_set <= outer.edge_set


class TestDensity:
    def test_triangle(self):
        assert max_r_density(complete_hypergraph(3, 2)) == 2

    def test_k4_3uniform(self):
        assert max_r_density(complete_hypergraph(4, 3)) == 3

    def test_path(self):
        F = UniformHypergraph(3, 2, [(1, 2), (2, 3)])
        assert max_r_density(F) == 1

    def test_degenerate_cases(self):
        assert max_r_density(UniformHypergraph(5, 2, [])) == 0
        assert max_r_density(UniformHypergraph(5, 3, [(1, 2, 3)])) == Fraction(1, 3)

    def test_witness(self):
        F = complete_hypergraph(4, 2)
        value, witness = max_r_density_with_witness(F)
        assert value == Fraction(5, 2)
        assert witness == (1, 2, 3, 4)

    def test_support_cap(self):
        # refused before the 2^19-subset scan starts, so this is cheap
        K = complete_hypergraph(19, 2)
        with pytest.raises(ValueError, match="MAX_SUPPORT=18"):
            max_r_density(K)

    def test_clique_density_values(self):
        assert clique_density(3, 2) == 2
        assert clique_density(4, 2) == Fraction(5, 2)
        assert clique_density(5, 3) == Fraction(9, 2)

    def test_clique_density_validates(self):
        with pytest.raises(ValueError):
            clique_density(2, 2)
        with pytest.raises(ValueError):
            clique_density(3, 1)

    def test_density_agreement(self):
        for r in range(2, 6):
            for t in range(r + 1, 7):
                assert clique_density(t, r) == max_r_density(complete_hypergraph(t, r))

    def test_density_monotonicity(self):
        # strictly increasing in the clique size, for every uniformity;
        # the t' = r case uses the single-edge convention m_r(K_r) = 1/r
        for r in range(2, 7):
            for tp in range(r, 7):
                low = (
                    max_r_density(complete_hypergraph(r, r))
                    if tp == r
                    else clique_density(tp, r)
                )
                for t in range(tp + 1, 8):
                    assert clique_density(t, r) > low

    @given(hypergraphs(max_n=7))
    @settings(max_examples=60)
    def test_matches_brute_force(self, F):
        assert max_r_density(F) == brute_force_density(F.n, F.k, F.edges)

    @given(hypergraphs(max_n=7), st.data())
    @settings(max_examples=60)
    def test_subgraph_monotone(self, F, data):
        sub_edges = data.draw(st.lists(st.sampled_from(F.edges), max_size=F.num_edges)
                              ) if F.num_edges else []
        sub = UniformHypergraph(F.n, F.k, sub_edges)
        assert max_r_density(sub) <= max_r_density(F)


class TestCliques:
    def test_k4_triangles(self):
        G = complete_hypergraph(4, 2)
        assert enumerate_cliques(G, 3) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_five_cycle_has_no_triangle(self):
        G = UniformHypergraph(5, 2, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert enumerate_cliques(G, 3) == []

    def test_k5_3uniform_minus_edge(self):
        edges = [e for e in complete_hypergraph(5, 3).edges if e != (1, 2, 3)]
        G = UniformHypergraph(5, 3, edges)
        assert enumerate_cliques(G, 4) == [(1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)]

    def test_t_equals_r_gives_edges(self):
        G = UniformHypergraph(5, 3, [(1, 2, 3), (2, 3, 4)])
        assert enumerate_cliques(G, 3) == [(1, 2, 3), (2, 3, 4)]

    def test_candidate_sharing_edges_with_each_seed_vertex_is_not_enough(self):
        # 4 shares an edge with each of 1, 2 and 3, so the seed (1, 2, 3)
        # offers it, but (1, 2, 4) is not an edge
        G = UniformHypergraph(6, 3, [(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 6)])
        assert enumerate_cliques(G, 4) == []

    def test_candidate_must_pass_every_link_of_a_later_vertex(self):
        # (1, 2, 3, 4, 5) and (1, 2, 3, 4, 6) are cliques, so 6 stays a
        # candidate until 5 joins (1, 2, 3, 4); then it must drop, because
        # of the six edges S + (5, 6) only (3, 4, 5, 6) is missing
        K5 = set(itertools.combinations(range(1, 6), 4))
        K5_6 = set(itertools.combinations((1, 2, 3, 4, 6), 4))
        fan = {S + (5, 6) for S in itertools.combinations(range(1, 5), 2)} - {(3, 4, 5, 6)}
        G = UniformHypergraph(6, 4, K5 | K5_6 | fan)
        assert enumerate_cliques(G, 5) == [
            (1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 5, 6), (1, 2, 4, 5, 6)
        ]
        assert enumerate_cliques(G, 6) == []

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_complete_hypergraph_yields_every_t_set(self, r):
        for n in range(r, 10):
            G = complete_hypergraph(n, r)
            for t in range(r, n + 1):
                assert enumerate_cliques(G, t) == list(itertools.combinations(range(1, n + 1), t))

    def test_t_below_r_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cliques(complete_hypergraph(4, 3), 2)

    @given(hypergraphs(max_k=4, max_n=10), st.data())
    @settings(max_examples=60)
    def test_matches_naive_scan(self, G, data):
        t = data.draw(st.integers(G.k, min(G.n, G.k + 3)))
        assert enumerate_cliques(G, t) == naive_cliques(G.n, G.k, G.edges, t)

    @given(hypergraphs(min_k=2, max_k=6, max_n=11), st.data())
    @settings(max_examples=80)
    def test_matches_naive_scan_on_primal_graphs(self, H, data):
        # the shape every caller enumerates: the primal r-graph of an s-graph
        r = data.draw(st.integers(2, min(4, H.k)))
        G = primal_r_graph(H, r)
        t = data.draw(st.integers(r, min(H.n, r + 4)))
        assert enumerate_cliques(G, t) == naive_cliques(G.n, r, G.edges, t)

    def test_matches_naive_scan_at_ten_vertices(self):
        import random

        rng = random.Random(4)
        candidates = list(itertools.combinations(range(1, 11), 2))
        G = UniformHypergraph(10, 2, [e for e in candidates if rng.random() < 0.5])
        for t in (2, 3, 4, 5):
            assert enumerate_cliques(G, t) == naive_cliques(10, 2, G.edges, t)


def _pentagon_coloring():
    host = complete_hypergraph(5, 2)
    red = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    return EdgeColoring(
        host, 2, {e: (1 if e in red else 2) for e in host.edges}
    )


class TestMonoCounting:
    def test_all_red_k4(self):
        host = complete_hypergraph(4, 2)
        c = EdgeColoring(host, 2, {e: 1 for e in host.edges})
        assert count_mono_clique_copies(c, 1, 3) == 4
        assert count_mono_clique_copies(c, 2, 3) == 0

    def test_pentagon_coloring_has_no_mono_triangle(self):
        c = _pentagon_coloring()
        assert count_mono_clique_copies(c, 1, 3) == 0
        assert count_mono_clique_copies(c, 2, 3) == 0

    def test_validates_color_and_size(self):
        c = _pentagon_coloring()
        with pytest.raises(ValueError):
            count_mono_clique_copies(c, 3, 3)
        with pytest.raises(ValueError):
            count_mono_clique_copies(c, 1, 1)


class TestEdgeColoring:
    def test_must_be_total(self):
        host = complete_hypergraph(3, 2)
        with pytest.raises(ValueError):
            EdgeColoring(host, 2, {(1, 2): 1, (1, 3): 2})

    def test_rejects_non_edges_and_bad_colors(self):
        host = UniformHypergraph(4, 2, [(1, 2)])
        with pytest.raises(ValueError, match="need at least one color, got 0"):
            EdgeColoring(host, 0, {(1, 2): 1})
        with pytest.raises(ValueError):
            EdgeColoring(host, 2, {(1, 2): 1, (3, 4): 1})
        with pytest.raises(ValueError):
            EdgeColoring(host, 2, {(1, 2): 3})

    def test_rejects_an_edge_colored_twice(self):
        host = complete_hypergraph(3, 2)
        with pytest.raises(ValueError, match=r"edge \(1, 2\) is colored twice"):
            EdgeColoring(host, 2, {(1, 2): 1, (2, 1): 2, (1, 3): 1, (2, 3): 1})

    def test_color_classes(self):
        c = _pentagon_coloring()
        assert c.color_class(1) == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
        assert len(c.color_class(2)) == 5
        assert c.color_of((2, 1)) == 1


def _same_object(trusted, validated):
    assert trusted == validated
    assert hash(trusted) == hash(validated)
    assert repr(trusted) == repr(validated)


class TestTrustedConstructor:
    """`_from_canonical` skips `__post_init__`; on canonical input it builds
    what the validating constructor builds."""

    @given(H=hypergraphs(min_k=2, max_k=4))
    def test_hypergraph(self, H):
        trusted = UniformHypergraph._from_canonical(H.n, H.k, H.edges)
        _same_object(trusted, UniformHypergraph(H.n, H.k, H.edges))
        assert (trusted.edge_set, trusted.support) == (H.edge_set, H.support)

    @given(H=hypergraphs(), data=st.data())
    def test_coloring(self, H, data):
        ell = data.draw(st.integers(1, 3))
        colors = {e: data.draw(st.integers(1, ell)) for e in H.edges}
        trusted = EdgeColoring._from_canonical(H, ell, dict(colors))
        _same_object(trusted, EdgeColoring(H, ell, colors))
        assert trusted.assignment == colors
