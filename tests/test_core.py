import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incdfs.adfs import ADFS2
from incdfs.core import (
    ROOT,
    Counters,
    EdgeClass,
    Graph,
    GraphError,
    classify_edge,
    is_valid_dfs_tree,
    lca,
    static_dfs,
    stick_profile,
)
from oracles import (
    brute_classify,
    brute_lca,
    postorder_ranks,
    random_graph,
    reference_static_dfs,
    tree_from_parents,
)


def chain_graph(n, directed=False):
    g = Graph(n, directed=directed)
    for v in range(1, n):
        g.add_edge(v, v + 1)
    return g


class TestGraph:
    def test_pseudo_edges_present(self):
        g = Graph(3)
        assert g.out_adj[ROOT] == [1, 2, 3]
        for v in (1, 2, 3):
            assert ROOT in g.out_adj[v]
        assert g.m == 0

    def test_no_self_loops_or_duplicates(self):
        g = Graph(4)
        g.add_edge(1, 2)
        with pytest.raises(GraphError):
            g.add_edge(2, 2)
        with pytest.raises(GraphError):
            g.add_edge(2, 1)  # same undirected pair
        g2 = Graph(4, directed=True)
        g2.add_edge(1, 2)
        g2.add_edge(2, 1)  # distinct ordered pairs
        with pytest.raises(GraphError):
            g2.add_edge(1, 2)

    def test_undirected_symmetry(self):
        g = Graph(5)
        g.add_edge(2, 4)
        assert 4 in g.out_adj[2] and 2 in g.out_adj[4]
        assert g.m == 1

    def test_remove_edge_keeps_arrays_consistent(self):
        g = Graph(5)
        for e in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            g.add_edge(*e)
        g.remove_edge(2, 3)
        assert g.m == 3
        assert not g.has_edge(2, 3)
        assert sorted(map(tuple, map(sorted, g.real_edges()))) == [
            (1, 2),
            (3, 4),
            (4, 5),
        ]

    def test_non_integer_endpoint_changes_nothing(self):
        algo = ADFS2(5)
        with pytest.raises(GraphError):
            algo.insert(1.0, 2)
        g = algo.graph
        assert not g.has_edge(1, 2)
        assert g.m == 0 and g.real_edges() == []
        assert g.out_adj[1] == [ROOT] and g.out_adj[2] == [ROOT]
        assert algo.insert(1, 2)
        assert g.out_adj[1] == [ROOT, 2] and g.m == 1

    def test_numpy_endpoints_stored_as_python_ints(self):
        g = Graph(4, directed=True)
        g.add_edge(np.int64(1), np.int32(3))
        assert g.has_edge(1, 3)
        assert type(g.out_adj[1][-1]) is int and type(g.in_adj[3][-1]) is int


class TestStaticDfs:
    def test_chain_is_unique_spanning_structure(self):
        g = chain_graph(3)
        t = static_dfs(g)
        assert t.parent[1] == ROOT and t.parent[2] == 1 and t.parent[3] == 2
        assert t.depth[:4] == [0, 1, 2, 3]

    def test_star_postorder(self):
        g = Graph(3)
        t = static_dfs(g)
        assert t.children[ROOT] == [1, 2, 3]
        assert [t.dfn[v] for v in (1, 2, 3, ROOT)] == [1, 2, 3, 4]

    def test_triangle_hand_trace(self):
        # adjacency in ascending order: dfs enters 1, exhausts the component
        g = Graph(3)
        g.add_edge(1, 2)
        g.add_edge(1, 3)
        g.add_edge(2, 3)
        t = static_dfs(g)
        assert t.parent[1] == ROOT and t.parent[2] == 1 and t.parent[3] == 2

    def test_unknown_start_rejected(self):
        with pytest.raises(GraphError):
            static_dfs(Graph(3), start=9)

    def test_restriction_requires_start_inside(self):
        with pytest.raises(GraphError):
            static_dfs(Graph(3), start=1, restrict_to={2, 3})

    def test_interrupt_same_tree_as_full(self):
        for seed in range(10):
            g = random_graph(30, 140, seed)
            a = static_dfs(g)
            b = static_dfs(g, interrupt=True)
            assert a.parent == b.parent
            assert a.children == b.children
            assert a.dfn == b.dfn

    def test_interrupt_never_scans_more(self):
        for seed in range(10):
            g = random_graph(40, 300, seed, directed=seed % 2 == 0)
            ca, cb = Counters(), Counters()
            static_dfs(g, counters=ca)
            static_dfs(g, counters=cb, interrupt=True)
            assert cb.edges_processed <= ca.edges_processed

    def test_full_scan_charge_is_edges_plus_pseudo(self):
        # undirected: each edge charged once, including the n pseudo edges
        for seed in range(5):
            g = random_graph(25, 90, seed)
            c = Counters()
            static_dfs(g, counters=c)
            assert c.edges_processed == g.m + g.n
        for seed in range(5):
            g = random_graph(25, 200, seed, directed=True)
            c = Counters()
            static_dfs(g, counters=c)
            assert c.edges_processed == g.m + g.n

    @given(
        st.integers(1, 40),
        st.floats(0.0, 1.0),
        st.floats(0.0, 0.5),
        st.booleans(),
        st.booleans(),
        st.integers(0, 10_000),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, n, density, removed, directed, interrupt, seed):
        pairs = n * (n - 1) // (1 if directed else 2)
        g = random_graph(n, round(density * pairs), seed, directed=directed)
        # the closed-form charge must also hold after Graph.remove_edge
        rng = random.Random(seed)
        for u, v in rng.sample(g.real_edges(), round(removed * g.m)):
            g.remove_edge(u, v)
        ref, charge = reference_static_dfs(g, interrupt=interrupt)
        c = Counters()
        t = static_dfs(g, counters=c, interrupt=interrupt)
        assert t.parent == ref.parent
        assert t.children == ref.children
        assert t.depth == ref.depth
        assert t.dfn == ref.dfn
        assert t.dfn_valid == ref.dfn_valid
        assert c.edges_processed == charge


class TestClassifyEdge:
    def test_chain_back_edge(self):
        g = chain_graph(3)
        t = static_dfs(g)
        assert classify_edge(t, 3, 1, directed=False) == EdgeClass.BACK

    def test_sibling_cross(self):
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        assert classify_edge(t, 1, 2, directed=False) == EdgeClass.CROSS

    def test_postorder_orientation(self):
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        assert t.dfn[1] == 1 and t.dfn[2] == 2
        assert classify_edge(t, 1, 2, directed=True) == EdgeClass.ANTI_CROSS
        assert classify_edge(t, 2, 1, directed=True) == EdgeClass.CROSS

    def test_identical_endpoints_rejected(self):
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        with pytest.raises(GraphError):
            classify_edge(t, 1, 1, directed=False)

    @pytest.mark.parametrize("directed", [False, True])
    def test_agrees_with_bruteforce_on_random_graphs(self, directed):
        for seed in range(12):
            n = 5 + seed * 4
            g = random_graph(n, min(3 * n, n * (n - 1) // 2), seed, directed=directed)
            t = static_dfs(g)
            eu, ev = g.edge_arrays()
            for u, v in zip(eu.tolist(), ev.tolist()):
                assert classify_edge(t, u, v, directed) == brute_classify(
                    t, u, v, directed
                )
            # also classify a batch of non-edges
            rng = random.Random(seed)
            for _ in range(60):
                u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
                if u != v:
                    assert classify_edge(t, u, v, directed) == brute_classify(
                        t, u, v, directed
                    )


class TestIsValidDfsTree:
    def test_chain_tree_ok(self):
        g = chain_graph(4)
        assert is_valid_dfs_tree(g, static_dfs(g)).ok

    def test_cross_edge_detected(self):
        g = Graph(2)
        g.add_edge(1, 2)
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        rep = is_valid_dfs_tree(g, t)
        assert not rep.ok and rep.violation == (1, 2)

    def test_mismatch_rejected(self):
        g = Graph(3)
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        with pytest.raises(GraphError):
            is_valid_dfs_tree(g, t)

    @pytest.mark.parametrize("directed", [False, True])
    def test_static_dfs_always_valid(self, directed):
        # property test: 500 random instances at n=50
        for seed in range(500):
            m = (seed * 13) % (50 * 49 // 2)
            g = random_graph(50, m, seed, directed=directed)
            assert is_valid_dfs_tree(g, static_dfs(g)).ok

    def test_directed_anticross_detected(self):
        g = Graph(2, directed=True)
        g.add_edge(1, 2)
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        rep = is_valid_dfs_tree(g, t)
        assert not rep.ok
        g2 = Graph(2, directed=True)
        g2.add_edge(2, 1)  # cross, right-to-left: fine
        assert is_valid_dfs_tree(g2, t).ok


class TestLca:
    def test_ancestor_case(self):
        g = chain_graph(3)
        t = static_dfs(g)
        assert lca(t, 2, 3) == 2

    def test_two_leaves(self):
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        assert lca(t, 1, 2) == ROOT

    def test_balanced_binary(self):
        parents = {1: ROOT, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
        t = tree_from_parents(7, parents)
        assert lca(t, 4, 5) == 2
        assert lca(t, 4, 4) == 4

    def test_matches_bruteforce(self):
        for seed in range(20):
            g = random_graph(40, 120, seed)
            t = static_dfs(g)
            rng = random.Random(seed)
            for _ in range(50):
                u, v = rng.randrange(1, 41), rng.randrange(1, 41)
                assert lca(t, u, v) == brute_lca(t, u, v)


class TestStickProfile:
    def test_branching_root(self):
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        assert stick_profile(t).l_s == 0

    def test_chain_with_leaf_end(self):
        t = tree_from_parents(4, {1: ROOT, 2: 1, 3: 2, 4: 3})
        p = stick_profile(t)
        assert p.l_s == 3 and p.bristle == 1 and p.bristle_root == 4

    def test_inner_branch(self):
        t = tree_from_parents(4, {1: ROOT, 2: 1, 3: 2, 4: 2})
        p = stick_profile(t)
        assert p.l_s == 1 and p.bristle == 3 and p.bristle_root == 2

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 60)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), seed)
        p = stick_profile(static_dfs(g))
        assert p.l_s + p.bristle == n
        assert 0 <= p.l_s < n


class TestDfnInvariants:
    def test_dfn_is_postorder_permutation(self):
        for seed in range(30):
            n = 5 + seed
            g = random_graph(n, 2 * n, seed, directed=seed % 2 == 0)
            t = static_dfs(g)
            ranks = postorder_ranks(t)
            assert sorted(t.dfn) == list(range(0, n + 2))[1:] or sorted(
                t.dfn[v] for v in range(n + 1)
            ) == list(range(1, n + 2))
            for v in range(n + 1):
                assert t.dfn[v] == ranks[v]

    def test_descendants_have_smaller_dfn(self):
        g = random_graph(30, 100, 3)
        t = static_dfs(g)
        for v in range(1, 31):
            assert t.dfn[t.parent[v]] > t.dfn[v]


class TestCounters:
    def test_monotone_and_bounded_below(self):
        c = Counters()
        g = random_graph(20, 50, 0)
        before = c.edges_processed
        static_dfs(g, counters=c)
        assert c.edges_processed >= before
