import copy
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incdfs.adfs import ADFS2
from incdfs.base import IncrementalDfs, star_tree
from incdfs.bench import compute_pc, make_algorithm
from incdfs.core import (
    ROOT,
    Counters,
    DfsTree,
    EdgeClass,
    Graph,
    GraphError,
    classify_edge,
    extend_stick,
    is_valid_dfs_tree,
    lca,
    path_below,
    restricted_dfs,
    static_dfs,
    stick_profile,
    violates,
)
from incdfs.generators import gen_gnm
from incdfs.streaming import StreamState
from oracles import (
    ancestor_set,
    brute_classify,
    brute_lca,
    postorder_ranks,
    random_graph,
    reference_compute_pc,
    reference_is_valid_dfs_tree,
    reference_order_times,
    reference_static_dfs,
    state_snapshot,
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
        # takebacks of the last edge leave the rest in insertion order
        g = Graph(5)
        for e in [(1, 2), (3, 2), (3, 4), (5, 4)]:
            g.add_edge(*e)
        g.remove_edge(4, 5)  # an undirected edge in either orientation
        g.remove_edge(3, 4)
        g.add_edge(2, 5)
        assert g.m == 3
        assert not g.has_edge(3, 4) and not g.has_edge(4, 5)
        assert g.real_edges() == [(1, 2), (3, 2), (2, 5)]
        assert g.out_adj[2] == [ROOT, 1, 3, 5] and g.out_adj[4] == [ROOT]

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("built", [False, True])
    def test_remove_edge_refuses_all_but_the_last(self, directed, built):
        g = Graph(4, directed=directed)
        with pytest.raises(GraphError, match="not the last edge added"):
            g.remove_edge(1, 2)  # nothing to take back
        for e in [(1, 2), (2, 3), (3, 4)]:
            g.add_edge(*e)
        if built:
            g.out_adj

        def state():
            eu, ev = g.edge_arrays()
            return (g.m, [g.has_edge(u, v) for u in range(5) for v in range(5)],
                    eu.tolist(), ev.tolist(), copy.deepcopy(g._out_adj))

        before = state()
        others = [(1, 2), (2, 3), (2, 1), (1, 4)] + ([(4, 3)] if directed else [])
        for u, v in others:
            with pytest.raises(GraphError, match="not the last edge added"):
                g.remove_edge(u, v)
            assert state() == before
        g.remove_edge(3, 4)
        assert g.m == 2 and not g.has_edge(3, 4)
        assert g.real_edges() == [(1, 2), (2, 3)]
        assert g.out_adj[4] == ([] if directed else [ROOT])
        assert g.out_adj[3] == ([] if directed else [ROOT, 2])

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
        assert type(g.out_adj[1][-1]) is int

    @pytest.mark.parametrize("n", [3.0, 2.5, "3", None])
    def test_non_integer_vertex_count_rejected(self, n):
        with pytest.raises(GraphError, match="non-integer vertex count"):
            Graph(n)

    @pytest.mark.parametrize("n", [0, -1])
    def test_vertex_count_below_one_rejected(self, n):
        with pytest.raises(GraphError, match="at least one real vertex"):
            Graph(n)

    def test_numpy_vertex_count_stored_as_python_int(self):
        assert type(Graph(np.int64(3)).n) is int

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_out_adj_first_read_late_matches_eager(self, directed, seed):
        # a graph whose adjacency is first read after random adds and
        # takebacks of the last edge has the lists of one read at
        # construction (kept current from then on) and of a plain model,
        # list for list, and both list their edges in insertion order.
        # Seeds 0-2 take an edge back before the first read
        rng = random.Random(seed)
        n = 10
        eager = Graph(n, directed=directed)
        eager.out_adj
        lazy = Graph(n, directed=directed)
        model = [list(range(1, n + 1))] + [[] if directed else [ROOT] for _ in range(n)]
        added = []
        first_remove = seed < 3
        read_at = rng.randrange(20, 120)
        for i in range(160):
            u, v = rng.randint(1, n), rng.randint(1, n)
            if added and (first_remove or rng.random() < 0.2):
                if first_remove:
                    assert lazy._out_adj is None
                    first_remove = False
                u, v = added.pop()
                eager.remove_edge(u, v)
                lazy.remove_edge(u, v)
                model[u].remove(v)
                if not directed:
                    model[v].remove(u)
            elif eager.add_new_edge(u, v) is not None:
                assert lazy.add_new_edge(u, v) == (u, v)
                added.append((u, v))
                model[u].append(v)
                if not directed:
                    model[v].append(u)
            if i == read_at:
                lazy.out_adj
        assert not first_remove
        assert lazy.m == eager.m == len(added) > 0
        assert lazy.real_edges() == eager.real_edges() == added
        assert lazy.out_adj == eager.out_adj == model


ALGO_MODES = [
    ("sdfs", "undirected"), ("sdfs-int", "undirected"), ("adfs1", "undirected"),
    ("adfs2", "undirected"), ("sdfs2", "undirected"), ("sdfs3", "undirected"),
    ("sdfs", "directed"), ("sdfs-int", "directed"), ("fdfs", "directed"),
    ("sdfs2", "directed"), ("sdfs3", "directed"),
    ("fdfs", "dag"), ("sdfs2", "dag"), ("sdfs3", "dag"),
]


def _tree_state(algo):
    c = algo.counters
    t = algo.tree
    return (t.parent, t.children, t.depth, c.edges_processed, c.rebuilds,
            c.insertions, c.vertices_remarked)


@pytest.mark.parametrize("name,mode", ALGO_MODES)
def test_numpy_endpoints_never_reach_the_tree(name, mode):
    # the maintainers see the graph's normalised endpoints, so a replay
    # with numpy ints stores only Python ints and matches the int replay
    seq = gen_gnm(30, 120, seed=1, mode=mode)
    ref = make_algorithm(name, 30, mode)
    algo = make_algorithm(name, 30, mode)
    for u, v in seq.edges:
        ref.insert(u, v)
        algo.insert(np.int64(u), np.int64(v))
    t = algo.tree
    assert all(type(p) is int for p in t.parent)
    assert all(type(c) is int for kids in t.children for c in kids)
    assert _tree_state(algo) == _tree_state(ref)
    if algo.supports_batch:
        batched = make_algorithm(name, 30, mode)
        for i in range(0, len(seq.edges), 10):
            batched.insert_batch([(np.int64(u), np.int64(v)) for u, v in seq.edges[i:i + 10]])
        t = batched.tree
        assert all(type(p) is int for p in t.parent)
        assert all(type(c) is int for kids in t.children for c in kids)
        assert batched.graph.real_edges() == ref.graph.real_edges()


@pytest.mark.parametrize("name,mode", ALGO_MODES)
def test_float_endpoints_rejected_before_duplicate_check(name, mode):
    # the self-loop and duplicate checks see normalised endpoints, so a
    # float endpoint raises even when its integer value is a known edge; a
    # batch that ends in one takes back the edges it had added
    algo = make_algorithm(name, 5, mode)
    algo.insert(1, 2)
    before = (_tree_state(algo), algo.graph.real_edges())
    snapshot = state_snapshot(algo)
    for u, v in ((1.0, 2), (2.0, 2.0), (1, 2.5)):
        with pytest.raises(GraphError):
            algo.insert(u, v)
        if algo.supports_batch:
            with pytest.raises(GraphError):
                algo.insert_batch([(u, v)])
            with pytest.raises(GraphError):
                algo.insert_batch([(1, 3), (3, 4), (1, 2), (2, 4), (u, v)])
    assert (_tree_state(algo), algo.graph.real_edges()) == before
    assert state_snapshot(algo) == snapshot
    assert not algo.insert(1, 2)
    assert not algo.insert(3, 3)


@pytest.mark.parametrize("name,mode", ALGO_MODES)
def test_out_of_range_self_loop_rejected(name, mode):
    # the range check covers self loops and other edges alike, on both
    # insert paths: an edge at the pseudo root is no real edge, and an id
    # past n raises before the graph grows; a batch that ends in one takes
    # back the edges it had added, whether or not the adjacency lists were
    # built
    algo = make_algorithm(name, 5, mode)
    algo.insert(1, 2)
    before = (_tree_state(algo), algo.graph.real_edges())
    for u, v in ((0, 0), (6, 6), (7, 7), (-1, -1),
                 (0, 2), (2, 0), (1, 6), (6, 1), (-1, 2)):
        with pytest.raises(GraphError):
            algo.insert(u, v)
        if algo.supports_batch:
            with pytest.raises(GraphError):
                algo.insert_batch([(u, v)])
            with pytest.raises(GraphError):
                algo.insert_batch([(1, 4), (4, 5), (3, 5), (u, v)])
    assert (_tree_state(algo), algo.graph.real_edges()) == before
    twin = make_algorithm(name, 5, mode)
    twin.insert(1, 2)
    assert state_snapshot(algo) == state_snapshot(twin)
    assert not algo.insert(5, 5)


@pytest.mark.parametrize("name,mode", ALGO_MODES)
def test_vertex_count_normalised_before_any_list_is_built(name, mode):
    # a float n raises GraphError from the graph, not TypeError from a list
    # multiplication; a numpy n reaches neither the tree nor the counters
    for n in (4.0, 3.5):
        with pytest.raises(GraphError, match="non-integer vertex count"):
            make_algorithm(name, n, mode)
    ref = make_algorithm(name, 5, mode)
    algo = make_algorithm(name, np.int64(5), mode)
    for u, v in gen_gnm(5, 6, seed=1, mode=mode).edges:
        ref.insert(u, v)
        algo.insert(u, v)
    c = algo.counters
    assert type(algo.n) is int and type(algo.tree.n) is int
    assert all(type(x) is int for x in (c.edges_processed, c.rebuilds, c.insertions))
    assert _tree_state(algo) == _tree_state(ref)


@pytest.mark.parametrize("directed", [False, True])
def test_stream_vertex_count_normalised(directed):
    for n in (2.0, 2.5):
        with pytest.raises(GraphError, match="non-integer vertex count"):
            StreamState(n, directed=directed)
    st = StreamState(np.int64(3), directed=directed)
    assert type(st.n) is int and len(st.highest_back) == 4
    assert st.stream_edge(1, 2)


@pytest.mark.parametrize("directed", [False, True])
def test_stream_float_endpoints_rejected(directed):
    st = StreamState(5, directed=directed)
    st.stream_edge(1, 2)
    for u, v in ((1.0, 2), (2.0, 2.0)):
        with pytest.raises(GraphError):
            st.stream_edge(u, v)
    assert (st.streamed, st.duplicates, st.core.graph.m) == (1, 0, 1)
    assert not st.stream_edge(np.int64(1), np.int64(2))
    assert st.duplicates == 1


def naive_restricted_dfs(adj, root, fresh, parent, depth, children):
    """Recursive restricted DFS: the reference for core.restricted_dfs."""
    post = []

    def visit(u):
        for w in adj[u]:
            if fresh[w]:
                fresh[w] = False
                parent[w] = u
                depth[w] = depth[u] + 1
                children[u].append(w)
                visit(w)
        post.append(u)

    fresh[root] = False
    visit(root)
    return post


@given(st.integers(0, 10_000), st.integers(1, 30), st.booleans())
@settings(max_examples=300, deadline=None)
def test_restricted_dfs_matches_recursive(seed, n, symmetric):
    rng = random.Random(seed)
    adj = [[] for _ in range(n)]
    for _ in range(rng.randrange(0, 3 * n + 1)):
        u, v = rng.randrange(n), rng.randrange(n)
        adj[u].append(v)
        if symmetric:
            adj[v].append(u)
    fresh = [rng.random() < 0.7 for _ in range(n)]
    root = rng.randrange(n)
    depth = [rng.randrange(5) for _ in range(n)]
    runs = []
    for dfs in (restricted_dfs, naive_restricted_dfs):
        state = (list(fresh), [-1] * n, list(depth), [[] for _ in range(n)])
        runs.append((dfs(adj, root, *state), state))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("n", range(1, 7))
def test_initial_star_tree_is_static_dfs_of_empty_graph(n, directed):
    algo = IncrementalDfs(n, directed=directed)
    t, ref = algo.tree, static_dfs(Graph(n, directed=directed))
    assert (t.parent, t.children, t.depth, t.dfn, t.dfn_valid) == (
        ref.parent, ref.children, ref.depth, ref.dfn, ref.dfn_valid)
    assert algo.graph._out_adj is None


@pytest.mark.parametrize("name,mode", [
    ("adfs1", "undirected"), ("adfs2", "undirected"),
    ("sdfs2", "undirected"), ("sdfs2", "directed"),
])
def test_non_scanning_maintainers_never_build_adjacency(name, mode):
    # adfs1, adfs2 and sdfs2 repair from the tree and their stored edges,
    # so neither a replay nor a validity checkpoint builds out_adj
    seq = gen_gnm(80, 1200, seed=2, mode=mode)
    algo = make_algorithm(name, seq.n, mode)
    for u, v in seq.edges:
        algo.insert(u, v)
    assert algo.counters.rebuilds > 10
    assert is_valid_dfs_tree(algo.graph, algo.tree).ok
    stick_profile(algo.tree)
    if not algo.directed:
        compute_pc(algo.graph, algo.tree)
    if algo.supports_batch:
        batched = make_algorithm(name, seq.n, mode)
        batched.insert_batch(seq.edges)
        assert batched.graph._out_adj is None
    assert algo.graph._out_adj is None


@pytest.mark.parametrize("directed", [False, True])
def test_stream_cores_never_build_adjacency(directed):
    seq = gen_gnm(80, 1200, seed=2, mode="directed" if directed else "undirected")
    st = StreamState(seq.n, directed=directed)
    st.stream_sequence(seq.edges)
    if directed:
        st.scc_query()
    assert st.core.counters.rebuilds > 10
    assert st.core.graph._out_adj is None


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
        # the closed-form charge must also hold after Graph.remove_edge,
        # which takes edges back from the end (and pops the built lists)
        g.out_adj
        for u, v in g.real_edges()[::-1][: round(removed * g.m)]:
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

    def test_stale_directed_dfn_rejected_not_recomputed(self):
        # classify_edge reads the tree and never renumbers it
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        t.dfn[1], t.dfn[2] = t.dfn[2], t.dfn[1]
        t.dfn_valid = False
        before = list(t.dfn)
        with pytest.raises(GraphError):
            classify_edge(t, 1, 2, directed=True)
        assert t.dfn == before and not t.dfn_valid
        assert classify_edge(t, 1, 2, directed=False) == EdgeClass.CROSS

    def test_identical_endpoints_rejected(self):
        t = tree_from_parents(2, {1: ROOT, 2: ROOT})
        with pytest.raises(GraphError):
            classify_edge(t, 1, 1, directed=False)

    @pytest.mark.parametrize("u,v", [(-1, 2), (2, -1), (0, 2), (1, 9), (6, 1)])
    def test_out_of_range_ids_rejected(self, u, v):
        # -1 would index vertex 5 and 9 would raise IndexError: any id
        # outside 1..n raises GraphError before the tree is read
        t = tree_from_parents(5, {1: ROOT, 2: 1, 3: 1, 4: ROOT, 5: 4})
        for directed in (False, True):
            with pytest.raises(GraphError, match="out of range"):
                classify_edge(t, u, v, directed)

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

    @staticmethod
    def _raw_tree(parent, depth, children, dfn=None):
        t = DfsTree(len(parent) - 1)
        t.parent, t.depth, t.children = parent, depth, children
        if dfn is not None:
            t.dfn, t.dfn_valid = dfn, True
        return t

    @pytest.mark.parametrize("directed", [False, True])
    def test_duplicate_child_hiding_a_vertex_rejected(self, directed):
        # the duplicate 1 is entered twice and the last vertex never, yet
        # the subtrees have equal sizes, so the root's exit time is the one
        # a whole tree gives
        if directed:
            g = Graph(4, directed=True)
            g.add_edge(2, 3)
            t = self._raw_tree([-1, 0, 0, 2, 0], [0, 1, 1, 2, 1],
                               [[1, 1, 2], [], [3], [], []])
        else:
            g = Graph(2)
            t = self._raw_tree([-1, 0, 0], [0, 1, 1], [[1, 1], [], []])
        rep = is_valid_dfs_tree(g, t)
        assert not rep.ok and rep.reason == f"vertex {g.n} not reached from the root"

    def test_doubled_chain_is_rejected_in_linear_time(self):
        # chain 1..k whose every vertex lists its child twice, with the
        # k - 1 vertices after it hanging off the root unlisted: the entry
        # count matches, and re-walking a subtree per entry would take
        # 2^(k-1) steps
        k = 31
        n = 2 * k - 1
        g = Graph(n)
        for v in range(1, k):
            g.add_edge(v, v + 1)
        t = self._raw_tree(
            [-1, *range(k), *[0] * (k - 1)],
            [0, *range(1, k + 1), *[1] * (k - 1)],
            [[1], *[[v, v] for v in range(2, k + 1)], *[[] for _ in range(k)]])
        start = time.perf_counter()
        rep = is_valid_dfs_tree(g, t)
        assert time.perf_counter() - start < 0.5
        assert not rep.ok and rep.reason == f"vertex {k + 1} not reached from the root"

    # one hand-built bad tree per structural rejection; the graph holds the
    # edges 1-2 and 2-3, and the good tree is the chain 1-2-3
    @pytest.mark.parametrize("parent,depth,children,dfn,reason", [
        pytest.param([5, 0, 1, 2], [0, 1, 2, 3], [[1], [2], [3], []], None,
                     "bad root", id="bad-root"),
        pytest.param([-1, 0, -1, 2], [0, 1, 2, 3], [[1], [], [3], []], None,
                     "vertex 2 detached", id="detached"),
        pytest.param([-1, 0, 1, 2], [0, 1, 2, 2], [[1], [2], [3], []], None,
                     "depth broken at 3", id="depth-broken"),
        pytest.param([-1, 0, 1, 1], [0, 1, 2, 2], [[1], [2, 3], [], []], None,
                     "tree edge (1,3) not in graph", id="tree-edge-not-in-graph"),
        pytest.param([-1, 0, 1, 2], [0, 1, 2, 3], [[1], [2], [], []], None,
                     "children/parent mismatch", id="children-parent-mismatch"),
        pytest.param([-1, 0, 1, 2], [0, 1, 2, 3], [[1], [2, 3], [], []], None,
                     "children list broken at 1", id="children-list-broken"),
        pytest.param([-1, 0, 1, 2], [0, 1, 2, 3], [[1], [2, 2], [], []], None,
                     "vertex 3 not reached from the root", id="not-reached"),
        pytest.param([-1, 0, 1, 2], [0, 1, 2, 3], [[1], [2], [3], []], [4, 3, 1, 2],
                     "dfn not post-order at 2", id="dfn-not-post-order"),
    ])
    def test_structural_rejection(self, parent, depth, children, dfn, reason):
        g = chain_graph(3)
        good = self._raw_tree([-1, 0, 1, 2], [0, 1, 2, 3], [[1], [2], [3], []],
                              [4, 3, 2, 1])
        assert is_valid_dfs_tree(g, good).ok
        rep = is_valid_dfs_tree(g, self._raw_tree(parent, depth, children, dfn))
        assert not rep.ok and rep.reason == reason

    # ids outside 0..n are rejected before any lookup: a lookup would
    # raise IndexError above n, and a negative id would alias a vertex
    @pytest.mark.parametrize("parent,depth,children,reason", [
        pytest.param([-1, 0, 1, 7], [0, 1, 2, 3], [[1], [2], [3], []],
                     "vertex 3 detached", id="parent-above-n"),
        pytest.param([-1, 0, 1, 0], [0, 1, 2, 1], [[1, -1], [2], [], []],
                     "children list broken at 0", id="negative-child"),
        pytest.param([-1, 0, 1, 2], [0, 1, 2, 3], [[1], [2], [4], []],
                     "children list broken at 2", id="child-above-n"),
    ])
    def test_out_of_range_ids_rejected(self, parent, depth, children, reason):
        rep = is_valid_dfs_tree(chain_graph(3), self._raw_tree(parent, depth, children))
        assert not rep.ok and rep.reason == reason

    @pytest.mark.parametrize("mode", ["undirected", "directed"])
    def test_valid_tree_takes_the_vectorised_path(self, monkeypatch, mode):
        algo = make_algorithm("sdfs", 200, mode)
        algo.insert_batch(gen_gnm(200, 3000, seed=1, mode=mode).edges)
        calls = []

        def counted(original):
            def wrapper(*args):
                calls.append(original.__name__)
                return original(*args)
            return wrapper

        monkeypatch.setattr(Graph, "has_edge", counted(Graph.has_edge))
        monkeypatch.setattr(DfsTree, "order_times", counted(DfsTree.order_times))
        monkeypatch.setattr(DfsTree, "preorder", counted(DfsTree.preorder))
        for _ in range(2):
            calls.clear()
            assert is_valid_dfs_tree(algo.graph, algo.tree).ok
            assert calls == ["preorder"]


# maintainer and graph mode pairs that make_algorithm accepts
_MAINTAINER_MODES = [
    (name, mode)
    for name in ("sdfs", "sdfs-int", "sdfs2", "sdfs3")
    for mode in ("undirected", "directed", "dag")
] + [("fdfs", "directed"), ("fdfs", "dag"), ("adfs1", "undirected"),
     ("adfs2", "undirected")]
_CORRUPTIONS = ("none", "parent", "depth", "child", "child-order", "dfn",
                "graph-edge", "move-subtree")


def _corrupt(graph, tree, kind, rng):
    """Apply one corruption of the given kind, to the tree in place.
    Returns the graph to check, a new one without one edge for graph-edge,
    and the reason the oracle must give when the corruption writes an id
    outside the tree (the reference oracle crashes or aliases there), else
    None."""
    n = tree.n
    parent, children = tree.parent, tree.children
    if kind == "parent":
        v, p = rng.randint(0, n), rng.randint(-3, n + 3)
        parent[v] = p
        if v and p > n:
            return graph, f"vertex {v} detached"
    elif kind == "depth":
        tree.depth[rng.randint(0, n)] = rng.randint(-2, n + 2)
    elif kind == "child":
        v = rng.choice([v for v in range(n + 1) if children[v]])
        kids, c = children[v], rng.randint(-3, n + 3)
        op = rng.randrange(3)
        if op == 0:
            del kids[rng.randrange(len(kids))]
        elif op == 1:  # the count is off, which is reported before any lookup
            kids.insert(rng.randint(0, len(kids)), c)
        else:
            kids[rng.randrange(len(kids))] = c
            if not 0 <= c <= n:
                return graph, f"children list broken at {v}"
    elif kind == "child-order":
        rng.shuffle(children[rng.randint(0, n)])
    elif kind == "dfn":
        if not tree.dfn_valid:
            tree.recompute_dfn()
        tree.dfn[rng.randint(0, n)] = rng.randint(0, n + 2)
    elif kind == "graph-edge":
        if graph.m:
            # any edge, not just the last: build the graph anew without it
            edges = graph.real_edges()
            dropped = rng.choice(edges)
            graph = Graph(n, directed=graph.directed)
            for e in edges:
                if e != dropped:
                    graph.add_edge(*e)
    elif kind == "move-subtree":
        # re-hang v under a vertex outside its subtree, keeping parent,
        # children and depth consistent
        v = rng.randint(1, n)
        inside, stack = set(), [v]
        while stack:
            x = stack.pop()
            inside.add(x)
            stack.extend(children[x])
        p = rng.choice([x for x in range(n + 1) if x not in inside])
        children[parent[v]].remove(v)
        children[p].insert(rng.randint(0, len(children[p])), v)
        parent[v] = p
        tree.refresh_depths(v)
        if p != ROOT and rng.random() < 0.5:
            graph.add_new_edge(p, v)
        if tree.dfn_valid and rng.random() < 0.5:
            tree.recompute_dfn()
    return graph, None


class TestOracleDifferential:
    """The vectorised oracle against the reference one it replaced, on
    small maintained trees with one random corruption each."""

    @given(st.sampled_from(_MAINTAINER_MODES), st.integers(1, 12),
           st.floats(0.0, 1.0), st.integers(0, 2**16),
           st.sampled_from(_CORRUPTIONS), st.integers(0, 2**32))
    @settings(max_examples=600, deadline=None)
    def test_same_report_as_reference(self, maintainer, n, density, seed, kind, salt):
        name, mode = maintainer
        pairs = n * (n - 1) if mode == "directed" else n * (n - 1) // 2
        algo = make_algorithm(name, n, mode)
        for u, v in gen_gnm(n, int(density * pairs), seed=seed, mode=mode).edges:
            algo.insert(u, v)
        tree = algo.tree
        graph, out_of_range = _corrupt(algo.graph, tree, kind, random.Random(salt))
        rep = is_valid_dfs_tree(graph, tree)
        if out_of_range is not None:
            assert not rep.ok and rep.reason == out_of_range
            return
        assert rep == reference_is_valid_dfs_tree(graph, tree)
        if kind == "none":
            assert rep.ok
        if rep.ok and not graph.directed and graph.m < pairs:
            assert compute_pc(graph, tree) == reference_compute_pc(graph, tree)


class TestIntervals:
    """DfsTree.intervals on its own, and order_times, its closed form,
    against the Euler walk it replaced."""

    @pytest.mark.parametrize("name,mode", _MAINTAINER_MODES)
    def test_order_times_matches_reference_walk(self, name, mode):
        n = 24
        pairs = n * (n - 1) if mode == "directed" else n * (n - 1) // 2
        algo = make_algorithm(name, n, mode)
        stale = 0
        for u, v in gen_gnm(n, pairs // 2, seed=3, mode=mode).edges:
            algo.insert(u, v)
            pre, post = algo.tree.order_times()
            ref_pre, ref_post = reference_order_times(algo.tree)
            assert pre.tolist() == ref_pre.tolist() and post.tolist() == ref_post.tolist()
            stale += not algo.tree.dfn_valid
        # the undirected re-hangs and rebuilds leave dfn stale, which the
        # closed form never reads
        if mode == "undirected" and name not in ("sdfs", "sdfs-int"):
            assert stale

    @pytest.mark.parametrize("name,mode", _MAINTAINER_MODES)
    def test_overlap_is_ancestry(self, name, mode):
        n = 20
        pairs = n * (n - 1) if mode == "directed" else n * (n - 1) // 2
        algo = make_algorithm(name, n, mode)
        for i, (u, v) in enumerate(gen_gnm(n, pairs // 3, seed=5, mode=mode).edges):
            algo.insert(u, v)
            if i % 8:
                continue
            tree = algo.tree
            rank, start, end = tree.intervals()
            post = postorder_ranks(tree)
            assert (rank + 1).tolist() == [post[x] for x in range(n + 1)]
            assert (start[ROOT], end[ROOT]) == (0, n)
            anc = [ancestor_set(tree, x) for x in range(n + 1)]
            for a in range(n + 1):
                for b in range(n + 1):
                    overlap = start[a] <= end[b] and start[b] <= end[a]
                    assert overlap == (a in anc[b] or b in anc[a]), (a, b)


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


def _violation_mismatches(test, directed):
    """The (seed, u, v) for which test(tree, u, v, directed) disagrees with
    brute_classify on static_dfs trees of random graphs: an edge violates
    the tree iff it is CROSS (undirected) or ANTI_CROSS (directed)."""
    bad = EdgeClass.ANTI_CROSS if directed else EdgeClass.CROSS
    n = 24
    mismatches = []
    for seed in range(8):
        m = (10, 30, 80, 200)[seed % 4]
        t = static_dfs(random_graph(n, m, seed, directed=directed))
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                if u != v and test(t, u, v, directed) != (
                    brute_classify(t, u, v, directed) is bad
                ):
                    mismatches.append((seed, u, v))
    return mismatches


class TestViolates:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_brute_classify(self, directed):
        assert _violation_mismatches(violates, directed) == []

    def test_catches_a_one_sided_undirected_test(self):
        # a mutant that misses v being an ancestor of u
        def mutant(tree, u, v, directed):
            return lca(tree, u, v) != u

        assert _violation_mismatches(mutant, directed=False)


class TestPathBelow:
    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_the_parent_chain(self, directed):
        for seed in range(6):
            t = static_dfs(random_graph(30, (20, 60, 300)[seed % 3], seed, directed))
            for v in range(1, 31):
                chain = [v]  # v, its parent, ..., ROOT
                while chain[-1] != ROOT:
                    chain.append(t.parent[chain[-1]])
                for i, w in enumerate(chain[1:], start=1):
                    assert path_below(t, v, w) == chain[:i]


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


class TestExtendStick:
    def test_resumes_at_a_bristle_root_with_one_child(self):
        # 1 was the bristle root of 1 -> {2, 3}; a repair left it one child
        t = tree_from_parents(4, {1: ROOT, 2: 1, 3: 2, 4: 3})
        stick = []
        assert extend_stick(t.children, stick, 1) == 4
        assert stick == [1, 2, 3]

    def test_root_with_one_child_never_joins(self):
        t = tree_from_parents(3, {1: ROOT, 2: 1, 3: 1})
        stick = []
        assert extend_stick(t.children, stick, ROOT) == 1
        assert stick == []

    @pytest.mark.parametrize("parents,cur", [
        ({1: ROOT, 2: 1, 3: 2}, 3),  # a leaf
        ({1: ROOT, 2: 1, 3: 2, 4: 2}, 2),  # two children
        ({1: ROOT, 2: 1, 3: 1, 4: 1}, 1),  # three children
        ({1: ROOT, 2: ROOT}, ROOT),
    ])
    def test_branching_or_leaf_bristle_root_kept(self, parents, cur):
        t = tree_from_parents(len(parents), parents)
        stick = [7]
        assert extend_stick(t.children, stick, cur) == cur
        assert stick == [7]

    @pytest.mark.parametrize("n,root", [(1, 1), (3, ROOT)])
    def test_star_tree(self, n, root):
        stick = []
        assert extend_stick(star_tree(n).children, stick, ROOT) == root
        assert stick == []


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

    @pytest.mark.parametrize("name", ["adfs1", "adfs2", "sdfs2", "sdfs3"])
    def test_recompute_dfn_on_stale_tree(self, name):
        # undirected maintainers leave dfn stale; recompute_dfn renumbers
        # the final tree in place, as the recursive post-order does
        seq = gen_gnm(150, 1500, seed=4)
        algo = make_algorithm(name, seq.n, "undirected")
        for u, v in seq.edges:
            algo.insert(u, v)
        tree = algo.tree
        dfn = tree.dfn
        ranks = postorder_ranks(tree)
        expected = [ranks[v] for v in range(seq.n + 1)]
        assert not tree.dfn_valid
        assert dfn != expected
        tree.recompute_dfn()
        assert tree.dfn is dfn
        assert tree.dfn_valid
        assert dfn == expected


class TestCounters:
    def test_monotone_and_bounded_below(self):
        c = Counters()
        g = random_graph(20, 50, 0)
        before = c.edges_processed
        static_dfs(g, counters=c)
        assert c.edges_processed >= before
