import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incdfs.sdfs
from incdfs.core import EdgeClass, classify_edge, is_valid_dfs_tree
from incdfs.generators import gen_gnm, gen_worstcase_fdfs, gen_worstcase_sdfs3
from incdfs.sdfs import SDFS, SDFSInt
from oracles import ReferenceSdfs, ReferenceSdfsInt, reference_static_dfs

PAIRS = [(SDFS, ReferenceSdfs), (SDFSInt, ReferenceSdfsInt)]


@pytest.mark.parametrize("algo_cls", [SDFS, SDFSInt])
@pytest.mark.parametrize("mode", ["undirected", "directed", "dag"])
def test_tree_valid_after_every_insertion(algo_cls, mode):
    seq = gen_gnm(25, 80, seed=3, mode=mode)
    algo = algo_cls(seq.n, directed=seq.directed)
    for u, v in seq.edges:
        algo.insert(u, v)
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok


@pytest.mark.parametrize("algo_cls, interrupt", [(SDFS, False), (SDFSInt, True)])
@pytest.mark.parametrize("mode", ["undirected", "directed"])
def test_every_rebuild_matches_reference(algo_cls, interrupt, mode):
    for seed in range(3):
        seq = gen_gnm(30, 150, seed=seed, mode=mode)
        algo = algo_cls(seq.n, directed=seq.directed)
        for u, v in seq.edges:
            before = algo.counters.edges_processed
            algo.insert(u, v)
            ref, charge = reference_static_dfs(algo.graph, interrupt=interrupt)
            t = algo.tree
            assert t.parent == ref.parent and t.children == ref.children
            assert t.depth == ref.depth and t.dfn == ref.dfn
            assert t.dfn_valid == ref.dfn_valid
            assert algo.counters.edges_processed - before == charge


def test_interrupt_builds_identical_tree():
    for seed in range(8):
        seq = gen_gnm(40, 200, seed=seed)
        a, b = SDFS(40), SDFSInt(40)
        for u, v in seq.edges:
            a.insert(u, v)
            b.insert(u, v)
            assert a.tree.parent == b.tree.parent
            assert a.tree.dfn == b.tree.dfn


def test_interrupt_never_costs_more():
    seq = gen_gnm(50, 400, seed=1)
    a, b = SDFS(50), SDFSInt(50)
    for u, v in seq.edges:
        a.insert(u, v)
        b.insert(u, v)
    assert b.counters.edges_processed <= a.counters.edges_processed
    # once the graph is connected the savings are real
    assert b.counters.edges_processed < a.counters.edges_processed


def test_sdfs_total_charge_closed_form():
    # i-th recompute scans all i real edges plus the n pseudo edges once
    n, m = 20, 60
    seq = gen_gnm(n, m, seed=5)
    algo = SDFS(n)
    for u, v in seq.edges:
        algo.insert(u, v)
    assert algo.counters.edges_processed == sum(i + n for i in range(1, m + 1))
    assert algo.counters.rebuilds == m
    assert algo.counters.insertions == m


def test_duplicates_and_self_loops_ignored():
    algo = SDFS(5)
    assert algo.insert(1, 2)
    assert not algo.insert(1, 2)
    assert not algo.insert(2, 1)  # same undirected pair
    assert not algo.insert(3, 3)
    assert algo.counters.insertions == 1
    assert algo.counters.rebuilds == 1


def test_batch_recomputes_once():
    seq = gen_gnm(30, 90, seed=2)
    algo = SDFS(30)
    algo.insert_batch(seq.edges[:45])
    algo.insert_batch(seq.edges[45:])
    assert algo.counters.rebuilds == 2
    assert algo.counters.insertions == 90
    assert is_valid_dfs_tree(algo.graph, algo.tree).ok


def test_batch_matches_final_tree_of_plain_replay():
    seq = gen_gnm(30, 90, seed=7)
    a, b = SDFS(30), SDFS(30)
    for u, v in seq.edges:
        a.insert(u, v)
    b.insert_batch(seq.edges)
    assert a.tree.parent == b.tree.parent


def _sdfs_state(algo):
    t, c = algo.tree, algo.counters
    return (t.parent, t.children, t.depth, t.dfn, t.dfn_valid,
            c.edges_processed, c.rebuilds, c.insertions, c.vertices_remarked)


def _sequence(kind, n, seed):
    if kind == "worstcase_fdfs":
        return gen_worstcase_fdfs(n, 800)
    if kind == "worstcase_sdfs3":
        return gen_worstcase_sdfs3(n, 500)
    full = n * (n - 1) // (2 if kind != "directed" else 1)
    return gen_gnm(n, full, seed=seed, mode=kind)


@pytest.mark.parametrize("algo_cls, ref_cls", PAIRS)
@pytest.mark.parametrize(
    "kind,n,seed",
    [(mode, n, seed) for mode in ("undirected", "directed", "dag")
     for n, seed in ((12, 0), (30, 1))]
    + [("worstcase_fdfs", 100, None), ("worstcase_sdfs3", 120, None)],
)
def test_matches_reference_after_every_insertion(algo_cls, ref_cls, kind, n, seed):
    # kept trees and closed-form charges against a full DFS per insertion
    seq = _sequence(kind, n, seed)
    algo = algo_cls(seq.n, directed=seq.directed)
    ref = ref_cls(seq.n, directed=seq.directed)
    for u, v in seq.edges:
        algo.insert(u, v)
        ref.insert(u, v)
        assert _sdfs_state(algo) == _sdfs_state(ref)


_EDGE_GROUPS = st.integers(2, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sampled_from(["undirected", "directed", "dag"]),
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=6),
            ),
            max_size=12,
        ),
    )
)


@settings(max_examples=200, deadline=None)
@given(_EDGE_GROUPS)
def test_matches_reference_with_batches_on_small_graphs(case):
    # each group goes in through insert_batch or one insert per edge; a dag
    # orients every edge from the smaller to the larger vertex
    n, mode, groups = case
    for algo_cls, ref_cls in PAIRS:
        algo = algo_cls(n, directed=mode != "undirected")
        ref = ref_cls(n, directed=mode != "undirected")
        for batch, edges in groups:
            if mode == "dag":
                edges = [(min(u, v), max(u, v)) for u, v in edges]
            if batch:
                assert algo.insert_batch(edges) == ref.insert_batch(edges)
                assert _sdfs_state(algo) == _sdfs_state(ref)
                continue
            for u, v in edges:
                assert algo.insert(u, v) == ref.insert(u, v)
                assert _sdfs_state(algo) == _sdfs_state(ref)


@pytest.mark.parametrize("algo_cls", [SDFS, SDFSInt])
@pytest.mark.parametrize("n,m,mode", [(600, 20000, "undirected"), (400, 10000, "directed")])
def test_reruns_static_dfs_only_for_cross_and_anti_cross_edges(monkeypatch, algo_cls, n, m, mode):
    # a dense graph's tail, one edge at a time: every other edge keeps the tree
    seq = gen_gnm(n, m, seed=1, mode=mode)
    algo = algo_cls(n, directed=seq.directed)
    algo.insert_batch(seq.edges[:-100])
    calls = []
    static_dfs = incdfs.sdfs.static_dfs

    def counted(*args, **kwargs):
        calls.append(args)
        return static_dfs(*args, **kwargs)

    monkeypatch.setattr(incdfs.sdfs, "static_dfs", counted)
    changing = 0
    for u, v in seq.edges[-100:]:
        kind = classify_edge(algo.tree, u, v, seq.directed)
        changing += kind in (EdgeClass.CROSS, EdgeClass.ANTI_CROSS)
        algo.insert(u, v)
    assert len(calls) == changing
    assert algo.counters.rebuilds == 101
