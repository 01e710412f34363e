import pytest

from incdfs.core import is_valid_dfs_tree
from incdfs.generators import gen_gnm
from incdfs.sdfs import SDFS, SDFSInt
from oracles import reference_static_dfs


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
