import pytest

from incdfs.adfs import ADFS1, ADFS2
from incdfs.core import EdgeClass, GraphError, classify_edge, is_valid_dfs_tree
from incdfs.generators import gen_gnm


@pytest.mark.parametrize("algo_cls", [ADFS1, ADFS2])
class TestAdfsBasics:
    def test_back_edge_is_constant_work(self, algo_cls):
        algo = algo_cls(3)
        algo.insert(1, 2)
        algo.insert(2, 3)
        base = algo.counters.edges_processed
        parents = list(algo.tree.parent)
        algo.insert(3, 1)
        assert algo.counters.edges_processed == base + 1
        assert algo.tree.parent == parents

    def test_two_leaf_rehang(self, algo_cls):
        algo = algo_cls(2)
        algo.insert(1, 2)
        assert algo.tree.parent[2] == 1
        assert algo.tree.depth[2] == 2
        assert not algo.pending

    def test_directed_rejected(self, algo_cls):
        with pytest.raises(GraphError):
            algo_cls(4, directed=True)

    def test_valid_after_every_insertion(self, algo_cls):
        seq = gen_gnm(100, 500, seed=11)
        algo = algo_cls(seq.n)
        for u, v in seq.edges:
            algo.insert(u, v)
            assert not algo.pending
            assert is_valid_dfs_tree(algo.graph, algo.tree).ok
        # final tree classifies every non-tree edge Back
        eu, ev = algo.graph.edge_arrays()
        for u, v in zip(eu.tolist(), ev.tolist()):
            cls = classify_edge(algo.tree, u, v, directed=False)
            assert cls in (EdgeClass.TREE, EdgeClass.BACK)

    def test_back_insertions_never_touch_parents(self, algo_cls):
        # P1: only cross edges rebuild
        seq = gen_gnm(60, 400, seed=4)
        algo = algo_cls(seq.n)
        for u, v in seq.edges:
            before = list(algo.tree.parent)
            rebuilds = algo.counters.rebuilds
            algo.insert(u, v)
            if algo.counters.rebuilds == rebuilds:
                assert algo.tree.parent == before

    def test_stick_vertices_keep_parents(self, algo_cls):
        # P2: the stick proper is never restructured
        seq = gen_gnm(80, 800, seed=9)
        algo = algo_cls(seq.n)
        for u, v in seq.edges:
            stick = list(algo.stick)
            parents = {q: algo.tree.parent[q] for q in stick}
            algo.insert(u, v)
            for q in stick:
                assert algo.tree.parent[q] == parents[q]

    def test_batches_of_fifty(self, algo_cls):
        seq = gen_gnm(200, 1000, seed=2)
        algo = algo_cls(seq.n)
        for i in range(0, 1000, 50):
            algo.insert_batch(seq.edges[i : i + 50])
            assert is_valid_dfs_tree(algo.graph, algo.tree).ok

    def test_batch_of_back_edges_keeps_tree(self, algo_cls):
        algo = algo_cls(4)
        for e in [(1, 2), (2, 3), (3, 4)]:
            algo.insert(*e)
        parents = list(algo.tree.parent)
        algo.insert_batch([(4, 1), (3, 1), (4, 2)])
        assert algo.tree.parent == parents


class TestDrainOrder:
    def chain(self, algo_cls, n):
        algo = algo_cls(n)
        for v in range(1, n):
            algo.insert(v, v + 1)
        return algo

    def test_single_pending_edge_any_variant(self):
        for cls in (ADFS1, ADFS2):
            algo = self.chain(cls, 5)
            algo.pending.append((2, 5))
            assert algo._pop() == (2, 5)

    def test_adfs2_prefers_shallowest_endpoint(self):
        algo = self.chain(ADFS2, 9)
        algo.pending = [(5, 9), (2, 7)]
        assert algo._pop() == (2, 7)

    def test_adfs1_default_is_lifo(self):
        algo = self.chain(ADFS1, 9)
        algo.pending = [(5, 9), (2, 7)]
        assert algo._pop() == (2, 7) and algo.pending == [(5, 9)]

    def test_adversarial_prefers_deep_shallower_endpoint(self):
        algo = self.chain(ADFS1, 9)
        algo.adversarial_order = True
        algo.pending = [(5, 9), (2, 7), (6, 7)]
        assert algo._pop() == (6, 7)


class TestCounters:
    def test_cross_insert_charges_inserted_edge(self):
        algo = ADFS1(2)
        algo.insert(1, 2)
        assert algo.counters.edges_processed == 1
        assert algo.counters.rebuilds == 1

    def test_displaced_edges_each_charged(self):
        # chain 1..4 with back edges off the path, then a re-hang that
        # reverses the path and forces their re-examination
        algo = ADFS1(6)
        for e in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            algo.insert(*e)
        algo.insert(2, 4)  # back, stored at key 2
        algo.insert(2, 5)  # back, stored at key 2
        base = algo.counters.edges_processed
        assert base == 6
        algo.insert(5, 6)  # extends the chain: back?  no, 6 was a root child
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok
