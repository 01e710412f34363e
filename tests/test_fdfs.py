import pytest

import incdfs.fdfs
from incdfs.core import EdgeClass, GraphError, classify_edge, is_valid_dfs_tree
from incdfs.fdfs import CycleError, FdfsState
from incdfs.generators import gen_gnm, gen_worstcase_fdfs
from incdfs.sdfs3 import Sdfs3State
from oracles import DAG_CYCLE_CASES, ReferenceFdfs, ancestor_set, state_snapshot


def dfn_is_postorder(algo):
    t = algo.tree
    n = t.n
    if sorted(t.dfn) != list(range(0, n + 2))[1:] and sorted(t.dfn) != list(
        range(1, n + 2)
    ):
        return False
    for v in range(1, n + 1):
        if t.dfn[t.parent[v]] <= t.dfn[v]:
            return False
    for r in range(1, n + 2):
        if t.dfn[algo.dfn_index[r]] != r:
            return False
    return True


class TestSmallCases:
    def test_no_rebuild_when_rank_order_agrees(self):
        algo = FdfsState(2)
        assert algo.tree.dfn[1] == 1 and algo.tree.dfn[2] == 2
        algo.insert(2, 1)
        assert algo.tree.parent[1] == 0 and algo.tree.parent[2] == 0
        assert algo.counters.edges_processed == 1
        assert algo.counters.rebuilds == 0

    def test_smallest_rebuild(self):
        algo = FdfsState(2)
        algo.insert(1, 2)
        assert algo.tree.parent[2] == 1
        assert algo.tree.dfn[2] < algo.tree.dfn[1]
        assert algo.counters.rebuilds == 1
        assert dfn_is_postorder(algo)

    def test_cycle_rejected_and_state_restored(self):
        # graph, tree, dfn, dfn_index and all four counters as before
        for prefix, (x, y) in DAG_CYCLE_CASES:
            algo = FdfsState(4, mode="dag")
            for e in prefix:
                algo.insert(*e)
            m = algo.graph.m
            before = state_snapshot(algo)
            with pytest.raises(CycleError):
                algo.insert(x, y)
            assert state_snapshot(algo) == before
            assert algo.graph.m == m
            assert not algo.graph.has_edge(x, y)
            assert algo.counters.insertions == len(prefix)
            assert is_valid_dfs_tree(algo.graph, algo.tree).ok
            assert dfn_is_postorder(algo)

    @pytest.mark.parametrize("cls", [FdfsState, Sdfs3State])
    def test_cycle_through_the_stick_rejected(self, cls, monkeypatch):
        # 1 -> 2 -> {3, 4}: the stick proper is [1], the bristle root 2.
        # (3, 1) has a marked head, so it is taken as a back edge without
        # an ancestry walk, and in dag mode a back edge closes a cycle
        algo = cls(4, mode="dag")
        for e in ((1, 2), (2, 3), (2, 4)):
            algo.insert(*e)
        assert algo.stick == [1] and algo.bristle_root == 2
        assert list(algo.on_stick) == [0, 1, 0, 0, 0]

        def view():
            return (bytes(algo.on_stick), list(algo.stick), algo.bristle_root,
                    algo.discarded_edges)

        before, stick_before = state_snapshot(algo), view()

        def no_walk(*args):
            raise AssertionError("lca called for an edge with a marked head")

        monkeypatch.setattr(incdfs.fdfs, "lca", no_walk)
        with pytest.raises(CycleError):
            algo.insert(3, 1)
        assert state_snapshot(algo) == before
        assert view() == stick_before
        assert not algo.graph.has_edge(3, 1)
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok
        assert dfn_is_postorder(algo)

    def test_indirect_cycle_rejected(self):
        algo = FdfsState(4, mode="dag")
        algo.insert(3, 1)  # dfn(3)=3 > dfn(1)=1: stored
        algo.insert(1, 4)
        with pytest.raises(CycleError):
            algo.insert(4, 3)  # 4 -> 3 -> 1 -> 4
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok

    def test_directed_mode_accepts_cycles(self):
        algo = FdfsState(3, mode="directed")
        algo.insert(1, 2)
        algo.insert(2, 3)
        algo.insert(3, 1)  # closes a cycle: fine, stored as back edge
        assert algo.counters.insertions == 3
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok

    def test_bad_mode(self):
        with pytest.raises(GraphError):
            FdfsState(3, mode="undirected")


class TestCandidateSet:
    def fixture(self):
        # 7-vertex dag whose tree has a nontrivial path structure:
        # chains 2->1, 3->2 and 5->4, plus 6->1
        algo = FdfsState(7, mode="dag")
        for e in [(2, 1), (3, 2), (5, 4), (6, 1)]:
            algo.insert(*e)
        return algo

    def brute_dag(self, algo, x, y):
        t = algo.tree
        anc_x = ancestor_set(t, x) - {x}
        return {
            v
            for v in range(1, t.n + 1)
            if t.dfn[x] < t.dfn[v] <= t.dfn[y] and v not in anc_x
        }

    def test_adjacent_ranks(self):
        algo = FdfsState(3, mode="dag")
        x = algo.dfn_index[1]
        y = algo.dfn_index[2]
        assert algo.candidate_set(x, y) == {y}

    def test_matches_bruteforce_on_fixture(self):
        algo = self.fixture()
        t = algo.tree
        for x in range(1, 8):
            for y in range(1, 8):
                if x != y and t.dfn[x] < t.dfn[y]:
                    assert algo.candidate_set(x, y) == self.brute_dag(algo, x, y)

    @pytest.mark.parametrize("mode", ["directed", "dag"])
    def test_back_edge_is_rejected(self, mode):
        # y an ancestor of x: the interval climb would pass the root
        algo = FdfsState(4, mode=mode)
        algo.insert(1, 2)
        algo.insert(2, 3)
        assert algo.tree.parent[1:4] == [0, 1, 2]
        with pytest.raises(GraphError, match="back edge"):
            algo.candidate_set(3, 1)

    @pytest.mark.parametrize("x,y", [(2, -1), (-4, 3), (1, 9)])
    def test_out_of_range_ids_are_rejected(self, x, y):
        # a negative id would alias a vertex counted from the end
        algo = FdfsState(4, mode="directed")
        algo.insert(1, 2)
        algo.insert(3, 4)
        with pytest.raises(GraphError, match="out of range"):
            algo.candidate_set(x, y)

    @pytest.mark.parametrize("x,y", [(2, 1), (4, 2), (3, 3)])
    def test_rank_order_is_required(self, x, y):
        # the star tree ranks every real vertex by its id
        algo = FdfsState(4, mode="directed")
        with pytest.raises(GraphError, match=r"dfn\(x\) < dfn\(y\)"):
            algo.candidate_set(x, y)

    def test_undirected_sdfs3_is_rejected(self):
        # undirected sdfs3 keeps no rank index
        with pytest.raises(GraphError, match="directed and dag"):
            Sdfs3State(4).candidate_set(2, 4)

    def test_directed_mode_contains_full_subtree(self):
        seq = gen_gnm(30, 120, seed=6, mode="directed")
        algo = FdfsState(30, mode="directed")
        for u, v in seq.edges:
            algo.insert(u, v)
        dag_view = FdfsState(30, mode="dag")
        dag_view.tree = algo.tree
        dag_view.dfn_index = algo.dfn_index
        t = algo.tree
        checked = 0
        for x in range(1, 31):
            for y in range(1, 31):
                if x == y or t.dfn[x] >= t.dfn[y]:
                    continue
                anc = ancestor_set(t, x)
                if y in anc or x in ancestor_set(t, y):
                    continue
                cand = algo.candidate_set(x, y)
                assert cand >= dag_view.candidate_set(x, y)
                checked += 1
        assert checked > 10


@pytest.mark.parametrize("mode", ["dag", "directed"])
def test_valid_after_every_insertion(mode):
    seq = gen_gnm(60, 500, seed=8, mode=mode if mode == "dag" else "directed")
    algo = FdfsState(seq.n, mode=mode)
    for u, v in seq.edges:
        algo.insert(u, v)
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok
        assert dfn_is_postorder(algo)
    eu, ev = algo.graph.edge_arrays()
    for u, v in zip(eu.tolist(), ev.tolist()):
        assert classify_edge(algo.tree, u, v, True) != EdgeClass.ANTI_CROSS


def test_back_edge_costs_one_in_directed_mode():
    algo = FdfsState(4, mode="directed")
    for e in [(1, 2), (2, 3), (3, 4)]:
        algo.insert(*e)
    # tree is now a chain 1->2->3->4 after three rebuilds
    base = algo.counters.edges_processed
    algo.insert(4, 1)  # 1 is an ancestor of 4
    assert algo.counters.edges_processed == base + 1
    assert algo.counters.rebuilds == 3


def test_worstcase_triggers_each_cost_theta_m():
    n, m = 16, 25
    seq = gen_worstcase_fdfs(n, m)
    algo = FdfsState(n, mode="dag")
    deltas = []
    for i, (u, v) in enumerate(seq.edges):
        before = algo.counters.edges_processed
        algo.insert(u, v)
        if i >= seq.meta["trigger_start"]:
            deltas.append(algo.counters.edges_processed - before)
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok
    h = n // 2
    fill = seq.meta["fill"]
    # every trigger re-scans all of B's internal edges plus its chain
    assert len(deltas) == h
    for d in deltas:
        assert d >= fill + (h - 1)
    assert max(deltas) <= 3 * (fill + h)


def test_no_batch_mode():
    algo = FdfsState(5, mode="dag")
    with pytest.raises(NotImplementedError):
        algo.insert_batch([(1, 2)])


def _fdfs_state(algo):
    t, c = algo.tree, algo.counters
    return (t.parent, t.children, t.depth, t.dfn, algo.dfn_index,
            c.edges_processed, c.rebuilds, c.insertions, c.vertices_remarked)


@pytest.mark.parametrize(
    "n,m,seed,mode",
    [(60, 600, s, mode) for s in range(3) for mode in ("directed", "dag")]
    + [(300, 1500, 1, "directed"), (300, 1500, 1, "dag"), (100, 800, None, "worstcase")],
)
def test_rebuild_matches_reference(n, m, seed, mode):
    # the restricted_dfs rebuild gives the reference's trees, dfn,
    # dfn_index and counters after every insertion
    if mode == "worstcase":
        seq = gen_worstcase_fdfs(n, m)
        mode = "dag"
    else:
        seq = gen_gnm(n, m, seed=seed, mode=mode)
    algo = FdfsState(seq.n, mode=mode)
    ref = ReferenceFdfs(seq.n, mode=mode)
    for u, v in seq.edges:
        algo.insert(u, v)
        ref.insert(u, v)
        assert _fdfs_state(algo) == _fdfs_state(ref)
    assert algo.counters.rebuilds > 50
