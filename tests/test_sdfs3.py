import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incdfs.core import ROOT, GraphError, is_valid_dfs_tree, static_dfs
from incdfs.fdfs import CycleError, FdfsState
from incdfs.generators import gen_gnm, gen_worstcase_fdfs, gen_worstcase_sdfs3
from incdfs.sdfs3 import Sdfs3State
from oracles import DAG_CYCLE_CASES, ReferenceFdfs, ReferenceSdfs3, state_snapshot


def two_subtree_fixture(left_chain, right_chain, n=8):
    """State whose tree is two chains hanging off the pseudo root, plus
    isolated leftovers; built white-box so subtree sizes are exact."""
    algo = Sdfs3State(n)
    t = algo.tree
    used = set(left_chain) | set(right_chain)
    t.children[ROOT] = [left_chain[0], right_chain[0]] + [
        v for v in range(1, n + 1) if v not in used
    ]
    for chain in (left_chain, right_chain):
        for a, b in zip(chain, chain[1:]):
            algo.graph.add_edge(a, b)
            t.parent[b] = a
            t.children[a] = [b]
        for d, v in enumerate(chain, start=1):
            t.depth[v] = d
    return algo


def dfn_is_postorder(tree):
    n = tree.n
    if sorted(tree.dfn) != list(range(1, n + 2)):
        return False
    return all(tree.dfn[tree.parent[v]] > tree.dfn[v] for v in range(1, n + 1))


class TestUndirected:
    def test_back_edge_is_constant_work(self):
        algo = two_subtree_fixture([1, 2, 3], [4])
        base = algo.counters.edges_processed
        parents = list(algo.tree.parent)
        algo.insert(3, 1)
        assert algo.counters.edges_processed == base + 1
        assert algo.tree.parent == parents
        assert algo.counters.rebuilds == 0

    def test_smaller_side_is_rebuilt(self):
        algo = two_subtree_fixture([1], [2, 3, 4, 5, 6])
        big_parents = {v: algo.tree.parent[v] for v in (2, 3, 4, 5, 6)}
        algo.insert(1, 6)
        # T(1) has one vertex, T(2) has five: the singleton is re-hung
        # from the inserted edge and the big side is untouched
        assert algo.tree.parent[1] == 6
        for v, p in big_parents.items():
            assert algo.tree.parent[v] == p
        assert algo.counters.rebuilds == 1
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok

    def test_probe_cost_tracks_smaller_side(self):
        algo = two_subtree_fixture([1], [2, 3, 4, 5, 6])
        algo.insert(1, 6)
        # probe touched: one right vertex, one left vertex, one more right
        assert algo.counters.vertices_remarked == 3

    def test_tie_rebuilds_y_side(self):
        algo = two_subtree_fixture([1, 2], [3, 4])
        algo.insert(2, 4)
        # equal sizes: the subtree containing y is rebuilt, entered at y
        assert algo.tree.parent[4] == 2
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok

    def test_larger_side_parents_never_change(self):
        seq = gen_gnm(80, 700, seed=17)
        algo = Sdfs3State(80)
        for u, v in seq.edges:
            before = list(algo.tree.parent)
            nrb = algo.counters.rebuilds
            marked = algo.counters.vertices_remarked
            algo.insert(u, v)
            if algo.counters.rebuilds > nrb:
                probe = algo.counters.vertices_remarked - marked
                changed = sum(
                    1
                    for w in range(1, 81)
                    if algo.tree.parent[w] != before[w]
                )
                # the probe walks at most ~2x the rebuilt side
                assert changed <= probe + 1

    def test_valid_after_every_insertion(self):
        seq = gen_gnm(60, 450, seed=10)
        algo = Sdfs3State(60)
        for u, v in seq.edges:
            algo.insert(u, v)
            assert is_valid_dfs_tree(algo.graph, algo.tree).ok


class TestDirected:
    @pytest.mark.parametrize("mode", ["directed", "dag"])
    def test_valid_after_every_insertion(self, mode):
        seq = gen_gnm(50, 400, seed=9, mode=mode)
        algo = Sdfs3State(50, mode=mode)
        for u, v in seq.edges:
            algo.insert(u, v)
            assert is_valid_dfs_tree(algo.graph, algo.tree).ok
            assert dfn_is_postorder(algo.tree)

    def test_two_leaf_case_matches_rank_interval_algorithm(self):
        a = Sdfs3State(2, mode="directed")
        b = FdfsState(2, mode="directed")
        a.insert(1, 2)
        b.insert(1, 2)
        assert a.tree.parent == b.tree.parent
        assert a.tree.dfn == b.tree.dfn

    def test_seven_vertex_dag_fixture(self):
        algo = Sdfs3State(7, mode="dag")
        for e in [(2, 1), (3, 2), (5, 4), (6, 1), (1, 4), (6, 7), (3, 7)]:
            algo.insert(*e)
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok
        assert dfn_is_postorder(algo.tree)

    def test_cycle_rejected_and_state_restored(self):
        # graph, tree, dfn and all four counters as before
        for prefix, (x, y) in DAG_CYCLE_CASES:
            algo = Sdfs3State(4, mode="dag")
            for e in prefix:
                algo.insert(*e)
            parents = list(algo.tree.parent)
            before = state_snapshot(algo)
            with pytest.raises(CycleError):
                algo.insert(x, y)
            assert state_snapshot(algo) == before
            assert not algo.graph.has_edge(x, y)
            assert algo.counters.insertions == len(prefix)
            assert algo.tree.parent == parents
            assert is_valid_dfs_tree(algo.graph, algo.tree).ok

    def test_cost_close_to_rank_interval_algorithm(self):
        n = 256
        seq = gen_gnm(n, n * (n - 1) // 2, seed=4, mode="directed")
        a = Sdfs3State(n, mode="directed")
        b = FdfsState(n, mode="directed")
        for u, v in seq.edges:
            a.insert(u, v)
            b.insert(u, v)
        ratio = a.counters.edges_processed / b.counters.edges_processed
        assert 0.5 <= ratio <= 2.0


def test_bad_mode():
    with pytest.raises(GraphError):
        Sdfs3State(4, mode="semi")


def test_no_batch_mode():
    algo = Sdfs3State(5)
    with pytest.raises(NotImplementedError):
        algo.insert_batch([(1, 2)])


def _sdfs3_state(algo):
    t, c = algo.tree, algo.counters
    return (t.parent, t.children, t.depth, t.dfn, t.dfn_valid,
            c.edges_processed, c.rebuilds, c.insertions, c.vertices_remarked)


def _dfn_index_inverts_dfn(algo):
    dfn, index = algo.tree.dfn, algo.dfn_index
    return all(index[dfn[v]] == v for v in range(len(dfn)))


@pytest.mark.parametrize(
    "n,m,seed,mode",
    [(60, 600, s, mode) for s in range(3) for mode in ("undirected", "directed", "dag")]
    + [(300, 1500, 1, "undirected"), (300, 1500, 1, "directed"),
       (120, 500, None, "worstcase_sdfs3"), (100, 800, None, "worstcase_fdfs")],
)
def test_repairs_match_reference(n, m, seed, mode):
    # the restricted_dfs repairs give the reference's trees, dfn and
    # counters after every insertion
    if mode == "worstcase_sdfs3":
        seq, mode = gen_worstcase_sdfs3(n, m), "undirected"
    elif mode == "worstcase_fdfs":
        seq, mode = gen_worstcase_fdfs(n, m), "dag"
    else:
        seq = gen_gnm(n, m, seed=seed, mode=mode)
    algo = Sdfs3State(seq.n, mode=mode)
    ref = ReferenceSdfs3(seq.n, mode=mode)
    for u, v in seq.edges:
        algo.insert(u, v)
        ref.insert(u, v)
        assert _sdfs3_state(algo) == _sdfs3_state(ref)
        if algo.directed:
            assert _dfn_index_inverts_dfn(algo)
    assert algo.counters.rebuilds > 50


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from(["directed", "dag"]),
            st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=40),
        )
    )
)
def test_directed_repairs_match_reference_on_small_graphs(case):
    # the shared phase 1 and the interval renumbering against the references
    # (sdfs3's renumbers with recompute_dfn), insert by insert, with
    # cycle-closing dag insertions in the mix
    n, mode, edges = case
    for algo, ref in ((Sdfs3State(n, mode), ReferenceSdfs3(n, mode)),
                      (FdfsState(n, mode), ReferenceFdfs(n, mode))):
        for u, v in edges:
            before = state_snapshot(algo)
            try:
                ref.insert(u, v)
            except CycleError:
                with pytest.raises(CycleError):
                    algo.insert(u, v)
                assert state_snapshot(algo) == before
            else:
                algo.insert(u, v)
            assert _sdfs3_state(algo) == _sdfs3_state(ref)
            assert _dfn_index_inverts_dfn(algo)



def _keeps_static_dfs_tree(algo, edges, snapshot):
    """Insert edges one by one; after each, rejected dag insertions
    included, the tree must be static_dfs's tree of the current graph.
    With snapshot, a rejected insertion must also leave the state as it
    was."""
    for u, v in edges:
        before = state_snapshot(algo) if snapshot else None
        try:
            algo.insert(u, v)
        except CycleError:
            if snapshot:
                assert state_snapshot(algo) == before
        t, ref = algo.tree, static_dfs(algo.graph)
        assert (t.parent, t.children, t.depth, t.dfn) == (
            ref.parent, ref.children, ref.depth, ref.dfn)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sampled_from(["directed", "dag"]),
            st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=40),
        )
    )
)
def test_directed_repairs_keep_the_static_dfs_tree(case):
    # fdfs and sdfs3 directed keep exactly the tree a static DFS of the
    # current graph gives, so re-traversing the candidates phase 1 did not
    # reach can change nothing
    n, mode, edges = case
    for cls in (FdfsState, Sdfs3State):
        _keeps_static_dfs_tree(cls(n, mode), edges, snapshot=True)


@pytest.mark.parametrize("cls", [FdfsState, Sdfs3State])
@pytest.mark.parametrize("case", ["gnm", "worstcase_fdfs"])
def test_directed_repairs_keep_the_static_dfs_tree_seeded(cls, case):
    if case == "gnm":
        seq, mode = gen_gnm(120, 3000, seed=0, mode="directed"), "directed"
    else:
        seq, mode = gen_worstcase_fdfs(100, 1200), "dag"
    algo = cls(seq.n, mode)
    _keeps_static_dfs_tree(algo, seq.edges, snapshot=False)
    assert algo.counters.rebuilds > 50

@pytest.mark.parametrize("mode", ["directed", "dag"])
def test_reference_replays_its_own_directed_loop(monkeypatch, mode):
    # the reference must not reach Sdfs3State's repair, or the differential
    # tests above would compare the library with itself
    calls = []
    own = ReferenceSdfs3._apply_directed

    def counted(self, x, y):
        calls.append((x, y))
        own(self, x, y)

    def library_repair(self, x, y, w):
        raise AssertionError("the reference ran Sdfs3State._rebuild")

    monkeypatch.setattr(ReferenceSdfs3, "_apply_directed", counted)
    monkeypatch.setattr(Sdfs3State, "_rebuild", library_repair)
    seq = gen_gnm(60, 600, seed=0, mode=mode)
    ref = ReferenceSdfs3(seq.n, mode=mode)
    for u, v in seq.edges:
        ref.insert(u, v)
    assert calls == seq.edges
    assert ref.counters.rebuilds > 50
