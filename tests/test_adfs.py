import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incdfs.adfs import ADFS1, ADFS2
from incdfs.core import ROOT, EdgeClass, GraphError, classify_edge, is_valid_dfs_tree
from incdfs.generators import gen_gnm, gen_worstcase_adfs1, gen_worstcase_sdfs3
from oracles import ReferenceAdfs1, ReferenceAdfs2


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
    def chain(self, make, n):
        algo = make(n)
        for v in range(1, n):
            algo.insert(v, v + 1)
        return algo

    def drain_order(self, algo, pool):
        # drain a hand-made pool with _process recording each pop and
        # re-hanging nothing, so the depths (and keys) stay put
        popped = []
        algo._process = lambda u, v: popped.append((u, v))
        algo.pending.extend(pool)
        algo._drain()
        assert not algo.pending
        return popped

    def test_single_pending_edge_any_variant(self):
        for make in (ADFS1, ADFS2, lambda n: ADFS1(n, adversarial_order=True)):
            algo = self.chain(make, 5)
            assert self.drain_order(algo, [(2, 5)]) == [(2, 5)]

    def test_adfs2_prefers_shallowest_endpoint(self):
        algo = self.chain(ADFS2, 9)
        assert self.drain_order(algo, [(5, 9), (2, 7)]) == [(2, 7), (5, 9)]

    def test_adfs1_default_is_lifo(self):
        algo = self.chain(ADFS1, 9)
        assert self.drain_order(algo, [(5, 9), (2, 7)]) == [(2, 7), (5, 9)]

    def test_adversarial_prefers_deep_shallower_endpoint(self):
        algo = self.chain(lambda n: ADFS1(n, adversarial_order=True), 9)
        pool = [(5, 9), (2, 7), (6, 7)]
        assert self.drain_order(algo, pool) == [(6, 7), (5, 9), (2, 7)]

    @pytest.mark.parametrize("make,batch,order,parent", [
        # the first pop (2,1) hangs 1 below 2, deepening 1: the deeper
        # endpoint of the pooled (3,1) turns 2 deep, so its adversarial key
        # falls behind (3,2)'s
        (lambda n: ADFS1(n, adversarial_order=True), [(2, 1), (3, 1), (3, 2)],
         [(2, 1), (3, 2), (3, 1)], [-1, 2, 3, 0]),
        # the first pop (2,1) hangs 1 below 2, deepening 1: the pooled
        # (3,1)'s shallower endpoint becomes 3, so its key moves behind (2,3)
        (ADFS2, [(3, 1), (2, 3), (2, 1)],
         [(2, 1), (2, 3), (3, 1)], [-1, 3, 0, 2]),
    ], ids=["adfs1-adversarial", "adfs2"])
    def test_rehang_rekeys_pooled_edges(self, make, batch, order, parent):
        # a heap that kept the keys from before the re-hang would pop
        # (3,1) second
        algo = make(3)
        popped = _log_processed(algo)
        algo.insert_batch(batch)
        assert popped == order
        assert algo.tree.parent == parent


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


# -- the heap pool against the scanning reference -----------------------------

POOL_ORDERS = {
    "adfs1-adversarial": (
        lambda n: ADFS1(n, adversarial_order=True),
        lambda n: ReferenceAdfs1(n, adversarial_order=True),
    ),
    "adfs1-lifo": (ADFS1, ReferenceAdfs1),
    "adfs2": (ADFS2, ReferenceAdfs2),
}


def _adfs_state(algo):
    t, c = algo.tree, algo.counters
    return (
        t.parent, t.children, t.depth,
        c.edges_processed, c.rebuilds, c.insertions, c.vertices_remarked,
        algo.discarded_edges, algo.stick, algo.pending, algo._back,
    )


def _log_processed(algo):
    """Record every (u, v) the maintainer settles through _process: the
    inserted edges and the pool's drain order."""
    log = []
    process = algo._process

    def logged(u, v):
        log.append((u, v))
        return process(u, v)

    algo._process = logged
    return log


def _check_against_reference(order, n, edges, batch=0):
    make, make_ref = POOL_ORDERS[order]
    algo, ref = make(n), make_ref(n)
    log, ref_log = _log_processed(algo), _log_processed(ref)
    if batch:
        chunks = [edges[i : i + batch] for i in range(0, len(edges), batch)]
        for chunk in chunks:
            algo.insert_batch(chunk)
            ref.insert_batch(chunk)
            assert _adfs_state(algo) == _adfs_state(ref)
    else:
        for u, v in edges:
            algo.insert(u, v)
            ref.insert(u, v)
            assert _adfs_state(algo) == _adfs_state(ref)
    assert log == ref_log
    return algo


POOL_INPUTS = {
    "wc-adfs1-64": lambda: gen_worstcase_adfs1(64, 256),
    "wc-adfs1-128": lambda: gen_worstcase_adfs1(128, 1024),
    "wc-sdfs3": lambda: gen_worstcase_sdfs3(60, 300),
    "gnm": lambda: gen_gnm(120, 900, seed=5),
}


@pytest.mark.parametrize("order", sorted(POOL_ORDERS))
@pytest.mark.parametrize("source", sorted(POOL_INPUTS))
@pytest.mark.parametrize("batch", [0, 23])
def test_pool_matches_scanning_reference(order, source, batch):
    # parent, children, depth, counters, discards, stick, stored edges and
    # the order of every settled edge equal the rescan-per-pop reference,
    # insert by insert and batch by batch
    seq = POOL_INPUTS[source]()
    algo = _check_against_reference(order, seq.n, seq.edges, batch)
    assert algo.counters.rebuilds > 10


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n), st.integers(1, n)), max_size=40
            ),
            st.integers(0, 5),
        )
    )
)
def test_pool_matches_scanning_reference_on_small_graphs(case):
    n, edges, batch = case
    for order in POOL_ORDERS:
        _check_against_reference(order, n, edges, batch)


# -- stored back edges -------------------------------------------------------


def _check_stored_back_edges(algo):
    """What ADFS stores once a call returns: every stored edge is a non-tree
    graph edge, keyed on its endpoint that is a proper ancestor of the
    other, and off the stick; the pool is empty; and stored, real tree and
    discarded edges add up to graph.m, the identity that
    StreamState.retained_edges relies on."""
    graph, parent, on_stick = algo.graph, algo.tree.parent, algo.on_stick
    assert not algo.pending
    stored = 0
    for key, edges in enumerate(algo._back):
        for a, b in edges:
            assert graph.has_edge(a, b)
            assert parent[a] != b and parent[b] != a
            assert key in (a, b)
            x = parent[b if key == a else a]
            while x != key and x != ROOT:
                x = parent[x]
            assert x == key
            assert not on_stick[a] and not on_stick[b]
        stored += len(edges)
    tree_edges = sum(p != ROOT for p in parent[1:])
    assert stored + tree_edges + algo.discarded_edges == graph.m


@pytest.mark.parametrize("order", sorted(POOL_ORDERS))
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("batch", [0, 50])
def test_stored_back_edges(order, seed, batch):
    make, _ = POOL_ORDERS[order]
    edges = gen_gnm(100, 900, seed=seed).edges
    algo = make(100)
    if batch:
        for i in range(0, len(edges), batch):
            algo.insert_batch(edges[i : i + batch])
            _check_stored_back_edges(algo)
    else:
        for u, v in edges:
            algo.insert(u, v)
            _check_stored_back_edges(algo)
    assert algo.stick and any(algo._back)
