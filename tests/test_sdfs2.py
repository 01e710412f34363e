import copy
import math
from collections import Counter

import pytest

import incdfs.adfs
import incdfs.core
import incdfs.fdfs
import incdfs.sdfs2
import incdfs.sdfs3
from incdfs.bench import make_algorithm
from incdfs.core import ROOT, DfsTree, is_valid_dfs_tree, stick_profile
from incdfs.generators import gen_gnm, gen_worstcase_sdfs3
from incdfs.sdfs2 import Sdfs2State
from oracles import ReferenceSdfs2


def build_chain(n):
    algo = Sdfs2State(n)
    for v in range(1, n):
        algo.insert(v, v + 1)
    return algo


def stored_count(algo):
    if algo.directed:
        return sum(len(lst) for lst in algo.stored)
    return sum(len(lst) for lst in algo.stored) // 2


def bristle_tree_edges(algo):
    count, stack = 0, [algo.bristle_root]
    while stack:
        q = stack.pop()
        count += len(algo.tree.children[q])
        stack.extend(algo.tree.children[q])
    return count


class TestStickHandling:
    def test_chain_stick_and_discard(self):
        algo = build_chain(5)
        assert algo.tree.parent == [-1, 0, 1, 2, 3, 4]
        assert [v for v in range(1, 6) if algo.on_stick[v]] == [1, 2, 3, 4]
        assert algo.bristle_root == 5
        parents = list(algo.tree.parent)
        before = algo.counters.rebuilds
        algo.insert(2, 4)
        assert algo.tree.parent == parents
        assert algo.counters.rebuilds == before
        assert algo.discarded_edges >= 1
        assert stored_count(algo) == 0

    def test_low_density_rebuild_covers_everything(self):
        algo = Sdfs2State(2)
        assert algo.bristle_root == ROOT
        algo.insert(1, 2)
        assert algo.counters.rebuilds == 1
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok

    STICK_CASES = [
        ("adfs1", "undirected", 0), ("adfs2", "undirected", 0),
        ("sdfs2", "undirected", 0), ("sdfs2", "directed", 0),
        ("fdfs", "dag", 0), ("fdfs", "directed", 0),
        ("sdfs3", "undirected", 0), ("sdfs3", "directed", 0), ("sdfs3", "dag", 0),
        ("sdfs", "undirected", 0), ("sdfs", "directed", 0),
        ("sdfs-int", "undirected", 0), ("sdfs-int", "directed", 0),
        ("sdfs", "undirected", 300),
    ]

    @pytest.mark.parametrize("name,mode,prefix", STICK_CASES, ids=[
        f"{name}-{mode}" + (f"-batch{prefix}" if prefix else "")
        for name, mode, prefix in STICK_CASES])
    def test_on_stick_matches_stick_profile(self, name, mode, prefix, monkeypatch):
        # the stick view, resumed below the old stick after every repair
        # (an sdfs rerun's too, a batch's included), equals a fresh walk
        # down from the root; and no maintainer walks for ancestry from a
        # marked endpoint
        seq = gen_gnm(80, 600 if mode == "undirected" else 2000, seed=14, mode=mode)
        algo = make_algorithm(name, 80, mode)
        lca = incdfs.core.lca

        def unmarked_lca(tree, u, v):
            assert not (algo.on_stick[u] or algo.on_stick[v]), (u, v)
            return lca(tree, u, v)

        for module in (incdfs.core, incdfs.adfs, incdfs.fdfs, incdfs.sdfs3):
            monkeypatch.setattr(module, "lca", unmarked_lca)

        def check():
            prof = stick_profile(algo.tree)
            chain, cur = [], ROOT
            while len(algo.tree.children[cur]) == 1:
                cur = algo.tree.children[cur][0]
                chain.append(cur)
            assert algo.stick == chain[:-1]
            marked = {v for v in range(1, 81) if algo.on_stick[v]}
            assert marked == set(algo.stick)
            assert len(marked) == prof.l_s
            assert algo.bristle_root == prof.bristle_root == cur
            if mode == "dag":
                assert prof.l_s == 0  # criterion 7
            return prof.l_s > 0

        edges = seq.edges
        if prefix:
            algo.insert_batch(edges[:prefix])
            check()
            edges = edges[prefix:]
        grown = False
        reruns_on_a_stick = 0
        for u, v in edges:
            tree, had_stick = algo.tree, bool(algo.stick)
            algo.insert(u, v)
            reruns_on_a_stick += had_stick and algo.tree is not tree
            grown = check() or grown
        assert grown or mode == "dag"
        if name in ("sdfs", "sdfs-int"):
            # a rerun replaced a tree that had a stick, and the marks
            # resumed at the old bristle root
            assert reruns_on_a_stick > 0

    def test_no_stored_edge_touches_stick(self):
        # after every insertion each stored edge sits once in its out-list
        # and once in its in-list (undirected: the same lists, so once in
        # each endpoint's list), is a graph edge but no tree edge, and has
        # no endpoint on the stick
        for mode, m in (("undirected", 900), ("directed", 2000)):
            seq = gen_gnm(100, m, seed=3, mode=mode)
            algo = Sdfs2State(100, directed=seq.directed)
            for u, v in seq.edges:
                algo.insert(u, v)
                parent, on_stick = algo.tree.parent, algo.on_stick
                stored, stored_in = algo.stored, algo._stored_in
                out = Counter((a, b) for a in range(101) for b in stored[a])
                into = Counter((a, b) for b in range(101) for a in stored_in[b])
                assert out == into
                assert set(out.values()) <= {1}
                for a, b in out:
                    assert algo.graph.has_edge(a, b)
                    assert parent[b] != a
                    assert seq.directed or parent[a] != b
                    assert not (on_stick[a] or on_stick[b])
            assert algo.stick and algo.discarded_edges > 0

    def test_prune_hook_sees_every_discard(self):
        seq = gen_gnm(60, 500, seed=21)
        algo = Sdfs2State(60)
        log = []
        algo.prune_hook = lambda u, v: log.append((u, v))
        for u, v in seq.edges:
            algo.insert(u, v)
        assert len(log) == algo.discarded_edges
        assert algo.discarded_edges > 0
        for u, v in log:
            assert algo.graph.has_edge(u, v)


@pytest.mark.parametrize("mode", ["undirected", "directed", "dag"])
def test_valid_after_every_insertion(mode):
    seq = gen_gnm(50, 350, seed=8, mode=mode)
    algo = Sdfs2State(seq.n, directed=seq.directed)
    for u, v in seq.edges:
        algo.insert(u, v)
        assert is_valid_dfs_tree(algo.graph, algo.tree).ok


def test_dag_stick_stays_empty():
    for seed in range(3):
        seq = gen_gnm(60, 700, seed=seed, mode="dag")
        algo = Sdfs2State(60, directed=True)
        for u, v in seq.edges:
            algo.insert(u, v)
            assert stick_profile(algo.tree).l_s == 0


def test_rebuild_cost_is_bristle_subgraph_size():
    # a rebuild scans exactly the bristle-induced subgraph: its tree
    # edges, the stored non-tree edges, and the triggering edge
    for mode in ("undirected", "directed"):
        seq = gen_gnm(40, 300, seed=5, mode=mode)
        algo = Sdfs2State(40, directed=(mode == "directed"))
        rebuilds_seen = 0
        for u, v in seq.edges:
            expect = bristle_tree_edges(algo) + stored_count(algo) + 1
            before = algo.counters.edges_processed
            nrb = algo.counters.rebuilds
            algo.insert(u, v)
            if algo.counters.rebuilds > nrb:
                rebuilds_seen += 1
                assert algo.counters.edges_processed - before == 1 + expect
        assert rebuilds_seen > 5


def test_rebuild_cost_independent_of_stick():
    # contracting the stick away must not change what a trigger scans
    seq = gen_gnm(60, 2 * 60 * 7, seed=2)
    algo = Sdfs2State(60)
    compared = 0
    for u, v in seq.edges:
        if algo.stick and not algo.on_stick[u] and not algo.on_stick[v]:
            twin = copy.deepcopy(algo)
            t = twin.tree
            for q in twin.stick:
                t.parent[q] = -2
                t.children[q] = []
            t.children[ROOT] = [twin.bristle_root]
            t.parent[twin.bristle_root] = ROOT
            t.refresh_depths(twin.bristle_root)
            twin.on_stick = bytearray(61)
            twin.stick = []
            b0, b1 = algo.counters.edges_processed, twin.counters.edges_processed
            algo.insert(u, v)
            twin.insert(u, v)
            assert (
                algo.counters.edges_processed - b0
                == twin.counters.edges_processed - b1
            )
            compared += 1
        else:
            algo.insert(u, v)
    assert compared > 20


def test_stored_edge_budget():
    n = 200
    seq = gen_gnm(n, 6000, seed=7)
    algo = Sdfs2State(n)
    peak = 0
    for u, v in seq.edges:
        algo.insert(u, v)
        peak = max(peak, stored_count(algo))
    assert peak <= 4 * n * math.log(n)


def test_stick_grows_monotonically_past_threshold():
    n = 150
    m = n * n // 4
    seq = gen_gnm(n, m, seed=12)
    algo = Sdfs2State(n)
    threshold = int(2 * n * math.log(n))
    prev = 0
    for i, (u, v) in enumerate(seq.edges):
        algo.insert(u, v)
        if i >= threshold:
            ls = stick_profile(algo.tree).l_s
            assert ls >= prev
            prev = ls
    assert prev > 0


def test_no_batch_mode():
    algo = Sdfs2State(5)
    with pytest.raises(NotImplementedError):
        algo.insert_batch([(1, 2)])


def _full_state(algo):
    t = algo.tree
    c = algo.counters
    return (t.parent, t.children, t.depth, algo.stored, algo._stored_in,
            c.edges_processed, c.rebuilds, c.insertions, c.vertices_remarked,
            algo.discarded_edges, bytes(algo.on_stick), algo.bristle_root)


def _fresh_dfn(tree):
    fresh = DfsTree(tree.n)
    fresh.children = tree.children
    fresh.recompute_dfn()
    return fresh.dfn


@pytest.mark.parametrize(
    "n,m,seed,mode",
    [(60, 600, s, m) for s in range(3) for m in ("undirected", "directed", "dag")]
    + [(300, 1500, 1, "undirected"), (300, 1500, 1, "directed"), (120, 500, None, "worstcase")],
)
def test_rebuild_matches_reference(n, m, seed, mode):
    # the lean rebuild gives the reference's trees, stored lists (in
    # order), counters and discards after every insertion, and keeps a
    # directed dfn exact where the reference leaves it to be recomputed
    if mode == "worstcase":
        seq = gen_worstcase_sdfs3(n, m)
    else:
        seq = gen_gnm(n, m, seed=seed, mode=mode)
    algo = Sdfs2State(seq.n, directed=seq.directed)
    ref = ReferenceSdfs2(seq.n, directed=seq.directed)
    log, ref_log = [], []
    algo.prune_hook = lambda u, v: log.append((u, v))
    ref.prune_hook = lambda u, v: ref_log.append((u, v))
    for u, v in seq.edges:
        algo.insert(u, v)
        ref.insert(u, v)
        assert _full_state(algo) == _full_state(ref)
        assert log == ref_log
        if seq.directed:
            assert algo.tree.dfn_valid
            assert algo.tree.dfn == _fresh_dfn(algo.tree)
    assert algo.counters.rebuilds > 5


@pytest.mark.parametrize("mode", ["directed", "dag"])
@pytest.mark.parametrize("name", ["sdfs2", "sdfs3", "fdfs"])
def test_directed_rebuild_never_recomputes_dfn(monkeypatch, name, mode):
    # a directed rebuild assigns the moved vertices' post-order ranks
    # itself, so the anti-cross test never renumbers the whole tree, and
    # no insertion asks classify_edge, which only reads the ranks
    seq = gen_gnm(400, 10000, seed=1, mode=mode)
    algo = make_algorithm(name, seq.n, mode)
    calls = []
    original = DfsTree.recompute_dfn
    classify = incdfs.core.classify_edge

    def counted(tree):
        calls.append(tree)
        original(tree)

    def counted_classify(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(DfsTree, "recompute_dfn", counted)
    for module in (incdfs.core, incdfs.fdfs, incdfs.sdfs2, incdfs.sdfs3):
        monkeypatch.setattr(module, "classify_edge", counted_classify, raising=False)
    for u, v in seq.edges:
        algo.insert(u, v)
    assert algo.counters.rebuilds > 100
    assert calls == []
