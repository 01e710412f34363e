import ast
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from incdfs.bench import make_algorithm
from incdfs.core import ROOT, GraphError, is_valid_dfs_tree
from incdfs.generators import gen_gnm
from incdfs.streaming import StreamState, strong_components
from oracles import brute_scc, offline_scc


class TestBasics:
    def test_no_edges_all_singletons(self):
        st = StreamState(5, directed=True)
        assert st.scc_query() == [[1], [2], [3], [4], [5]]

    @pytest.mark.parametrize("order", [[(1, 2), (2, 3), (3, 1)], [(3, 1), (1, 2), (2, 3)]])
    def test_directed_triangle_one_component(self, order):
        st = StreamState(3, directed=True)
        st.stream_sequence(order)
        assert st.scc_query() == [[1, 2, 3]]

    def test_scc_query_rejected_undirected(self):
        st = StreamState(4, directed=False)
        with pytest.raises(GraphError):
            st.scc_query()

    def test_duplicates_counted_and_ignored(self):
        st = StreamState(4, directed=False)
        st.stream_edge(1, 2)
        st.stream_edge(1, 2)
        st.stream_edge(2, 1)
        st.stream_edge(3, 3)
        assert st.duplicates == 3
        assert st.core.graph.m == 1

    @pytest.mark.parametrize("directed", [False, True])
    def test_out_of_range_endpoint_rejected_before_counting(self, directed):
        # the range check runs before any counter or the core is touched,
        # also for an endpoint on or below the pseudo root and a self loop
        st = StreamState(5, directed=directed)
        st.stream_sequence([(1, 2), (2, 3), (3, 4), (4, 5)])

        def state():
            core = st.core
            return (
                st.streamed, st.duplicates, st.dropped, st.peak_retained,
                list(st.highest_back), core.graph.real_edges(),
                list(core.tree.parent), core.counters.edges_processed,
                core.discarded_edges, st.retained_edges,
            )

        before = state()
        for u, v in ((1, 6), (6, 1), (0, 3), (3, -1), (6, 6)):
            with pytest.raises(GraphError):
                st.stream_edge(u, v)
            assert state() == before
        assert st.stream_edge(1, 5) is False  # dropped: 1 is on the stick
        assert st.streamed == before[0] + 1


class TestStickDiscard:
    def test_both_endpoints_on_stick_dropped(self):
        st = StreamState(5, directed=False)
        st.stream_sequence([(1, 2), (2, 3), (3, 4), (4, 5)])
        assert st.core.on_stick[1] and st.core.on_stick[3]
        before = st.retained_edges
        assert not st.stream_edge(1, 3)
        assert st.retained_edges == before
        assert st.dropped == 1

    def test_bristle_back_edge_retained(self):
        st = StreamState(6, directed=False)
        st.stream_sequence([(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
        assert not st.core.on_stick[3] and not st.core.on_stick[5]
        assert st.stream_edge(3, 5)
        assert st.retained_edges == 1

    def test_retained_never_counts_stick_edges(self):
        # once the stick swallows a stored edge's endpoints it gets pruned
        st = StreamState(60, directed=False)
        seq = gen_gnm(60, 400, seed=3)
        for u, v in seq.edges:
            st.stream_edge(u, v)
            stick = [q for q in range(1, 61) if st.core.on_stick[q]]
            back = st.core._back
            for q in stick:
                assert not back[q]

    @pytest.mark.parametrize("name,mode", [
        ("adfs1", "undirected"), ("adfs2", "undirected"),
        ("sdfs2", "undirected"), ("sdfs2", "directed"),
    ])
    def test_every_real_edge_is_tree_stored_or_discarded(self, name, mode):
        # retained_edges reads the stored edges as m minus the real tree
        # edges and discarded_edges; the stick layer's pruning keeps that
        # exact after every insertion
        n = 60
        seq = gen_gnm(n, 700, seed=4, mode=mode)
        algo = make_algorithm(name, n, mode)
        for u, v in seq.edges:
            algo.insert(u, v)
            if name == "sdfs2":
                stored = sum(map(len, algo.stored))
                stored = stored if algo.directed else stored // 2
            else:
                stored = sum(map(len, algo._back))
            tree_real = n - len(algo.tree.children[ROOT])
            assert algo.graph.m == tree_real + stored + algo.discarded_edges
        assert algo.discarded_edges > 0 and algo.stick

    def test_directed_witness_targets_stick(self):
        st = StreamState(40, directed=True)
        seq = gen_gnm(40, 300, seed=2, mode="directed")
        st.stream_sequence(seq.edges)
        depth = st.core.tree.depth
        for u in range(1, 41):
            hb = st.highest_back[u]
            if hb is not None:
                assert st.core.on_stick[hb]
                assert depth[hb] < depth[u]


class TestSccOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_streams_match_offline_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(20, 80))
        m = int(rng.integers(n, min(3 * n, n * (n - 1))))
        seq = gen_gnm(n, m, seed=seed, mode="directed")
        st = StreamState(n, directed=True)
        st.stream_sequence(seq.edges)
        assert st.scc_query() == offline_scc(n, seq.edges)

    def test_mid_stream_query(self):
        n = 50
        seq = gen_gnm(n, 400, seed=11, mode="directed")
        st = StreamState(n, directed=True)
        for cut in (100, 250, 400):
            start = st.streamed
            st.stream_sequence(seq.edges[start:cut])
            assert st.scc_query() == offline_scc(n, seq.edges[:cut])


class TestSpaceBound:
    def test_peak_retained_small_dense_stream(self):
        n = 200
        seq = gen_gnm(n, n * (n - 1) // 2, seed=0)
        st = StreamState(n, directed=False)
        st.stream_sequence(seq.edges)
        assert st.peak_retained <= 4 * n * math.log(n)
        rep = is_valid_dfs_tree(st.core.graph, st.core.tree)
        assert rep.ok

    def test_stream_file_roundtrip(self, tmp_path):
        from incdfs.generators import dump_sequence

        seq = gen_gnm(30, 90, seed=5, mode="directed")
        path = tmp_path / "stream.txt"
        dump_sequence(seq, path)
        st = StreamState(30, directed=True)
        st.stream_file(path)
        assert st.scc_query() == offline_scc(30, seq.edges)


class TestStreamFile:
    def _dump(self, tmp_path, text):
        path = tmp_path / "stream.txt"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("bad", ["2 x 1", "2 1.5 1", "3"])
    def test_malformed_line_names_path_and_line(self, tmp_path, bad):
        path = self._dump(tmp_path, f"4 3 1 0\n1 2 0\n{bad}\n3 4 2\n")
        st = StreamState(4, directed=True)
        with pytest.raises(GraphError, match=re.escape(f"{path}:3: malformed stream line")):
            st.stream_file(path)

    @pytest.mark.parametrize("header,n,directed", [
        ("5 2 1 0", 4, True),   # wrong n
        ("4 2 0 0", 4, True),   # undirected file into a directed stream
        ("4 2 1 1", 4, False),  # dag file into an undirected stream
        ("4 2 1", 4, True),     # short header
        ("4 2 x 0", 4, True),   # non-integer header field
        ("4 2 2 0", 4, True),   # flags other than 0 or 1, which
        ("4 2 -1 0", 4, True),  # dump_sequence never writes
        ("4 2 1 2", 4, True),
        ("4 2 0 1", 4, False),  # a dag that is not directed
    ])
    def test_header_checked_before_streaming(self, tmp_path, header, n, directed):
        path = self._dump(tmp_path, f"{header}\n1 2 0\n2 3 1\n")
        st = StreamState(n, directed=directed)
        with pytest.raises(GraphError, match=re.escape(f"{path}:1: ")):
            st.stream_file(path)
        assert st.streamed == 0 and st.core.graph.m == 0

    def test_out_of_range_endpoint_names_path_and_line(self, tmp_path):
        path = self._dump(tmp_path, "4 3 1 0\n1 2 0\n9 1 1\n3 4 2\n")
        st = StreamState(4, directed=True)
        with pytest.raises(GraphError, match=re.escape(f"{path}:3: endpoint out of range in (9,1)")):
            st.stream_file(path)
        assert st.streamed == 1

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(GraphError, match="empty stream file"):
            StreamState(3).stream_file(self._dump(tmp_path, ""))


@hst.composite
def _out_lists(draw):
    n = draw(hst.integers(1, 14))
    targets = hst.lists(hst.integers(1, n), max_size=2 * n)
    return n, [draw(targets) for _ in range(n + 1)]


class TestStrongComponents:
    @given(_out_lists())
    @example((1, [[], []]))
    @example((6, [[] for _ in range(7)]))  # no edges
    @example((4, [[], [2, 2, 2], [1, 1, 3], [3, 3], []]))  # repeated entries
    @example((3, [[1, 2, 3, 1], [], [], []]))  # adj[0] must be ignored
    @example((3, [[1], [2], [3], [1]]))
    @settings(max_examples=400, deadline=None)
    def test_matches_mutual_reachability(self, case):
        n, adj = case
        assert strong_components(n, adj) == brute_scc(n, adj)

    def test_import_loads_no_scipy_sparse(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = "import sys, incdfs; print('scipy.sparse' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


def test_streaming_reads_no_private_core_attribute():
    # StreamState talks to its core through the public stick view only
    source = Path(__file__).resolve().parent.parent / "src" / "incdfs" / "streaming.py"
    private = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "core") or (
                isinstance(owner, ast.Attribute) and owner.attr == "core"
            ):
                private.append((node.lineno, node.attr))
    assert private == []
