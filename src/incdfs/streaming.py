"""Single-pass semi-streaming DFS tree and strong-connectivity answers.

Edges arrive one at a time and are never re-read.  An edge touching the
stick proper is dropped immediately: it can never invalidate the tree
again.  In directed mode, before a dropped edge u -> v with v on the
stick is forgotten, v is remembered as u's highest discarded target when
it beats the current one; since every stick vertex is an ancestor of the
whole tree, one such witness per source is enough to recover every
strongly connected component exactly from the retained subgraph.  A
query hands that subgraph (tree edges, stored edges and witnesses) to
scipy's strong components; see strong_components.

Bristle-internal edges are delegated to a wrapped incremental maintainer
(re-hanging for undirected streams, bristle rebuilds for directed ones).
Whenever the stick grows, the maintainer prunes the retained edges it
swallows, so the retained count stays O(n log n) on random streams.  The
wrapper reads only the stick view every maintainer shares
(base.IncrementalDfs: on_stick, discarded_edges) plus Sdfs2State's
stored and prune_hook in directed mode.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from .adfs import ADFS2
from .core import ROOT, GraphError
from .sdfs2 import Sdfs2State


class StreamState:
    """Wrapper holding the core maintainer and the retention accounting."""

    def __init__(self, n: int, directed: bool = False):
        if directed:
            self.core = Sdfs2State(n, directed=True)
            self.core.prune_hook = self._witness
        else:
            self.core = ADFS2(n)
        # the core's Graph has normalised n (a non-integer raises GraphError)
        self.n = n = self.core.n
        self.directed = directed
        self.duplicates = 0
        self.dropped = 0
        self.streamed = 0
        self.peak_retained = 0
        # minimum-depth discarded stick target per source vertex
        self.highest_back: list[int | None] = [None] * (n + 1)

    @property
    def retained_edges(self) -> int:
        """Stored non-tree edges with both endpoints in the bristles."""
        core = self.core
        tree_real = self.n - len(core.tree.children[ROOT])
        return core.graph.m - tree_real - core.discarded_edges

    # -- directed bookkeeping ----------------------------------------------

    def _witness(self, u, v):
        """Keep v as u's witness when v is on the stick, u is not, and v
        is shallower than the current one.  A stick vertex is an ancestor
        of every vertex and its depth is frozen for the rest of the
        stream; a source already on the stick reaches the whole tree."""
        on_stick = self.core.on_stick
        if not on_stick[v] or on_stick[u]:
            return
        cur = self.highest_back[u]
        depth = self.core.tree.depth
        if cur is None or depth[v] < depth[cur]:
            self.highest_back[u] = v

    # -- streaming ---------------------------------------------------------

    def stream_edge(self, u: int, v: int) -> bool:
        """Consume one stream element; returns True when it was retained.

        Endpoints are normalised (Graph.endpoints) and range-checked first:
        a non-integer endpoint, or one outside 1..n, raises GraphError
        before anything is counted."""
        core = self.core
        u, v = core.graph.endpoints(u, v)
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise GraphError(f"endpoint out of range in ({u},{v})")
        self.streamed += 1
        if u == v or core.graph.has_edge(u, v):
            self.duplicates += 1
            return False
        on_stick = core.on_stick
        if on_stick[u] or on_stick[v]:
            self.dropped += 1
            if self.directed:
                self._witness(u, v)
            return False
        core.insert(u, v)
        self.peak_retained = max(self.peak_retained, self.retained_edges)
        return True

    def stream_sequence(self, edges):
        for u, v in edges:
            self.stream_edge(u, v)

    def stream_file(self, path):
        """Consume a dumped edge list line by line (no buffering).

        The header "n m directed dag", whose flags are 0 or 1 (dag only
        when directed), must match this stream's n and direction; it is
        checked before any edge is streamed.  A malformed line or an
        endpoint outside 1..n raises GraphError naming the path and the
        line number."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().split()
            if not header:
                raise GraphError(f"{path}: empty stream file")
            try:
                n, _, directed, dag = map(int, header)
                if not {directed, dag} <= {0, 1} or dag > directed:
                    raise ValueError
            except ValueError:
                raise GraphError(f"{path}:1: malformed header {' '.join(header)!r}") from None
            if n != self.n or bool(directed) != self.directed:
                raise GraphError(
                    f"{path}:1: header n={n} directed={directed} does not match "
                    f"the stream's n={self.n} directed={int(self.directed)}"
                )
            for lineno, line in enumerate(fh, start=2):
                parts = line.split()
                try:
                    u, v = int(parts[0]), int(parts[1])
                except (IndexError, ValueError):
                    raise GraphError(f"{path}:{lineno}: malformed stream line {line!r}") from None
                try:
                    self.stream_edge(u, v)
                except GraphError as exc:
                    raise GraphError(f"{path}:{lineno}: {exc}") from None

    # -- queries -----------------------------------------------------------

    def scc_query(self):
        """Strongly connected components of the streamed graph, recovered
        from tree edges, retained edges and the per-source witnesses.

        Returns the partition as sorted component lists ordered by their
        minimum member."""
        if not self.directed:
            raise GraphError("scc_query requires a directed stream")
        # adj[0] holds the pseudo root's children, which strong_components ignores
        children, stored = self.core.tree.children, self.core.stored
        adj = [children[u] + stored[u] for u in range(self.n + 1)]
        for u, hb in enumerate(self.highest_back):
            if hb is not None:
                adj[u].append(hb)
        return strong_components(self.n, adj)


def strong_components(n, adj):
    """Strongly connected components of the digraph on 1..n whose out-list
    of v is adj[v]; adj[0] is ignored and repeated entries are allowed.

    The CSR arrays are built straight from the lists, and scipy is imported
    here so that importing the package does not load it.  Returns each
    component sorted, the components ordered by their smallest member."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    indptr = np.zeros(n + 2, dtype=np.int32)
    np.cumsum([len(a) for a in adj[1:n + 1]], out=indptr[2:])
    indices = np.fromiter(chain.from_iterable(adj[1:n + 1]), dtype=np.int32,
                          count=int(indptr[-1]))
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n + 1, n + 1))
    # scipy 1.17's strong components did not return within 10 s on a row
    # with a repeated column (n = 2, adj = [[], [2, 2], []]), so merge repeats
    graph.sum_duplicates()
    _, labels = connected_components(graph, directed=True, connection="strong")
    comps = {}
    for v, label in enumerate(labels.tolist()[1:], start=1):
        comps.setdefault(label, []).append(v)
    return list(comps.values())
