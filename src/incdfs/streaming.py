"""Single-pass semi-streaming DFS tree and strong-connectivity answers.

Edges arrive one at a time and are never re-read.  An edge touching the
stick proper is dropped immediately: it can never invalidate the tree
again.  In directed mode, before a dropped edge u -> v with v on the
stick is forgotten, v is remembered as u's highest discarded target when
it beats the current one; since every stick vertex is an ancestor of the
whole tree, one such witness per source is enough to recover every
strongly connected component exactly from the retained subgraph.

Bristle-internal edges are delegated to a wrapped incremental maintainer
(re-hanging for undirected streams, bristle rebuilds for directed ones).
Whenever the stick grows, the maintainer prunes the retained edges it
swallows, so the retained count stays O(n log n) on random streams.  The
wrapper reads only the maintainer's public stick view: on_stick,
discarded_edges, stored (directed) and prune_hook.
"""
from __future__ import annotations

from .adfs import ADFS2
from .core import ROOT, GraphError
from .sdfs2 import Sdfs2State


class StreamState:
    """Wrapper holding the core maintainer and the retention accounting."""

    def __init__(self, n: int, directed: bool = False):
        self.n = n
        self.directed = directed
        self.duplicates = 0
        self.dropped = 0
        self.streamed = 0
        self.peak_retained = 0
        # minimum-depth discarded stick target per source vertex
        self.highest_back: list[int | None] = [None] * (n + 1)
        if directed:
            self.core = Sdfs2State(n, directed=True)
            self.core.prune_hook = self._on_core_discard
        else:
            self.core = ADFS2(n)

    @property
    def retained_edges(self) -> int:
        """Stored non-tree edges with both endpoints in the bristles."""
        core = self.core
        tree_real = self.n - len(core.tree.children[ROOT])
        return core.graph.m - tree_real - core.discarded_edges

    # -- directed bookkeeping ----------------------------------------------

    def _record_highest(self, u, v):
        # v sits on the stick, hence is an ancestor of every vertex; its
        # depth is frozen for the rest of the stream.  A source already on
        # the stick needs no witness: it reaches the whole tree anyway.
        if self.core.on_stick[u]:
            return
        cur = self.highest_back[u]
        depth = self.core.tree.depth
        if cur is None or depth[v] < depth[cur]:
            self.highest_back[u] = v

    def _on_core_discard(self, u, v):
        if self.core.on_stick[v]:
            self._record_highest(u, v)

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
            if self.directed and on_stick[v]:
                self._record_highest(u, v)
            return False
        core.insert(u, v)
        self.peak_retained = max(self.peak_retained, self.retained_edges)
        return True

    def stream_sequence(self, edges):
        for u, v in edges:
            self.stream_edge(u, v)

    def stream_file(self, path):
        """Consume a dumped edge list line by line (no buffering)."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise GraphError(f"{path}: empty stream file")
            for line in fh:
                parts = line.split()
                if len(parts) < 2:
                    raise GraphError(f"{path}: malformed stream line {line!r}")
                self.stream_edge(int(parts[0]), int(parts[1]))

    # -- queries -----------------------------------------------------------

    def scc_query(self):
        """Strongly connected components of the streamed graph, recovered
        from tree edges, retained edges and the per-source witnesses.

        Returns the partition as sorted component lists ordered by their
        minimum member."""
        if not self.directed:
            raise GraphError("scc_query requires a directed stream")
        n = self.n
        adj = [[] for _ in range(n + 1)]
        tree = self.core.tree
        for v in range(1, n + 1):
            p = tree.parent[v]
            if p != ROOT:
                adj[p].append(v)
        for u in range(1, n + 1):
            adj[u].extend(self.core.stored[u])
            hb = self.highest_back[u]
            if hb is not None:
                adj[u].append(hb)
        comps = _tarjan_scc(n, adj)
        comps = [sorted(c) for c in comps]
        comps.sort(key=lambda c: c[0])
        return comps


def _tarjan_scc(n, adj):
    """Iterative Tarjan over vertices 1..n."""
    index = [0] * (n + 1)  # 0 = unvisited; otherwise 1-based discovery index
    low = [0] * (n + 1)
    on_stack = bytearray(n + 1)
    stack = []
    comps = []
    counter = 1
    for start in range(1, n + 1):
        if index[start]:
            continue
        work = [(start, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            advanced = False
            while ei < len(adj[v]):
                w = adj[v][ei]
                ei += 1
                if not index[w]:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            if work:
                pv, pei = work[-1]
                low[pv] = min(low[pv], low[v])
                work[-1] = (pv, pei)
    return comps
