"""Baseline maintainers that answer every insertion with a full-DFS tree.

SDFS's tree is the one a full DFS from the pseudo root gives.  SDFSInt's
DFS abandons the scan as soon as every vertex has been visited, which on
random inputs skips most of the adjacency lists of the late-discovered
vertices; it yields the same tree and dfn.  Batch insertion runs one DFS
per batch for both.

Rebuild test.  static_dfs scans adjacency lists in insertion order and a
new edge (u, v) sits at the end of its lists, so a rerun repeats the old
run up to the first scan of a new entry.  Directed, that entry is u's
last, scanned just before u finishes: it changes the DFS only if v is
still unvisited then, i.e. v was discovered after u finished: dfn(v) >
dfn(u) and v not an ancestor of u (an anti-cross edge).  Undirected, if
u and v are ancestor-related the deeper one's scan finds the other on
the stack and the shallower one's finds it finished, so nothing changes;
if they are not (a cross edge), the one discovered first reaches its new
entry while the other is still unvisited.  Only a cross or anti-cross
edge (core.violates) reruns static_dfs; any other edge keeps the tree,
which is the DFS's result exactly.  An edge with an endpoint on the
stick (base.IncrementalDfs's view) is a back or forward edge, so it
skips violates and its ancestry walk.  A rerun may change the whole
tree, so after each one (a batch's too) the marks are cleared and walked
again from the root: O(l_s) against the rerun's O(n + m).  No edge is
forgotten, so discarded_edges stays 0.

Charges for a kept tree, in closed form.  The cost counter prices the DFS
a naive rebuild would run.  sdfs: a full DFS charges n + m.  sdfs-int:
its DFS stops right after it discovers L, the last vertex in preorder,
and charges what it scanned before that.  The scanning end s of the new
edge (u when directed, the deeper endpoint when undirected) is finished
before L is discovered unless s lies on the root-to-L path, so the new
entry adds 1 to the previous insertion's charge, or 0 when s is on that
path.  The path vertices finish last, in stack order, so a path vertex
at depth d has dfn n + 1 - d; any other vertex finishes before L and
before its own d ancestors, so its dfn is at most n - d.  Hence s is on
the path exactly when dfn(s) + depth(s) == n + 1.
"""
from __future__ import annotations

from .base import IncrementalDfs
from .core import static_dfs, violates


class SDFS(IncrementalDfs):
    name = "sdfs"
    interrupt = False

    def __init__(self, n: int, directed: bool = False):
        super().__init__(n, directed)
        # what the base class's uncharged DFS would charge, for a kept
        # tree's charge to build on: with no real edge, the full and the
        # interrupted DFS both charge the root's n entries
        self._charge = self.n

    def _rebuild(self):
        counters = self.counters
        before = counters.edges_processed
        self.tree = static_dfs(self.graph, counters=counters, interrupt=self.interrupt)
        self._charge = counters.edges_processed - before
        counters.rebuilds += 1
        self._reset_stick()

    def _apply(self, u, v):
        tree = self.tree
        directed = self.graph.directed
        if not (self.on_stick[u] or self.on_stick[v]) and violates(tree, u, v, directed):
            self._rebuild()
            return
        s = u if directed or tree.depth[u] > tree.depth[v] else v
        if not (self.interrupt and tree.dfn[s] + tree.depth[s] == self.graph.n + 1):
            self._charge += 1
        self.counters.edges_processed += self._charge
        self.counters.rebuilds += 1

    def _apply_batch(self, edges):
        self._rebuild()


class SDFSInt(SDFS):
    name = "sdfs-int"
    interrupt = True
