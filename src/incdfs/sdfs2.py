"""SDFS2: bristle-restricted static rebuilds.

The tree is split into its stick (the top path from the root down to the
last vertex before branching) and the bristles (the subtree hanging below
the stick).  Non-tree edges touching the stick proper can never invalidate
the tree again, so they are discarded on sight.  The remaining non-tree
edges live entirely inside the bristles and are kept in a stored-edge
structure: stored[u] is the out-list of u and _stored_in[v] the in-list
of v; undirected, where every edge leads both ways, they are the same
lists, so an edge sits in both endpoints' lists.  A violating insertion
(undirected: cross; directed: anti-cross) triggers the repair:
core.restricted_dfs from the bristle root over the bristles, on the
bristle-induced subgraph (tree edges, stored edges, the trigger).  The
stick's tree edges are never touched; afterwards the stick view
(base.IncrementalDfs) grows and prunes the stored edges its growth
swallowed.

Every insertion charges one unit.  A rebuild reaches every bristle and
scans every entry of the bristle-induced subgraph, so its charge is closed
form: the bristle tree edges, the stored edges (an undirected one once,
though it sits in two lists) and the trigger -- |B| plus the stored edges
for |B| bristles.  The bristles finish first in the whole tree's post-order
and the stick keeps its ranks, so the rebuild hands out post-order ranks
1..|B| to the bristles: a directed dfn stays exact, as the anti-cross
test (core.violates) needs.  Undirected dfn is not maintained
(dfn_valid is cleared, as in the other undirected maintainers).
"""
from __future__ import annotations

from .base import IncrementalDfs
from .core import ROOT, restricted_dfs, violates


class Sdfs2State(IncrementalDfs):
    """The shared stick view, plus stored[u] and _stored_in[v],
    the out- and in-lists of the stored non-tree edges (one and the same
    lists when undirected), and prune_hook."""

    name = "sdfs2"
    supports_batch = False

    def __init__(self, n: int, directed: bool = False):
        super().__init__(n, directed=directed)
        # stored non-tree edges, both endpoints in bristles: out-lists,
        # and in-lists used only for pruning
        self.stored = [[] for _ in range(n + 1)]
        self._stored_in = [[] for _ in range(n + 1)] if directed else self.stored
        # called once per discarded edge; used by the streaming wrapper
        self.prune_hook = None

    # -- stick maintenance -------------------------------------------------

    def _prune(self, q):
        stored, stored_in = self.stored, self._stored_in
        for v in stored[q]:
            self._discard(q, v)
            stored_in[v].remove(q)
        stored[q] = []  # undirected, this empties stored_in[q] too
        for u in stored_in[q]:
            self._discard(u, q)
            stored[u].remove(q)
        stored_in[q] = []

    def _discard(self, u, v):
        self.discarded_edges += 1
        if self.prune_hook is not None:
            self.prune_hook(u, v)

    def _store(self, u, v):
        self.stored[u].append(v)
        self._stored_in[v].append(u)

    # -- insertion ---------------------------------------------------------

    def _apply(self, u, v):
        self.counters.edges_processed += 1
        if self.on_stick[u] or self.on_stick[v]:
            # stick-incident edges are always conforming: drop on sight
            self._discard(u, v)
            return
        if violates(self.tree, u, v, self.graph.directed):
            self._rebuild(u, v)
        else:
            self._store(u, v)

    # -- bristle rebuild ---------------------------------------------------

    def _rebuild(self, eu, ev):
        tree = self.tree
        directed = self.graph.directed
        parent, depth, children, dfn = tree.parent, tree.depth, tree.children, tree.dfn
        stored, stored_in = self.stored, self._stored_in
        root = self.bristle_root
        # one pass over the bristles (the subtree of the bristle root) builds
        # the adjacency of the bristle-induced subgraph -- tree edges, stored
        # edges, then the trigger, so a replay on an isolated bristle
        # subgraph scans identically -- and collects the real edges that may
        # be stored again.  The set's iteration order fixes the order of the
        # re-stored lists, which later rebuilds scan: keep the adds in order.
        adj = [None] * len(parent)
        old_edges = set()
        add = old_edges.add
        entries = 0
        for q in tree.preorder(root):
            kids = children[q]
            out = stored[q]
            entries += len(out)
            if directed or q == root:
                adj[q] = kids + out
            else:
                adj[q] = [*kids, parent[q], *out]
            if q != ROOT:  # pseudo edges never enter the stored set
                for c in kids:
                    add((q, c))
            for t in out:
                if directed or q < t:  # an undirected edge is in two lists
                    add((q, t))
            children[q] = []
            stored[q] = []
            if directed:  # undirected, stored_in[q] is stored[q]
                stored_in[q] = []
        adj[eu].append(ev)
        if not directed:
            adj[ev].append(eu)
        add((eu, ev))

        # the DFS runs over the bristles: adj names no other vertex, so
        # every vertex may start fresh.  The charge is |B| (the |B| - 1
        # bristle tree edges plus the trigger) plus the stored edges, and a
        # directed dfn gives the bristles the post-order ranks 1..|B|.
        post = restricted_dfs(adj, root, [True] * len(parent), parent, depth, children)
        self.counters.edges_processed += len(post) + (entries if directed else entries // 2)
        self.counters.rebuilds += 1
        if directed:
            for rank, q in enumerate(post, 1):
                dfn[q] = rank
        else:
            tree.dfn_valid = False

        # everything that did not become a tree edge stays stored (subject
        # to the stick pruning that follows)
        for a, b in old_edges:
            if parent[b] != a and (directed or parent[a] != b):
                stored[a].append(b)
                stored_in[b].append(a)
        self._grow_stick()
