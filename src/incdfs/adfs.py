"""ADFS1 / ADFS2: incremental DFS for undirected graphs via subtree
re-hanging with path reversal.

A newly inserted edge whose endpoints are tree-comparable is a back edge
and is stored in O(1).  A cross edge (x, y) with w = lca(x, y), x the
deeper endpoint and v the child of w above y triggers a re-hang: T(v) is
re-rooted at y, hung from the edge (x, y), and the tree path from y up to
v is reversed.  Stored back edges keyed on the reversed path may have
turned into cross edges; they are all moved to a pending pool and
reprocessed under the variant's order until the pool is empty.

ADFS1 drains the pool in LIFO order (list.pop, O(1) per pop) unless built
with adversarial_order.  The keyed orders -- adversarial ADFS1 and ADFS2 --
pop a binary heap of (key, u, v) entries: O(log p) per pop for a pool of
p edges, plus one O(p) re-key and heapify after every re-hang, the only
step that moves the depths the keys are made of.

Edges with an endpoint on the stick proper are ancestor-related to every
vertex, so they are dropped on sight, and the stored edges keyed on a
vertex are dropped when it joins the stick; discarded_edges counts both.
The stick view is base.IncrementalDfs's.  Only a re-hang changes the
tree, so only then does the stick walk run.

Every edge popped from the pool (and the inserted edge itself) charges
edges_processed once.  Structural bookkeeping -- path reversal, depth
refresh of the moved subtree, stick upkeep -- is deliberately uncharged.
"""
from __future__ import annotations

from heapq import heapify, heappop

from .base import IncrementalDfs
from .core import ROOT, GraphError, lca, path_below


class AdfsState(IncrementalDfs):
    """Shared machinery; ADFS1/ADFS2 differ only in pool order."""

    def __init__(self, n: int, directed: bool = False):
        if directed:
            raise GraphError("ADFS applies to undirected graphs only")
        super().__init__(n, directed=False)
        self.pending: list = []
        # stored non-tree (back) edges keyed by their shallower endpoint
        self._back = [[] for _ in range(n + 1)]

    # -- re-hang ----------------------------------------------------------

    def _rehang(self, x, y, w):
        """Re-root the child subtree of w containing y at y and hang it
        from (x, y), reversing the tree path from y to that child."""
        tree = self.tree
        parent, children = tree.parent, tree.children
        path = path_below(tree, y, w)
        v = path[-1]
        # displaced candidates: every stored edge keyed on a path vertex
        for q in path:
            if self._back[q]:
                self.pending.extend(self._back[q])
                self._back[q] = []
        # relink: parent(y) = x, parents along the path flip downward
        children[w].remove(v)
        # the detached tree edge (w, v) is a real edge unless w is the
        # pseudo root, and it is still a back edge after the move (w stays
        # an ancestor of v)
        if w != ROOT:
            self._back[w].append((w, v))
        children[x].append(y)
        parent[y] = x
        # each children list loses its old path entry before it gains the
        # new one
        for c, p in zip(path, path[1:]):
            children[p].remove(c)
            parent[p] = c
            children[c].append(p)
        tree.refresh_depths(y)  # uncharged bookkeeping
        tree.dfn_valid = False
        self.counters.rebuilds += 1

    # -- pool orders -------------------------------------------------------

    def _drain_lifo(self):
        pending = self.pending
        while pending:
            u, v = pending.pop()
            self._process(u, v)

    def _drain_keyed(self):
        """Pop the pool in _key order, smallest first, from a binary heap.

        Both keys read depths, and only a re-hang moves them, so every
        re-hang marks the heap stale and the next pop first re-keys every
        live entry (O(p)), including those the re-hang displaced into
        pending; any other pop is a heappop (O(log p)).  Keys are unique
        per edge, so the pops are exactly those of a rescan per pop."""
        key, pending = self._key, self.pending
        heap, stale = [], True
        while heap or pending:
            if stale:
                heap = [(key(u, v), u, v) for _, u, v in heap]
                heap += [(key(u, v), u, v) for u, v in pending]
                pending.clear()
                heapify(heap)
            _, u, v = heappop(heap)
            stale = self._process(u, v)

    # -- driver ------------------------------------------------------------

    def _settle(self, u, v):
        """Charge (u, v), then store it (back edge, keyed on the ancestor);
        return lca(u, v) for a cross edge.

        The callers drop an edge with a stick endpoint first, and none is
        left in the pool: a stored edge's ancestor end joins the stick no
        later than its other end, and _prune then drops it, while the
        marks do not move during a drain."""
        self.counters.edges_processed += 1
        w = lca(self.tree, u, v)
        if w == u or w == v:
            self._back[w].append((u, v))
            return None
        return w

    def _process(self, u, v):
        """Settle (u, v) and re-hang on a cross edge; True if it re-hung."""
        w = self._settle(u, v)
        if w is None:
            return False
        x, y = (u, v) if self.tree.depth[u] >= self.tree.depth[v] else (v, u)
        self._rehang(x, y, w)
        return True

    def _apply(self, u, v):
        # a stick-endpoint edge is charged and dropped here, before
        # _process: on random graphs most insertions end here
        if self.on_stick[u] or self.on_stick[v]:
            self.counters.edges_processed += 1
            self.discarded_edges += 1
            return
        # without a re-hang the tree, the empty pool and the stick stand
        if self._process(u, v):
            self._drain()
            self._grow_stick()

    def _apply_batch(self, edges):
        for u, v in edges:
            if self.on_stick[u] or self.on_stick[v]:  # dropped as in _apply
                self.counters.edges_processed += 1
                self.discarded_edges += 1
            elif self._settle(u, v) is not None:
                self.pending.append((u, v))
        self._drain()
        self._grow_stick()

    def _prune(self, q):
        self.discarded_edges += len(self._back[q])
        self._back[q] = []


class ADFS1(AdfsState):
    """Pool in LIFO order, or with adversarial_order in the order that
    reaches the O(n^{3/2} sqrt(m)) bound: the deepest shallower endpoint
    first, then the shallowest deeper endpoint, then the smaller ids.  That
    order picks the stage witness in the worst-case replays."""

    name = "adfs1"

    def __init__(self, n: int, directed: bool = False, adversarial_order: bool = False):
        self.adversarial_order = adversarial_order
        super().__init__(n, directed)

    def _drain(self):
        if self.adversarial_order:
            self._drain_keyed()
        else:
            self._drain_lifo()

    def _key(self, u, v):
        # the maximum of (shallower depth, -deeper depth, -min id, -max id),
        # negated for the min-heap
        depth = self.tree.depth
        du, dv = depth[u], depth[v]
        if du > dv:
            du, dv = dv, du
        return (-du, dv, u, v) if u < v else (-du, dv, v, u)


class ADFS2(AdfsState):
    """Pool in order of the shallower endpoint's depth, then its id."""

    name = "adfs2"

    _drain = AdfsState._drain_keyed

    def _key(self, u, v):
        depth = self.tree.depth
        if depth[u] > depth[v] or (depth[u] == depth[v] and u > v):
            u, v = v, u
        return (depth[u], u, v)
