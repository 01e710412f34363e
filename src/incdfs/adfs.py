"""ADFS1 / ADFS2: incremental DFS for undirected graphs via subtree
re-hanging with path reversal.

A newly inserted edge whose endpoints are tree-comparable is a back edge
and is stored in O(1).  A cross edge (x, y) with w = lca(x, y), x the
deeper endpoint and v the child of w above y triggers a re-hang: T(v) is
re-rooted at y, hung from the edge (x, y), and the tree path from y up to
v is reversed.  Stored back edges keyed on the reversed path may have
turned into cross edges; they are all moved to a pending pool and
reprocessed under the variant's order until the pool is empty.

Edges with an endpoint on the stick proper are ancestor-related to every
vertex, so they are dropped on sight, and the stored edges keyed on a
vertex are dropped when it joins the stick; discarded_edges counts both.
The public stick view (on_stick, stick, bristle_root, discarded_edges) is
the same as Sdfs2State's.  Only a re-hang changes the tree, so only then
does the stick walk run, resuming below the old stick (core.extend_stick).

Every edge popped from the pool (and the inserted edge itself) charges
edges_processed once.  Structural bookkeeping -- path reversal, depth
refresh of the moved subtree, stick upkeep -- is deliberately uncharged.
"""
from __future__ import annotations

from .base import IncrementalDfs
from .core import ROOT, GraphError, extend_stick, lca


class AdfsState(IncrementalDfs):
    """Shared machinery; ADFS1/ADFS2 differ only in pool order."""

    variant = "adfs"

    def __init__(self, n: int, directed: bool = False, adversarial_order: bool = False):
        if directed:
            raise GraphError("ADFS applies to undirected graphs only")
        super().__init__(n, directed=False)
        self.adversarial_order = adversarial_order
        self.pending: list = []
        # stored non-tree (back) edges keyed by their shallower endpoint
        self._back = [[] for _ in range(n + 1)]
        self.discarded_edges = 0
        self.on_stick = bytearray(n + 1)
        self.stick: list[int] = []
        self._grow_stick()

    # -- re-hang ----------------------------------------------------------

    def _rehang(self, x, y, w):
        """Re-root the child subtree of w containing y at y and hang it
        from (x, y), reversing the tree path from y to that child."""
        tree = self.tree
        parent, children = tree.parent, tree.children
        path = [y]
        while parent[path[-1]] != w:
            path.append(parent[path[-1]])
        v = path[-1]
        # displaced candidates: every stored edge keyed on a path vertex
        for q in path:
            if self._back[q]:
                self.pending.extend(self._back[q])
                self._back[q] = []
        # relink: parent(y) = x, parents along the path flip downward
        children[w].remove(v)
        # the detached tree edge (w, v) survives as a graph edge and is
        # still a back edge after the move (w stays an ancestor of v)
        if self.graph.has_edge(w, v) and w != ROOT:
            self._back[w].append((w, v))
        for i in range(len(path) - 1):
            children[path[i + 1]].remove(path[i])
        children[x].append(y)
        parent[y] = x
        for i in range(len(path) - 1):
            parent[path[i + 1]] = path[i]
            children[path[i]].append(path[i + 1])
        tree.refresh_depths(y)  # uncharged bookkeeping
        tree.dfn_valid = False
        self.counters.rebuilds += 1

    # -- pool policies -----------------------------------------------------

    def _pop(self):
        raise NotImplementedError

    def _pop_lifo(self):
        return self.pending.pop()

    def _pop_adversarial(self):
        # deepest shallower endpoint first, then shallowest deeper
        # endpoint: picks the stage witness in the worst-case replays
        depth = self.tree.depth
        best_i, best_key = 0, None
        for i, (u, v) in enumerate(self.pending):
            du, dv = depth[u], depth[v]
            key = (min(du, dv), -max(du, dv), -min(u, v), -max(u, v))
            if best_key is None or key > best_key:
                best_i, best_key = i, key
        return self.pending.pop(best_i)

    def _pop_min_shallow(self):
        # ADFS2: minimum-depth shallower endpoint, ties on its vertex id
        depth = self.tree.depth
        best_i, best_key = 0, None
        for i, (u, v) in enumerate(self.pending):
            if depth[u] > depth[v] or (depth[u] == depth[v] and u > v):
                u, v = v, u
            key = (depth[u], u, v)
            if best_key is None or key < best_key:
                best_i, best_key = i, key
        return self.pending.pop(best_i)

    # -- driver ------------------------------------------------------------

    def _settle(self, u, v):
        """Charge (u, v), then drop it (stick endpoint) or store it (back
        edge, keyed on the ancestor); return lca(u, v) for a cross edge.

        The stick marks may lag behind a re-hang until the pool drains,
        but a marked vertex stays on the stick, so it is safe to use."""
        self.counters.edges_processed += 1
        if self.on_stick[u] or self.on_stick[v]:
            self.discarded_edges += 1
            return None
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

    def _drain(self):
        while self.pending:
            u, v = self._pop()
            self._process(u, v)

    def _apply(self, u, v):
        # without a re-hang the tree, the empty pool and the stick stand
        if self._process(u, v):
            self._drain()
            self._grow_stick()

    def _apply_batch(self, edges):
        for u, v in edges:
            if self._settle(u, v) is not None:
                self.pending.append((u, v))
        self._drain()
        self._grow_stick()

    def _grow_stick(self):
        """Extend the stick view; drop the stored edges keyed on the
        vertices that joined the stick proper."""
        start = len(self.stick)
        self.bristle_root = extend_stick(self.tree.children, self.stick)
        for q in self.stick[start:]:
            self.on_stick[q] = 1
            self.discarded_edges += len(self._back[q])
            self._back[q] = []


class ADFS1(AdfsState):
    name = "adfs1"
    variant = "adfs1"

    def _pop(self):
        if self.adversarial_order:
            return self._pop_adversarial()
        return self._pop_lifo()


class ADFS2(AdfsState):
    name = "adfs2"
    variant = "adfs2"

    def _pop(self):
        return self._pop_min_shallow()
