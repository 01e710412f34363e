"""SDFS3: localized static rebuilds.

Each repair is core.restricted_dfs over a vertex set small enough to find
cheaply; the charges are closed form because every visited adjacency list
is scanned to the end.

Undirected mode: a violating (cross) edge (x, y) with w = lca(x, y)
identifies the two child subtrees of w containing x and y.  A lock-step
probe walks both subtrees one vertex at a time to find the smaller one
without paying for the larger (the probe's vertex touches are metered as
vertices_remarked, not edge scans); the smaller subtree is then
restricted_dfs'd over its own members, started at the inserted edge's
endpoint inside it and hung from the other endpoint.  Ties rebuild the
subtree containing y.  The charge counts each edge once: the members'
real adjacency entries minus the internal edges I, where 2I is the number
of member entries that point at a member.  dfn is left stale.

Directed and dag modes are fdfs with a phase 2: they share its candidate
interval, its phase 1 (the restricted DFS from y, with the dag tripwires
and the reject test) and its splice.  Phase 2 then detaches every
candidate subtree phase 1 did not reach and re-traverses them with one
more restricted_dfs from their roots in old rank order, re-hanging each
in place and charging every out-entry it visits.  This full re-traversal
is what costs Theta(m^2) in the worst case.

Only the block dfn_index[lo : hi + 1] is renumbered, lo = dfn(x):
- A candidate's old subtree lies inside (lo, hi]: its ranks are
  contiguous up to its own, and a descendant ranked at or below lo would
  make it an ancestor of x, and those are blocked.
- Every candidate the repair moves is hung from x or from a candidate;
  an unreached root keeps its parent and its place among its siblings.
- So the block's vertices take exactly the ranks lo..hi and no other
  vertex's rank changes.  In order they are y's new subtree, x, then each
  blocked ancestor after the phase 2 trees of the roots ranked below it.
"""
from __future__ import annotations

from bisect import bisect_left

from .core import lca, restricted_dfs
from .fdfs import FdfsState


class Sdfs3State(FdfsState):
    name = "sdfs3"
    modes = ("undirected", "directed", "dag")

    def __init__(self, n: int, mode: str = "undirected"):
        # only the default differs: FdfsState defaults to "dag"
        super().__init__(n, mode)

    def _apply(self, x, y):
        if self.directed:
            super()._apply(x, y)
        else:
            self.counters.edges_processed += 1
            self._apply_undirected(x, y)

    # -- undirected: rebuild the smaller side ------------------------------

    def _subtree_walker(self, root):
        stack = [root]
        while stack:
            v = stack.pop()
            stack.extend(self.tree.children[v])
            yield v

    def _apply_undirected(self, x, y):
        tree = self.tree
        w = lca(tree, x, y)
        if w == x or w == y:
            return  # back edge: stored implicitly, the tree stands
        r1 = x
        while tree.parent[r1] != w:
            r1 = tree.parent[r1]
        r2 = y
        while tree.parent[r2] != w:
            r2 = tree.parent[r2]
        # lock-step size probe: one vertex per side per step, metered as
        # vertex touches; the side that exhausts first is smaller, a tie
        # goes to the subtree containing y
        it1, it2 = self._subtree_walker(r1), self._subtree_walker(r2)
        while True:
            if next(it2, None) is None:
                root, entry, anchor = r2, y, x
                break
            self.counters.vertices_remarked += 1
            if next(it1, None) is None:
                root, entry, anchor = r1, x, y
                break
            self.counters.vertices_remarked += 1
        members = list(self._subtree_walker(root))
        parent, depth, children = tree.parent, tree.depth, tree.children
        adj = self.graph.out_adj
        fresh = bytearray(len(parent))
        for v in members:
            fresh[v] = True
            children[v] = []
        # every member's list is scanned to the end: each edge leaving the
        # side is charged once from inside, each internal edge once
        entries = twice_internal = 0
        for v in members:
            out = adj[v]
            entries += len(out) - 1  # minus the pseudo edge
            for t in out:
                if fresh[t]:
                    twice_internal += 1
        children[w].remove(root)
        parent[entry] = anchor
        depth[entry] = depth[anchor] + 1
        children[anchor].append(entry)
        restricted_dfs(adj, (entry,), fresh, parent, depth, children)
        self.counters.edges_processed += entries - twice_internal // 2
        tree.dfn_valid = False
        self.counters.rebuilds += 1

    # -- directed: full candidate-set re-traversal -------------------------

    def _rebuild(self, x, y, w):
        tree = self.tree
        parent, depth, children, dfn = tree.parent, tree.depth, tree.children, tree.dfn
        adj = self.graph.out_adj
        block, blocked, fresh, post = self._splice(x, y, w)
        self.counters.vertices_remarked += len(block) - 1 - len(blocked)
        # detach every candidate subtree phase 1 did not reach; the roots
        # are the unreached candidates whose parent is no candidate
        roots = []
        charge = 0
        for v in block:
            if fresh[v]:
                children[v] = []
                charge += len(adj[v])
                if not fresh[parent[v]]:
                    roots.append(v)
        self.counters.edges_processed += charge
        touched_parents = {parent[r] for r in roots}

        # phase 2: re-traverse the detached subtrees from the roots in old
        # rank order, re-hung in place: the expensive part.  Each blocked
        # ancestor finishes after the roots ranked below it.
        order = post + [x]
        i = 0
        for a in blocked:
            j = bisect_left(roots, dfn[a], i, key=dfn.__getitem__)
            order += restricted_dfs(adj, roots[i:j], fresh, parent, depth, children)
            order.append(a)
            i = j
        order += restricted_dfs(adj, roots[i:], fresh, parent, depth, children)
        # absorbed roots leave their old parents through this filter; the
        # survivors keep their original left-to-right positions
        for p in touched_parents:
            children[p] = [ch for ch in children[p] if parent[ch] == p]
        self._renumber(order, x)
        self.counters.rebuilds += 1
