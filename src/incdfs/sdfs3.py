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
of member entries that point at a member.

Directed mode: the same candidate set as the rank-interval algorithm is
computed for an anti-cross edge, but instead of splicing only what a
partial DFS reaches, every candidate subtree is detached: restricted_dfs
resumes through (x, y) over the candidates, then runs once more over the
still-unvisited detached roots in original left-to-right order, re-hanging
each in place.  Both charge every out-entry of the vertices they visit.
Post-order ranks are restored by a plain rescan.  The full re-traversal of
the candidate subtrees is what costs Theta(m^2) in the worst case.  In dag
mode a cycle is found and rejected as in fdfs, with the same guarantee:
a rejected insertion leaves everything as before the call.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import compress

from .base import IncrementalDfs
from .core import GraphError, lca, restricted_dfs
from .fdfs import reject


class Sdfs3State(IncrementalDfs):
    name = "sdfs3"
    supports_batch = False

    def __init__(self, n: int, mode: str = "undirected"):
        if mode not in ("undirected", "directed", "dag"):
            raise GraphError(f"unknown sdfs3 mode {mode!r}")
        self.mode = mode
        super().__init__(n, directed=(mode != "undirected"))

    def _apply(self, x, y):
        self.counters.edges_processed += 1
        if self.directed:
            self._apply_directed(x, y)
        else:
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

    def _apply_directed(self, x, y):
        tree = self.tree
        if not tree.dfn_valid:
            tree.recompute_dfn()
        parent, depth, children, dfn = tree.parent, tree.depth, tree.children, tree.dfn
        if dfn[x] >= dfn[y]:
            return
        w = lca(tree, x, y)
        dag = self.mode == "dag"
        if w == y:
            if dag:
                reject(self, x, y)
            return
        lo = dfn[x]
        if dag:
            hi = dfn[y]
        else:
            c = y
            while parent[c] != w:
                c = parent[c]
            hi = dfn[c]
        fresh = [lo < r <= hi for r in dfn]
        blocked = []
        a = parent[x]
        while a != w:
            blocked.append(a)
            fresh[a] = False
            a = parent[a]
        candidates = list(compress(range(len(fresh)), fresh))
        roots = sorted((v for v in candidates if not fresh[parent[v]]), key=dfn.__getitem__)
        touched_parents = {parent[r] for r in roots}
        adj = self.graph.out_adj

        # phase 1: resume through (x, y) into scratch mappings, with x and
        # its blocked ancestors as dag tripwires (see fdfs)
        for a in blocked:
            fresh[a] = dag
        fresh[x] = dag
        new_parent = {}
        new_children = defaultdict(list)
        post = restricted_dfs(adj, (y,), fresh, new_parent, {y: 0}, new_children)
        if dag and not (fresh[x] and all(map(fresh.__getitem__, blocked))):
            reject(self, x, y)
        for a in blocked:
            fresh[a] = False
        fresh[x] = False
        self.counters.vertices_remarked += len(candidates)

        for v in candidates:
            children[v] = []
        for v in post:
            children[v] = new_children[v]
        for v, p in new_parent.items():
            parent[v] = p
        parent[y] = x
        children[x].append(y)
        tree.refresh_depths(y)

        # phase 2: re-traverse every detached subtree whose root was not
        # absorbed, left to right, re-hung in place: the expensive part
        post += restricted_dfs(adj, roots, fresh, parent, depth, children)
        self.counters.edges_processed += sum(map(len, map(adj.__getitem__, post)))

        # absorbed roots leave their old parents through this filter; the
        # survivors keep their original left-to-right positions
        for p in touched_parents:
            children[p] = [ch for ch in children[p] if parent[ch] == p]
        tree.recompute_dfn()
        self.counters.rebuilds += 1
