"""SDFS3: localized static rebuilds.

Each repair is core.restricted_dfs over a vertex set small enough to find
cheaply; the charges are closed form because every visited adjacency list
is scanned to the end.

Undirected mode: an edge with an endpoint on the stick (the view of
base.IncrementalDfs) is a back edge and keeps the tree, with no ancestry
walk; the marks grow after each repair, which sits at or below the
bristle root.  A violating (cross) edge (x, y) with w = lca(x, y)
identifies the two child subtrees of w containing x and y.  A lock-step
probe walks both subtrees one vertex at a time to find the smaller one
without paying for the larger (the probe's vertex touches are metered as
vertices_remarked, not edge scans); the smaller subtree is then
restricted_dfs'd over its own members, started at the inserted edge's
endpoint inside it and hung from the other endpoint.  Ties rebuild the
subtree containing y.  The charge counts each edge once: the members'
real adjacency entries minus the internal edges I, where 2I is the number
of member entries that point at a member.  dfn is left stale.

Directed and dag modes are fdfs's repair with sdfs3's charge: only
FdfsState._charge is overridden.  They share its candidate interval, its
phase 1 (the restricted DFS from y, with the dag tripwires and the reject
test), its splice and its renumbering.  The simple algorithm then
re-traverses every candidate subtree phase 1 did not reach, from its root
in old rank order, re-hung in place.  That re-traversal gives back the
tree it starts from, so it is not run:
- The old tree is valid, so no edge is anti-cross: no edge leads from a
  finished subtree to a vertex discovered after it.
- A reached vertex's subtree is wholly reached, so a vertex that left an
  unreached subtree took its whole subtree with it.
- The tree is the static DFS of the graph (the tests pin this after every
  insertion).  So a DFS from an unreached root over the fresh vertices
  meets them in the order the old DFS did and returns the root's old
  subtree minus the reached vertices, children in the same order.
As sdfs.py does for its kept trees, the charge prices the re-traversal
that no longer runs: every out-entry of each unreached candidate, plus one
vertices_remarked per candidate.  That re-traversal is what costs
Theta(m^2) in the worst case.
"""
from __future__ import annotations

from .core import lca, path_below, restricted_dfs
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

    def _apply_undirected(self, x, y):
        if self.on_stick[x] or self.on_stick[y]:
            return  # back edge on the stick: the tree stands
        tree = self.tree
        w = lca(tree, x, y)
        if w == x or w == y:
            return  # back edge: stored implicitly, the tree stands
        parent, depth, children = tree.parent, tree.depth, tree.children
        r1, r2 = path_below(tree, x, w)[-1], path_below(tree, y, w)[-1]
        # lock-step size probe: one vertex per side per step, metered as
        # vertex touches; the side that exhausts first is smaller, a tie
        # goes to the subtree containing y.  Each side lists the vertices
        # it reached and grows by their children, so the smaller side's
        # list ends as its members.
        side1, side2 = [r1], [r2]
        i = 0
        while True:
            if i == len(side2):
                members, entry, anchor, touched = side2, y, x, 2 * i
                break
            side2.extend(children[side2[i]])
            if i == len(side1):
                members, entry, anchor, touched = side1, x, y, 2 * i + 1
                break
            side1.extend(children[side1[i]])
            i += 1
        self.counters.vertices_remarked += touched
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
        children[w].remove(members[0])
        parent[entry] = anchor
        depth[entry] = depth[anchor] + 1
        children[anchor].append(entry)
        restricted_dfs(adj, entry, fresh, parent, depth, children)
        self.counters.edges_processed += entries - twice_internal // 2
        tree.dfn_valid = False
        self.counters.rebuilds += 1
        self._grow_stick()

    # -- directed: fdfs's repair, charged as a full candidate re-traversal

    def _charge(self, post, rest, blocked):
        """fdfs's charge, plus one vertices_remarked per candidate and every
        out-entry of the unreached ones: rest without the blocked ancestors."""
        super()._charge(post, rest, blocked)
        adj = self.graph.out_adj
        self.counters.vertices_remarked += len(post) + len(rest) - len(blocked)
        unreached = sum([len(adj[v]) for v in rest]) - sum([len(adj[a]) for a in blocked])
        self.counters.edges_processed += unreached
