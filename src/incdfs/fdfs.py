"""FDFS: incremental DFS for DAGs and general directed graphs.

The tree's post-order numbering (dfn) is maintained exactly.  An inserted
edge (x, y) with dfn(x) >= dfn(y) never invalidates the tree and is
absorbed in O(1).  Otherwise the edge is an anti-cross edge and the repair
is core.restricted_dfs from y over the candidate set; the reached vertices
are re-rooted at y, hung from (x, y), and the affected contiguous rank
interval is renumbered.  The repair charges, in closed form, every
out-entry of the reached vertices: sum(len(adj[v])) over the post-order.

Candidate set: vertices with dfn in (dfn(x), U], excluding proper
ancestors of x, where U = dfn(y) in dag mode and U = dfn(c) in directed
mode with c the child of lca(x, y) whose subtree contains y (the whole
subtree is eligible there, not just ranks up to y).

In dag mode x and its blocked ancestors are fresh as well: the DFS
entering any of them means y reaches x, so the insertion closes a cycle
and is rejected with CycleError.  The repair writes into scratch mappings
until it has passed that test, so a rejected insertion leaves the graph,
the tree, dfn, dfn_index and all four counters exactly as before the call.
"""
from __future__ import annotations

from collections import defaultdict

from .base import IncrementalDfs
from .core import GraphError, lca, restricted_dfs


class CycleError(GraphError):
    """Raised in dag mode when an insertion would create a cycle."""


def reject(algo, x, y):
    """Take back the insertion (x, y), which closes a cycle, and raise
    CycleError.  Callers reject before touching the tree or any counter
    except the insertion's own edges_processed unit, which goes back too."""
    algo.graph.remove_edge(x, y)
    algo.counters.insertions -= 1
    algo.counters.edges_processed -= 1
    raise CycleError(f"insertion ({x},{y}) closes a cycle")


class FdfsState(IncrementalDfs):
    name = "fdfs"
    supports_batch = False

    def __init__(self, n: int, mode: str = "dag"):
        if mode not in ("dag", "directed"):
            raise GraphError(f"unknown fdfs mode {mode!r}")
        self.mode = mode
        super().__init__(n, directed=True)
        self.dfn_index = [0] * (n + 2)  # rank -> vertex
        for v, r in enumerate(self.tree.dfn):
            self.dfn_index[r] = v

    # -- candidate machinery ----------------------------------------------

    def _upper_rank(self, x, y, w):
        if self.mode == "dag":
            return self.tree.dfn[y]
        c = y
        while self.tree.parent[c] != w:
            c = self.tree.parent[c]
        return self.tree.dfn[c]

    def candidate_set(self, x, y):
        """Eligible vertices for the pending anti-cross edge (x, y)."""
        tree = self.tree
        if tree.dfn[x] >= tree.dfn[y]:
            raise GraphError("candidate set defined only for dfn(x) < dfn(y)")
        w = lca(tree, x, y)
        hi = self._upper_rank(x, y, w)
        out = set(self.dfn_index[tree.dfn[x] + 1 : hi + 1])
        a = tree.parent[x]
        while a != w:
            out.discard(a)
            a = tree.parent[a]
        return out

    # -- rebuild ----------------------------------------------------------

    def _apply(self, x, y):
        tree = self.tree
        self.counters.edges_processed += 1
        if tree.dfn[x] >= tree.dfn[y]:
            return  # back/forward/cross for the maintained order: stored
        w = lca(tree, x, y)
        if w == y:
            # back edge: y already reaches x through the tree
            if self.mode == "dag":
                reject(self, x, y)
            return
        self._rebuild(x, y, w)

    def _rebuild(self, x, y, w):
        tree = self.tree
        parent, children, dfn, index = tree.parent, tree.children, tree.dfn, self.dfn_index
        lo, hi = dfn[x], self._upper_rank(x, y, w)
        block = index[lo : hi + 1]  # x, then the rank interval (lo, hi]
        fresh = bytearray(len(parent))
        for v in block:
            fresh[v] = True
        # x and its ancestors below w are no candidates; in dag mode they
        # stay fresh as tripwires: entering one of them closes a cycle
        dag = self.mode == "dag"
        blocked = []
        a = parent[x]
        while a != w:
            blocked.append(a)
            fresh[a] = dag
            a = parent[a]
        fresh[x] = dag

        # phase 1: restricted DFS from y into scratch mappings, so a
        # rejection leaves the tree as it was
        adj = self.graph.out_adj
        new_parent = {}
        new_children = defaultdict(list)
        post = restricted_dfs(adj, (y,), fresh, new_parent, {y: 0}, new_children)
        if dag and not (fresh[x] and all(map(fresh.__getitem__, blocked))):
            reject(self, x, y)
        self.counters.edges_processed += sum(map(len, map(adj.__getitem__, post)))

        # phase 2: splice the reached set in as a subtree rooted at y.  A
        # reached vertex's children are all reached too (tree edges are
        # graph edges and its children's ranks lie in the interval), so its
        # new children are exactly its DFS children.
        moved = set(post)
        for v in post:
            p = parent[v]
            if p not in moved:
                children[p].remove(v)
        for v in post:
            children[v] = new_children[v]
        for v, p in new_parent.items():
            parent[v] = p
        parent[y] = x
        children[x].append(y)
        tree.refresh_depths(y)

        # phase 3: renumber the contiguous rank interval [lo, hi]: the
        # spliced subtree of y in post-order, then x, then the untouched
        # interval members in their old relative order
        new_block = post + [x]
        new_block += [v for v in block if v not in moved and v != x]
        for r, v in enumerate(new_block, lo):
            dfn[v] = r
            index[r] = v
        self.counters.rebuilds += 1
